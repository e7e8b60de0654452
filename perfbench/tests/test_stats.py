"""The percentile rule: median always, a tail only with ten samples beyond."""

import pytest

from stats import iqr_share, summarize, tail_percentile


@pytest.mark.parametrize("count, expected", [
    (1, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_below_forty_samples_only_the_median_is_reported():
    summary = summarize(range(39))
    assert summary["p50"] == 19.0
    assert summary["tail"] is None and summary["tail_pct"] is None


def test_tail_value_leaves_ten_samples_beyond():
    samples = list(range(1000))
    summary = summarize(samples)
    assert summary["tail_pct"] == 99.0
    assert sum(s > summary["tail"] for s in samples) == 10


def test_iqr_share_matches_statistics_quantiles():
    median, spread = iqr_share([10.0, 11.0, 9.0, 10.0, 12.0, 8.0, 10.0])
    assert median == 10.0
    assert spread == pytest.approx((11.0 - 9.0) / 10.0)
