"""Sample summaries: the percentile rule and across-run spreads."""

from __future__ import annotations

import statistics

import numpy as np

__all__ = ["TAIL_LADDER", "iqr_share", "percentile", "summarize",
           "tail_percentile"]

#: Candidate tail percentiles, lowest first.  A timing reports the
#: highest one that leaves at least ten samples beyond it.
TAIL_LADDER = (75.0, 90.0, 99.0, 99.9)

#: Fewer samples than this: the median alone, no tail.
MIN_TAIL_SAMPLES = 40


def tail_percentile(count: int) -> "float | None":
    """The highest ladder percentile with >= 10 samples beyond it.

    ``None`` below :data:`MIN_TAIL_SAMPLES` samples, where any tail
    figure would rest on fewer than ten observations.
    """
    if count < MIN_TAIL_SAMPLES:
        return None
    best = None
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) / 100.0 >= 10.0 - 1e-9:
            best = pct
    return best


def percentile(samples, pct: float) -> float:
    """Linear-interpolation percentile (NumPy's default method)."""
    return float(np.percentile(np.asarray(samples, dtype=np.float64), pct))


def summarize(samples) -> dict:
    """``{"count", "p50", "tail_pct", "tail"}`` of one timing's samples."""
    samples = list(samples)
    if not samples:
        raise ValueError("no samples to summarize")
    tail_pct = tail_percentile(len(samples))
    return {
        "count": len(samples),
        "p50": percentile(samples, 50.0),
        "tail_pct": tail_pct,
        "tail": None if tail_pct is None else percentile(samples, tail_pct),
    }


def iqr_share(values) -> "tuple[float, float]":
    """``(median, (Q3 - Q1) / median)`` as ``statistics.quantiles`` gives."""
    values = [float(v) for v in values]
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median) if median else float("inf")
