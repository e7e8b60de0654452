"""Engine parity: scheduling must never change a single bit.

The engine restructures *how* batches are priced (grouping, chunking,
thread fan-out, workspace reuse); these tests pin the contract that
the prices are bit-identical to calling the kernel simulators
directly, for every math profile, chunk size and thread count (3
threads do not divide the chunks evenly).
"""

import random

import numpy as np
import pytest

from repro.core.batch_sim import simulate_kernel_a_batch, simulate_kernel_b_batch
from repro.core.faithful_math import (
    ALTERA_13_0_DOUBLE,
    EXACT_DOUBLE,
    EXACT_SINGLE,
)
from repro.engine import EngineConfig, PricingEngine
from repro.errors import ReproError
from repro.finance import generate_batch, price_binomial

PROFILES = (EXACT_DOUBLE, EXACT_SINGLE, ALTERA_13_0_DOUBLE)
STEPS = 12
BATCH = 9  # deliberately not a multiple of any chunk size below


@pytest.fixture(scope="module")
def batch():
    return list(generate_batch(n_options=BATCH, seed=99).options)


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
@pytest.mark.parametrize("chunk", (1, 7, BATCH, BATCH + 1))
@pytest.mark.parametrize("workers", (1, 2, 3))
@pytest.mark.parametrize("kernel,simulator", (
    ("iv_b", simulate_kernel_b_batch),
    ("iv_a", simulate_kernel_a_batch),
))
def test_bit_identical_to_simulator(batch, kernel, simulator, profile,
                                    chunk, workers):
    expected = simulator(batch, STEPS, profile)
    config = EngineConfig(workers=workers, chunk_options=chunk)
    with PricingEngine(kernel=kernel, profile=profile, config=config) as eng:
        prices = eng.price(batch, STEPS)
    np.testing.assert_array_equal(prices, expected)


@pytest.mark.parametrize("workers", (1, 2, 3))
def test_reliability_layer_preserves_bit_identity(batch, workers):
    """No faults, no failures: the retry/quarantine machinery must not
    change a single bit, and the failure channel stays empty."""
    expected = simulate_kernel_b_batch(batch, STEPS)
    config = EngineConfig(workers=workers, chunk_options=3, max_retries=3,
                          chunk_timeout_s=60.0, backoff_base_s=0.01)
    with PricingEngine(kernel="iv_b", config=config) as eng:
        result = eng.run(batch, STEPS)
    np.testing.assert_array_equal(result.prices, expected)
    assert result.failures == ()
    assert result.stats.retries == 0
    assert result.stats.timeouts == 0
    assert result.stats.quarantined_options == 0


def test_reference_kernel_matches_price_binomial(batch):
    expected = np.array(
        [price_binomial(o, STEPS).price for o in batch], dtype=np.float64)
    with PricingEngine(kernel="reference",
                       config=EngineConfig(chunk_options=4)) as eng:
        prices = eng.price(batch, STEPS)
    np.testing.assert_array_equal(prices, expected)


def test_auto_chunking_matches_pinned(batch):
    with PricingEngine(kernel="iv_b") as auto_engine:
        auto = auto_engine.price(batch, STEPS)
    with PricingEngine(kernel="iv_b",
                       config=EngineConfig(chunk_options=2)) as pinned_engine:
        pinned = pinned_engine.price(batch, STEPS)
    np.testing.assert_array_equal(auto, pinned)


class TestInputOrder:
    """Shuffled, heterogeneous-steps streams come back in input order."""

    @pytest.mark.parametrize("workers", (1, 2, 3))
    def test_heterogeneous_steps_scatter_back(self, workers):
        rng = random.Random(1234)
        pool = list(generate_batch(n_options=24, seed=5).options)
        rng.shuffle(pool)
        steps = [rng.choice((8, 12, 17)) for _ in pool]

        config = EngineConfig(workers=workers, chunk_options=5)
        with PricingEngine(kernel="iv_b", config=config) as eng:
            prices = eng.price(pool, steps)

        expected = np.array([
            simulate_kernel_b_batch([option], n)[0]
            for option, n in zip(pool, steps)
        ])
        np.testing.assert_array_equal(prices, expected)

    def test_grouping_is_reported(self):
        pool = list(generate_batch(n_options=6, seed=8).options)
        steps = [8, 12, 8, 12, 8, 12]
        with PricingEngine(kernel="iv_b") as eng:
            result = eng.run(pool, steps)
        assert result.stats.groups == 2
        assert result.stats.options == 6

    def test_steps_length_mismatch_raises(self, batch):
        with PricingEngine(kernel="iv_b") as eng:
            with pytest.raises(ReproError, match="does not match"):
                eng.price(batch, [STEPS] * (len(batch) - 1))


class TestValidation:
    def test_unknown_kernel(self):
        with pytest.raises(ReproError, match="kernel must be one of"):
            PricingEngine(kernel="iv_c")

    def test_iv_b_requires_crr(self):
        from repro.finance import LatticeFamily

        with pytest.raises(ReproError, match="CRR recombination"):
            PricingEngine(kernel="iv_b", family=LatticeFamily.JARROW_RUDD)

    def test_empty_batch(self):
        with PricingEngine(kernel="iv_b") as eng:
            with pytest.raises(ReproError, match="empty option batch"):
                eng.price([], STEPS)

    @pytest.mark.parametrize("kernel,message", (
        ("iv_b", "kernel IV.B needs at least 2 steps"),
        ("iv_a", "kernel IV.A needs at least 2 steps"),
    ))
    def test_too_few_steps_same_message_as_simulator(self, batch, kernel,
                                                     message):
        with PricingEngine(kernel=kernel) as eng:
            with pytest.raises(ReproError, match=message):
                eng.price(batch, 1)

    def test_bad_config(self):
        with pytest.raises(ReproError, match="workers"):
            EngineConfig(workers=0)
        with pytest.raises(ReproError, match="chunk_options"):
            EngineConfig(chunk_options=0)
        with pytest.raises(ReproError, match="tile_budget_bytes"):
            EngineConfig(tile_budget_bytes=0)


class TestStats:
    def test_counters_and_rates(self, batch):
        with PricingEngine(kernel="iv_b",
                           config=EngineConfig(chunk_options=4)) as eng:
            result = eng.run(batch, STEPS)
        stats = result.stats
        assert stats.options == BATCH
        assert stats.chunks == 3  # 9 options in chunks of 4
        assert stats.workers == 1
        assert stats.wall_time_s > 0.0
        assert stats.options_per_second > 0.0
        assert stats.tree_nodes_per_second > stats.options_per_second
        assert stats.peak_tile_bytes > 0

    def test_performance_row_integration(self, batch):
        with PricingEngine(kernel="iv_b") as eng:
            stats = eng.run(batch, STEPS).stats
        row = stats.performance_row(label="engine", platform="test host")
        assert row.options_per_second == stats.options_per_second
        assert row.tree_nodes_per_second == stats.tree_nodes_per_second
        assert row.options_per_joule is None

    def test_as_dict_round_trips_json(self, batch):
        import json

        with PricingEngine(kernel="iv_b") as eng:
            stats = eng.run(batch, STEPS).stats
        assert json.loads(json.dumps(stats.as_dict()))["options"] == BATCH
