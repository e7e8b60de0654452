"""The batched greeks workload: one engine run, five sensitivities.

Covers the contract of the one greeks schedule, the fused task:

* delta/gamma/theta come out of the *same* backward induction as the
  prices (tree-level capture — the run performs exactly ``5 * n``
  tree pricings: the level-captured base contract plus four bump
  variants, never a sixth);
* the fused columns are bit-identical to independent references on
  both backends, also under healing fault plans: plain engine runs
  over the five variant sets, the scalar
  :func:`repro.finance.greeks.lattice_greeks` oracle, and the kernel
  IV.B simulator's level capture;
* ``repro.greeks`` agrees with the scalar oracle to 1e-9 under CRR on
  every kernel;
* the greeks arrays agree with central finite differences of
  :func:`price_binomial`;
* thread fan-out is bit-identical to the inline path;
* a failure quarantines the option's whole greeks row, remapped to
  the original option index.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.backends.cnative import CNativeBackend
from repro.core.batch_sim import simulate_kernel_b_batch
from repro.engine import EngineConfig, PricingEngine
from repro.engine.faults import ALWAYS, FaultKind, FaultPlan
from repro.errors import ReproError
from repro.finance import generate_batch, price_binomial
from repro.finance.greeks import greeks_from_levels, lattice_greeks
from repro.finance.lattice import LatticeFamily, build_lattice_arrays
from repro.finance.options import option_arrays

STEPS = 64
ORACLE_TOL = 1e-9
BUMP_VOL = 1e-3
BUMP_RATE = 1e-4

BACKENDS = (
    "numpy",
    pytest.param("cnative", marks=pytest.mark.skipif(
        not CNativeBackend.available(),
        reason="no C toolchain for the cnative backend")),
)
FAULT_SEEDS = (None, 101, 202, 303)

GREEK_FIELDS = ("prices", "delta", "gamma", "theta", "vega", "rho")


@pytest.fixture(scope="module")
def batch():
    return list(generate_batch(n_options=40, seed=11).options)


@pytest.fixture(scope="module")
def oracle(batch):
    rows = [lattice_greeks(o, steps=STEPS) for o in batch]
    return {
        "prices": np.array([r.price for r in rows]),
        "delta": np.array([r.delta for r in rows]),
        "gamma": np.array([r.gamma for r in rows]),
        "theta": np.array([r.theta for r in rows]),
        "vega": np.array([r.vega for r in rows]),
        "rho": np.array([r.rho for r in rows]),
    }


class TestOracleParity:
    @pytest.mark.parametrize("kernel", ("iv_b", "iv_a", "reference"))
    def test_matches_scalar_lattice_greeks(self, batch, oracle, kernel):
        result = repro.greeks(batch, steps=STEPS, kernel=kernel)
        for field in GREEK_FIELDS:
            diff = np.max(np.abs(getattr(result, field) - oracle[field]))
            assert diff <= ORACLE_TOL, f"{kernel}/{field}: {diff:.3e}"

    def test_prices_match_price_route(self, batch):
        """The base pass prices exactly like the plain pricing route."""
        greeks = repro.greeks(batch, steps=STEPS, kernel="iv_b")
        prices = repro.price(batch, steps=STEPS, kernel="iv_b")
        np.testing.assert_array_equal(greeks.prices, prices.prices)


class TestSamePassContract:
    def test_exactly_five_pricings_per_option(self, batch):
        """No sixth pass: delta/gamma/theta ride the base pricing pass."""
        result = repro.greeks(batch, steps=STEPS, kernel="iv_b")
        assert result.stats.options == 5 * len(batch)
        assert result.stats.greeks_options == len(batch)
        assert result.stats.bump_passes == 4

    def test_fused_schedule_collapses_groups(self, batch):
        """One scheduling group per depth, every variant counted."""
        result = repro.greeks(batch, steps=STEPS, kernel="iv_b")
        assert result.stats.groups == 1
        assert result.stats.options == 5 * len(batch)
        assert result.stats.greeks_options == len(batch)
        assert result.stats.bump_passes == 4

    def test_minimum_steps_enforced(self, batch):
        with pytest.raises(ReproError, match="at least 3 steps"):
            repro.greeks(batch[:2], steps=2)

    def test_empty_batch(self):
        result = repro.greeks([])
        assert len(result) == 0
        assert result.stats is None


def variant_sets(options):
    """Base, vol up/down (floored at 1e-8) and rate up/down contracts."""
    return (
        options,
        [o.with_volatility(o.volatility + BUMP_VOL) for o in options],
        [o.with_volatility(max(o.volatility - BUMP_VOL, 1e-8))
         for o in options],
        [replace(o, rate=o.rate + BUMP_RATE) for o in options],
        [replace(o, rate=o.rate - BUMP_RATE) for o in options],
    )


def fused_greeks(batch, kernel, backend, seed):
    """One engine greeks run; a seeded fault plan must heal on retry."""
    plan = None if seed is None else FaultPlan.random(seed, len(batch))
    config = EngineConfig(backend=backend, backoff_base_s=0.0)
    with PricingEngine(kernel=kernel, config=config, faults=plan) as engine:
        result = engine.run_greeks(batch, STEPS, bump_vol=BUMP_VOL,
                                   bump_rate=BUMP_RATE)
    assert result.failures == ()
    assert result.stats.backend == backend
    return result


@pytest.mark.parametrize("seed", FAULT_SEEDS)
@pytest.mark.parametrize("backend", BACKENDS)
class TestBitwiseReference:
    """The fused task against independent references, at rtol=0."""

    @pytest.fixture(autouse=True)
    def _pinned_backend(self, monkeypatch):
        # an ambient REPRO_BACKEND would rewrite the backend pinned here
        monkeypatch.delenv("REPRO_BACKEND", raising=False)

    @pytest.mark.parametrize("kernel", ("iv_a", "iv_b"))
    def test_price_vega_rho_equal_plain_runs(self, batch, kernel,
                                             backend, seed):
        """Prices are a plain run of the base set; vega/rho the central
        differences of plain runs of the four bump sets."""
        result = fused_greeks(batch, kernel, backend, seed)
        with PricingEngine(kernel=kernel,
                           config=EngineConfig(backend="numpy")) as engine:
            base, vol_up, vol_down, rate_up, rate_down = (
                engine.run(variants, STEPS).prices
                for variants in variant_sets(batch))
        np.testing.assert_array_equal(result.prices, base)
        np.testing.assert_array_equal(
            result.vega, (vol_up - vol_down) / (2.0 * BUMP_VOL))
        np.testing.assert_array_equal(
            result.rho, (rate_up - rate_down) / (2.0 * BUMP_RATE))

    @pytest.mark.parametrize("kernel", ("iv_a", "reference"))
    def test_all_columns_equal_scalar_oracle(self, batch, oracle, kernel,
                                             backend, seed):
        result = fused_greeks(batch, kernel, backend, seed)
        for field in GREEK_FIELDS:
            np.testing.assert_array_equal(getattr(result, field),
                                          oracle[field], err_msg=field)

    def test_iv_b_sensitivities_equal_level_capture(self, batch, backend,
                                                    seed):
        """Kernel IV.B delta/gamma/theta are the simulator's captured
        levels 1 and 2 of the base contracts, run bare."""
        result = fused_greeks(batch, "iv_b", backend, seed)
        prices, level1, level2 = simulate_kernel_b_batch(
            batch, STEPS, capture_levels=True)
        lattice = build_lattice_arrays(batch, STEPS, LatticeFamily.CRR)
        expected = greeks_from_levels(
            option_arrays(batch).spot, lattice.up, lattice.down,
            lattice.dt, prices, level1, level2)
        np.testing.assert_array_equal(result.prices, prices)
        for field, values in zip(("delta", "gamma", "theta"), expected):
            np.testing.assert_array_equal(getattr(result, field), values,
                                          err_msg=field)


class TestFiniteDifferenceParity:
    """Independent cross-check against central FD of price_binomial."""

    def fd(self, option, field, h):
        from dataclasses import replace
        hi = price_binomial(replace(
            option, **{field: getattr(option, field) + h}), STEPS).price
        lo = price_binomial(replace(
            option, **{field: getattr(option, field) - h}), STEPS).price
        return (hi - lo) / (2.0 * h)

    def test_vega_rho_match_fd(self, batch):
        """Vega/rho ARE central differences (same bumps), so they match
        FD of the reference pricer to parameter-builder noise."""
        result = repro.greeks(batch[:8], steps=STEPS, kernel="iv_b")
        for i, option in enumerate(batch[:8]):
            assert result.vega[i] == pytest.approx(
                self.fd(option, "volatility", 1e-3), abs=1e-5)
            assert result.rho[i] == pytest.approx(
                self.fd(option, "rate", 1e-4), abs=1e-4)

    def test_delta_gamma_match_fd(self, batch):
        """Lattice delta/gamma are secants over the level-1/2 node
        spread (~2 sigma sqrt(dt)) — they track spot-bump FD to the
        discretisation bias, not to machine precision."""
        result = repro.greeks(batch[:8], steps=STEPS, kernel="iv_b")
        for i, option in enumerate(batch[:8]):
            fd_delta = self.fd(option, "spot", option.spot * 1e-4)
            assert result.delta[i] == pytest.approx(fd_delta, abs=5e-2)
        assert np.all(result.gamma[:8] >= -1e-12)


class TestPoolParity:
    def test_pool_bit_identical_to_serial(self, batch):
        serial = repro.greeks(batch, steps=STEPS, kernel="iv_b")
        pooled = repro.greeks(batch, steps=STEPS, kernel="iv_b", workers=2)
        for field in GREEK_FIELDS:
            np.testing.assert_array_equal(getattr(serial, field),
                                          getattr(pooled, field))

    def test_heterogeneous_steps(self, batch):
        depths = [32 if i % 2 else 96 for i in range(len(batch))]
        result = repro.greeks(batch, steps=depths, kernel="iv_b")
        for i in (0, 1):
            oracle = lattice_greeks(batch[i], steps=depths[i])
            assert result.delta[i] == pytest.approx(oracle.delta,
                                                    abs=ORACLE_TOL)


class TestFailureHandling:
    def test_fused_failure_quarantines_whole_row(self, batch):
        """One fused task per option, so a poisoned option loses its
        whole greeks row and the record says so."""
        n = len(batch)
        plan = FaultPlan.single(2, FaultKind.NAN, attempts=ALWAYS)
        with PricingEngine(kernel="iv_b", faults=plan,
                           config=EngineConfig(max_retries=1,
                                               backoff_base_s=0.0)) as engine:
            run = engine.run_greeks(batch, STEPS)
        (record,) = run.failures
        assert record.index == 2
        assert "[fused greeks]" in record.message
        for field in GREEK_FIELDS:
            assert np.isnan(getattr(run, field)[2]), field
        # every other option is untouched and matches the clean run
        clean = repro.greeks(batch, steps=STEPS, kernel="iv_b")
        mask = np.ones(n, dtype=bool)
        mask[2] = False
        for field in GREEK_FIELDS:
            np.testing.assert_array_equal(getattr(run, field)[mask],
                                          getattr(clean, field)[mask])

    def test_strict_reraises(self, batch):
        plan = FaultPlan.single(0, FaultKind.NAN, attempts=ALWAYS)
        with PricingEngine(kernel="iv_b", faults=plan,
                           config=EngineConfig(max_retries=1,
                                               backoff_base_s=0.0)) as engine:
            run = engine.run_greeks(batch, STEPS)
        assert run.failures  # quarantined, engine-level is non-strict
        # the api wrapper re-raises under strict=True via its own engine;
        # here we assert the record carries enough to do so
        assert run.failures[0].error


class TestConfigValidation:
    def test_rejects_config_and_workers(self, batch):
        with pytest.raises(ReproError, match="not both"):
            repro.greeks(batch, config=EngineConfig(), workers=2)

    def test_rejects_nonpositive_bumps(self, batch):
        with PricingEngine(kernel="iv_b") as engine:
            with pytest.raises(ReproError):
                engine.run_greeks(batch, STEPS, bump_vol=0.0)
            with pytest.raises(ReproError):
                engine.run_greeks(batch, STEPS, bump_rate=-1e-4)
