"""Tests for the repro.api front door and the deprecation shims."""

import numpy as np
import pytest

import repro
from repro import PriceResult, price
from repro.core.accelerator import BinomialAccelerator
from repro.core.batch_sim import simulate_kernel_b_batch
from repro.engine import ALWAYS, EngineConfig, FaultKind, FaultPlan
from repro.engine.engine import PricingEngine
from repro.errors import FinanceError, ReproError
from repro.finance import generate_batch
from repro.finance import price_binomial

STEPS = 16


@pytest.fixture(scope="module")
def batch():
    return list(generate_batch(n_options=12, seed=99).options)


class TestEngineRoute:
    def test_default_route_is_engine(self, batch):
        result = price(batch, steps=STEPS)
        assert isinstance(result, PriceResult)
        assert result.route == "engine"
        assert result.stats is not None and result.modeled is None
        assert result.stats.options == len(batch)
        assert len(result) == len(batch)
        assert result.options_per_second == result.stats.options_per_second

    def test_reference_kernel_matches_scalar_pricer(self, batch):
        prices = price(batch, steps=STEPS).prices
        expected = [price_binomial(o, STEPS).price for o in batch]
        assert np.allclose(prices, expected, rtol=1e-12, atol=1e-12)

    def test_iv_b_kernel_matches_simulator(self, batch):
        result = price(batch, steps=STEPS, kernel="iv_b")
        assert np.array_equal(result.prices,
                              simulate_kernel_b_batch(batch, STEPS))

    def test_workers_shorthand(self, batch):
        result = price(batch, steps=STEPS, workers=2)
        assert result.stats.workers == 2

    def test_config_and_workers_conflict(self, batch):
        with pytest.raises(ReproError):
            price(batch, steps=STEPS, workers=2,
                  config=EngineConfig(workers=2))

    def test_empty_batch(self):
        result = price([], steps=STEPS)
        assert len(result) == 0 and result.route == "engine"
        assert result.options_per_second is None

    def test_single_precision(self, batch):
        single = price(batch, steps=STEPS, kernel="iv_b",
                       precision="single").prices
        double = price(batch, steps=STEPS, kernel="iv_b").prices
        assert not np.array_equal(single, double)

    def test_strict_reraises_original_exception(self, batch):
        bad = batch[:4]
        plan = FaultPlan.single(1, FaultKind.RAISE, attempts=ALWAYS, seed=0)
        with PricingEngine(kernel="iv_b",
                           config=EngineConfig(backoff_base_s=0.0,
                                               max_retries=1),
                           faults=plan) as engine:
            result = engine.run(bad, STEPS)
        # the engine quarantines; the strict façade on the same input
        # class re-raises instead (here via invalid market data, which
        # the façade cannot pre-screen)
        assert len(result.failures) == 1

    @staticmethod
    def _poison(batch, index):
        """Swap in an Option whose NaN spot bypassed construction
        validation, the way a row deserialised from a feed would."""
        from repro.finance import ExerciseStyle, Option, OptionType

        bad = object.__new__(Option)
        fields = dict(spot=float("nan"), strike=100.0, rate=0.02,
                      volatility=0.3, maturity=1.0,
                      option_type=OptionType.PUT,
                      exercise=ExerciseStyle.AMERICAN, dividend_yield=0.0)
        for name, value in fields.items():
            object.__setattr__(bad, name, value)
        poisoned = list(batch)
        poisoned[index] = bad
        return poisoned

    def test_strict_raises_on_bad_market_data(self, batch):
        with pytest.raises(FinanceError):
            price(self._poison(batch, 3), steps=STEPS, kernel="iv_b")

    def test_non_strict_returns_nan_plus_records(self, batch):
        result = price(self._poison(batch, 3), steps=STEPS, kernel="iv_b",
                       strict=False)
        assert np.isnan(result.prices[3])
        assert len(result.failures) == 1
        assert result.failures[0].index == 3
        clean = np.delete(result.prices, 3)
        assert np.all(np.isfinite(clean))


class TestAcceleratorRoute:
    def test_fpga_device(self, batch):
        result = price(batch, steps=STEPS, device="fpga")
        assert result.route == "accelerator"
        assert result.modeled is not None and result.stats is None
        assert result.modeled.energy_joules > 0
        assert result.options_per_second == result.modeled.options_per_second

    def test_cpu_device_defaults_to_reference(self, batch):
        result = price(batch, steps=STEPS, device="cpu")
        expected = [price_binomial(o, STEPS).price for o in batch]
        assert np.allclose(result.prices, expected, rtol=1e-12, atol=1e-12)

    def test_existing_accelerator_not_closed(self, batch):
        acc = BinomialAccelerator(platform="fpga", kernel="iv_b",
                                  steps=STEPS)
        try:
            first = price(batch, steps=STEPS, device=acc)
            second = price(batch, steps=STEPS, device=acc)  # still usable
            assert np.array_equal(first.prices, second.prices)
        finally:
            acc.close()

    def test_unknown_device_rejected(self, batch):
        with pytest.raises(ReproError):
            price(batch, steps=STEPS, device="asic")

    def test_per_option_steps_rejected(self, batch):
        with pytest.raises(ReproError):
            price(batch, steps=[STEPS] * len(batch), device="fpga")


class TestPackageSurface:
    def test_price_exported_at_top_level(self):
        assert repro.price is price
        assert repro.PriceResult is PriceResult
        assert "price" in repro.__all__

    def test_migration_table_in_docstring(self):
        import repro.api
        assert "price_binomial_batch" in repro.api.__doc__
        assert "Migration" in repro.api.__doc__


class TestRemovedWrappers:
    def test_facade_covers_legacy_precisions(self, batch):
        double = price(batch, steps=STEPS).prices
        single = price(batch, steps=STEPS, precision="single").prices
        assert double.shape == single.shape == (len(batch),)
        assert np.all(np.isfinite(double))


class TestPricingRequest:
    def _request(self, batch, **overrides):
        from repro.api import PricingRequest
        kwargs = dict(options=tuple(batch), steps=STEPS, kernel="iv_b")
        kwargs.update(overrides)
        return PricingRequest(**kwargs)

    def test_canonical_fields(self, batch):
        request = self._request(batch)
        assert len(request) == len(batch)
        assert request.steps_per_option() == tuple([STEPS] * len(batch))
        assert request.batch_key == ("iv_b", "double", "crr", "auto",
                                     "price")

    def test_greeks_key_includes_bumps(self, batch):
        request = self._request(batch, task="greeks", bump_vol=2e-3)
        assert request.batch_key[-2:] == (2e-3, 1e-4)

    def test_batch_key_includes_backend(self, batch):
        pinned = self._request(batch, backend="numpy")
        assert pinned.batch_key == ("iv_b", "double", "crr", "numpy",
                                    "price")
        assert pinned.batch_key != self._request(batch).batch_key

    def test_per_option_steps(self, batch):
        depths = tuple(range(2, 2 + len(batch)))
        request = self._request(batch, steps=depths)
        assert request.steps_per_option() == depths

    @pytest.mark.parametrize("overrides", [
        {"options": ()},
        {"kernel": "nope"},
        {"task": "nope"},
        {"steps": 1},                       # iv_b needs >= 2
        {"task": "greeks", "steps": 2},     # greeks needs >= 3
        {"steps": (16,)},                   # length mismatch
        {"workers": 0},
        {"backend": "nope"},
        {"task": "greeks_fused"},           # internal scheduling shape
        {"task": "greeks", "bump_vol": 0.0},
        {"kernel": "iv_b", "family": "jarrow-rudd"},
        {"family": "nope"},
        {"deadline_ms": 0.0},
        {"deadline_ms": -5.0},
        {"priority": "urgent"},
    ])
    def test_validation(self, batch, overrides):
        with pytest.raises(ReproError):
            self._request(batch, **overrides)

    def test_delivery_knobs_stay_out_of_batch_key(self, batch):
        # deadline and priority shape delivery, never the numbers —
        # requests differing only there must coalesce together
        plain = self._request(batch)
        urgent = self._request(batch, deadline_ms=250.0, priority="high")
        assert plain.batch_key == urgent.batch_key

    def test_run_request_matches_price(self, batch):
        from repro.api import run_request
        from repro.engine.engine import PricingEngine

        request = self._request(batch)
        with PricingEngine(kernel="iv_b") as engine:
            result = run_request(engine, request)
        assert np.array_equal(result.prices,
                              price(batch, steps=STEPS, kernel="iv_b").prices)


class TestResultHierarchy:
    def test_shared_batch_result_base(self, batch):
        from repro import BatchResult, GreeksResult, ServiceResult
        from repro.api import greeks

        assert issubclass(PriceResult, BatchResult)
        assert issubclass(GreeksResult, BatchResult)
        assert issubclass(ServiceResult, BatchResult)

        priced = price(batch, steps=STEPS)
        bumped = greeks(batch, steps=STEPS)
        for result in (priced, bumped):
            assert isinstance(result, BatchResult)
            assert len(result) == len(batch)
            assert result.failures == ()
            assert result.options_per_second > 0

    def test_greeks_columns(self, batch):
        from repro.api import greeks

        result = greeks(batch, steps=STEPS, kernel="iv_b")
        for column in ("delta", "gamma", "theta", "vega", "rho"):
            assert getattr(result, column).shape == (len(batch),)


class TestSharedEngines:
    def test_repeat_calls_reuse_one_engine(self, batch):
        from repro.api import _shared_engines, close_shared_engines

        close_shared_engines()
        price(batch, steps=STEPS, kernel="iv_b")
        engines = dict(_shared_engines)
        price(batch, steps=STEPS, kernel="iv_b")
        assert dict(_shared_engines) == engines  # no rebuild
        assert close_shared_engines() == 1
        assert not _shared_engines

    def test_closed_shared_engine_is_rebuilt(self, batch):
        from repro.api import _shared_engines, close_shared_engines

        close_shared_engines()
        first = price(batch, steps=STEPS, kernel="iv_b").prices
        for engine, _lock in _shared_engines.values():
            engine.close()
        second = price(batch, steps=STEPS, kernel="iv_b").prices
        assert np.array_equal(first, second)
        close_shared_engines()

    def test_caller_engine_route(self, batch):
        from repro.api import greeks
        from repro.engine.engine import PricingEngine

        with PricingEngine(kernel="iv_b") as engine:
            result = price(batch, steps=STEPS, engine=engine)
            again = greeks(batch, steps=STEPS, engine=engine)
            assert not engine.closed  # the facade borrows, never closes
        assert np.array_equal(result.prices,
                              price(batch, steps=STEPS, kernel="iv_b").prices)
        assert again.delta is not None

    def test_engine_conflicts_with_config(self, batch):
        from repro.engine.engine import PricingEngine

        with PricingEngine(kernel="iv_b") as engine:
            with pytest.raises(ReproError):
                price(batch, steps=STEPS, engine=engine, workers=2)

    def test_close_shared_engines_is_registered_atexit(self):
        # a fresh interpreter, so the import-time registration is
        # observable without reloading repro.api in this process
        import os
        import subprocess
        import sys

        code = (
            "import atexit\n"
            "names = []\n"
            "real = atexit.register\n"
            "def spy(fn, *args, **kwargs):\n"
            "    names.append(getattr(fn, '__name__', '?'))\n"
            "    return real(fn, *args, **kwargs)\n"
            "atexit.register = spy\n"
            "import repro.api\n"
            "assert 'close_shared_engines' in names, names\n"
        )
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ), capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr

    def test_manual_close_is_idempotent_with_atexit(self, batch):
        from repro.api import _shared_engines, close_shared_engines

        close_shared_engines()
        price(batch, steps=STEPS, kernel="iv_b")
        assert close_shared_engines() == 1
        # the second (atexit-time) invocation finds nothing and is a
        # clean no-op — double shutdown must never raise
        assert close_shared_engines() == 0
        assert not _shared_engines
