"""Fault-tolerant execution: every injected fault has a deterministic outcome.

The reliability layer's contract, pinned mode by mode:

* a transient worker exception is retried and the batch stays
  bit-identical;
* a poison option is quarantined down to a single NaN price plus a
  structured ``FailureRecord`` — the other N-1 prices are untouched;
* a chunk still running at ``chunk_timeout_s`` is given up: its
  options come back NaN with ``ChunkTimeoutError`` records, and the
  hung thread's late result never reaches the returned run;
* a simulated crash (``KILL``) raises ``WorkerCrashError`` and is
  retried like any other failure;
* simulated transport failures (OpenCL queue, PCIe link) raise
  ``TransportFaultError`` on a seeded, reproducible schedule and are
  recoverable with ``retry_call``;
* closing the engine mid-run cancels the in-flight work, and its
  threads exit once the hung call returns.

``REPRO_FAULT_SEED`` offsets every seed used here; the CI
fault-injection job runs this file under three fixed values, separate
from tier-1, so a flake is attributable to a specific schedule.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.core.batch_sim import simulate_kernel_b_batch
from repro.engine import (
    ALWAYS,
    EngineConfig,
    FaultKind,
    FaultPlan,
    FaultSpec,
    PricingEngine,
    RetryPolicy,
    TransportFaultInjector,
    retry_call,
)
from repro.errors import (
    ChunkTimeoutError,
    EngineError,
    FinanceError,
    ReproError,
    TransportFaultError,
)
from repro.finance import Option, generate_batch

SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))
STEPS = 8
NO_BACKOFF = dict(backoff_base_s=0.0)


@pytest.fixture(scope="module")
def batch():
    return list(generate_batch(n_options=32, seed=77 + SEED).options)


@pytest.fixture(scope="module")
def expected(batch):
    return simulate_kernel_b_batch(batch, STEPS)


def run_with_faults(batch, plan, **config):
    with PricingEngine(config=EngineConfig(**{**NO_BACKOFF, **config}),
                       faults=plan) as engine:
        return engine.run(batch, STEPS)


def join_threads_started_since(before, timeout=10.0):
    """Join every thread not in ``before``; returns those still alive."""
    started = [thread for thread in threading.enumerate()
               if thread not in before
               and thread is not threading.current_thread()]
    for thread in started:
        thread.join(timeout)
    return [thread for thread in started if thread.is_alive()]


def assert_timed_out(result, indices, expected):
    """``indices`` came back NaN with ChunkTimeoutError records, and
    every other option is bit-identical to ``expected``."""
    mask = np.ones(len(expected), dtype=bool)
    mask[list(indices)] = False
    np.testing.assert_array_equal(result.prices[mask], expected[mask])
    assert np.isnan(result.prices[list(indices)]).all()
    timed_out = [f for f in result.failures if f.error == "ChunkTimeoutError"]
    assert [f.index for f in timed_out] == list(indices)
    assert all(isinstance(f.exception, ChunkTimeoutError) for f in timed_out)


class TestInjectedRaise:
    @pytest.mark.parametrize("workers", (1, 2))
    def test_transient_raise_is_retried(self, batch, expected, workers):
        plan = FaultPlan.single(3, FaultKind.RAISE, attempts=1, seed=SEED)
        result = run_with_faults(batch, plan, workers=workers,
                                 chunk_options=8, max_retries=2)
        np.testing.assert_array_equal(result.prices, expected)
        assert result.failures == ()
        assert result.stats.retries >= 1
        assert result.stats.quarantined_options == 0

    def test_persistent_raise_quarantines_one_option(self, batch, expected):
        plan = FaultPlan.single(6, FaultKind.RAISE, attempts=ALWAYS, seed=SEED)
        result = run_with_faults(batch, plan, chunk_options=8, max_retries=1)
        mask = np.ones(len(batch), dtype=bool)
        mask[6] = False
        np.testing.assert_array_equal(result.prices[mask], expected[mask])
        assert np.isnan(result.prices[6])
        (record,) = result.failures
        assert record.index == 6
        assert record.error == "EngineError"  # bare RuntimeError, normalised
        assert "InjectedFaultError" in record.message
        assert result.stats.quarantined_options == 1


class TestNaNPoison:
    @pytest.mark.parametrize("workers", (1, 2))
    def test_poison_option_returns_n_minus_1_prices(self, batch, expected,
                                                    workers):
        plan = FaultPlan.single(5, FaultKind.NAN, attempts=ALWAYS, seed=SEED)
        result = run_with_faults(batch, plan, workers=workers,
                                 chunk_options=8, max_retries=1)
        mask = np.ones(len(batch), dtype=bool)
        mask[5] = False
        np.testing.assert_array_equal(result.prices[mask], expected[mask])
        assert np.isnan(result.prices[5])
        (record,) = result.failures
        assert record.index == 5
        assert record.error == "PoisonChunkError"
        assert record.attempts >= 1
        assert result.stats.quarantined_options == 1
        assert result.stats.retries >= 1

    def test_transient_nan_heals_on_retry(self, batch, expected):
        plan = FaultPlan.single(5, FaultKind.NAN, attempts=1, seed=SEED)
        result = run_with_faults(batch, plan, chunk_options=8, max_retries=2)
        np.testing.assert_array_equal(result.prices, expected)
        assert result.failures == ()


class TestHangAndTimeout:
    def test_hung_chunk_is_given_up_at_the_timeout(self, batch, expected):
        # a hang that would heal on retry is still given up, not
        # retried: the thread holding it cannot be preempted
        plan = FaultPlan.single(0, FaultKind.HANG, attempts=1, hang_s=1.5,
                                seed=SEED)
        result = run_with_faults(batch, plan, workers=2, chunk_options=8,
                                 max_retries=2, chunk_timeout_s=0.3)
        assert_timed_out(result, range(8), expected)
        assert len(result.failures) == 8
        assert result.stats.timeouts == 1
        assert result.stats.retries == 0
        assert result.stats.quarantined_options == 0


class TestWorkerKill:
    def test_serial_path_simulates_kill_without_dying(self, batch, expected):
        plan = FaultPlan.single(0, FaultKind.KILL, attempts=1, seed=SEED)
        result = run_with_faults(batch, plan, workers=1, chunk_options=8,
                                 max_retries=2)
        np.testing.assert_array_equal(result.prices, expected)
        assert result.stats.retries >= 1


class TestAcceptanceScenario:
    """The ISSUE acceptance batch: crash + hang + poison, 1024 options."""

    def test_crash_hang_and_poison_in_one_batch(self):
        batch = list(generate_batch(n_options=1024, seed=3 + SEED).options)
        expected = simulate_kernel_b_batch(batch, STEPS)
        plan = FaultPlan(specs=(
            FaultSpec(option_index=0, kind=FaultKind.KILL, attempts=1),
            FaultSpec(option_index=100, kind=FaultKind.HANG, attempts=1,
                      hang_s=1.5),
            FaultSpec(option_index=500, kind=FaultKind.NAN, attempts=ALWAYS),
        ), seed=SEED)
        config = EngineConfig(workers=2, chunk_options=64, max_retries=1,
                              chunk_timeout_s=0.5, **NO_BACKOFF)
        before = set(threading.enumerate())
        with PricingEngine(config=config, faults=plan) as engine:
            result = engine.run(batch, STEPS)
        prices = result.prices.copy()
        failures = result.failures

        # the crash healed on retry; the hung chunk [64, 128) was given
        # up; the poison option was quarantined on its own
        expected[500] = np.nan
        assert_timed_out(result, range(64, 128), expected)
        poisoned = [f for f in result.failures if f.index == 500]
        assert [f.error for f in poisoned] == ["PoisonChunkError"]
        assert len(result.failures) == 64 + 1
        stats = result.stats
        assert stats.retries > 0
        assert stats.quarantined_options == 1
        assert stats.timeouts == 1

        # the hung thread wakes, prices its chunk and is dropped: the
        # run it was given up by does not change
        assert join_threads_started_since(before) == []
        np.testing.assert_array_equal(result.prices, prices)
        assert result.failures == failures


class TestSeededPlans:
    """FaultPlan.random is a pure function of its seed."""

    def test_same_seed_same_plan(self):
        a = FaultPlan.random(seed=SEED + 11, n_options=64, n_faults=3)
        b = FaultPlan.random(seed=SEED + 11, n_options=64, n_faults=3)
        assert a == b

    def test_random_poison_plan_quarantines_its_targets(self, batch,
                                                        expected):
        plan = FaultPlan.random(seed=SEED + 23, n_options=len(batch),
                                n_faults=2, kinds=(FaultKind.NAN,),
                                attempts=ALWAYS)
        targets = sorted(spec.option_index for spec in plan.specs)
        result = run_with_faults(batch, plan, chunk_options=8, max_retries=1)
        assert sorted(record.index for record in result.failures) == targets
        mask = np.ones(len(batch), dtype=bool)
        mask[targets] = False
        np.testing.assert_array_equal(result.prices[mask], expected[mask])
        assert np.isnan(result.prices[targets]).all()

    def test_random_transient_plan_heals(self, batch, expected):
        plan = FaultPlan.random(seed=SEED + 31, n_options=len(batch),
                                n_faults=3, kinds=(FaultKind.RAISE,),
                                attempts=1)
        result = run_with_faults(batch, plan, chunk_options=8, max_retries=2)
        np.testing.assert_array_equal(result.prices, expected)
        assert result.failures == ()


class TestBadMarketData:
    """A malformed option is isolated before it poisons the batch."""

    @staticmethod
    def _corrupt_option(value):
        """An Option whose spot bypassed construction validation, the
        way a row deserialised straight from a feed would."""
        from repro.finance import ExerciseStyle, OptionType

        bad = object.__new__(Option)
        fields = dict(spot=value, strike=100.0, rate=0.02, volatility=0.3,
                      maturity=1.0, option_type=OptionType.PUT,
                      exercise=ExerciseStyle.AMERICAN, dividend_yield=0.0)
        for name, field_value in fields.items():
            object.__setattr__(bad, name, field_value)
        return bad

    def test_option_construction_rejects_nan(self):
        with pytest.raises(FinanceError, match="spot must be finite"):
            Option(spot=float("nan"), strike=100.0, rate=0.02,
                   volatility=0.3, maturity=1.0)

    def test_option_arrays_names_offending_index(self):
        from repro.finance import option_arrays

        good = Option(spot=100.0, strike=100.0, rate=0.02,
                      volatility=0.3, maturity=1.0)
        with pytest.raises(FinanceError, match="option 1: spot"):
            option_arrays([good, self._corrupt_option(float("nan")), good])

    @pytest.mark.parametrize("value", (float("nan"), float("inf"), -5.0, 0.0))
    def test_option_arrays_rejects_every_bad_shape(self, value):
        from repro.finance import option_arrays

        with pytest.raises(FinanceError, match="option 0: spot"):
            option_arrays([self._corrupt_option(value)])

    def test_engine_quarantines_bad_option_without_retry_burn(self, batch,
                                                              expected):
        poisoned = list(batch)
        poisoned[4] = self._corrupt_option(float("nan"))
        plan = None
        result = run_with_faults(poisoned, plan, chunk_options=8,
                                 max_retries=3)
        mask = np.ones(len(batch), dtype=bool)
        mask[4] = False
        np.testing.assert_array_equal(result.prices[mask], expected[mask])
        assert np.isnan(result.prices[4])
        (record,) = result.failures
        assert record.index == 4
        assert record.error == "FinanceError"
        assert "spot" in record.message
        # FinanceError is deterministic: quarantine must not burn the
        # retry budget on it (3 retries x 5 bisection levels would)
        assert result.stats.retries == 0

    def test_strict_price_reraises_original_exception(self, batch):
        """price() keeps the pre-reliability exception contract: a
        quarantined option's original error type propagates (the
        implied-vol bracketing probes for FinanceError this way)."""
        poisoned = list(batch)
        poisoned[4] = self._corrupt_option(float("nan"))
        config = EngineConfig(chunk_options=8, **NO_BACKOFF)
        with PricingEngine(kernel="iv_b", config=config) as engine:
            with pytest.raises(FinanceError, match="spot"):
                engine.price(poisoned, STEPS)


class TestTransportFaults:
    def test_queue_transfer_fault_is_deterministic(self, toy_context):
        injector = TransportFaultInjector(seed=SEED, fail_transfers=(1,))
        queue = toy_context.create_queue(fault_injector=injector)
        buf = toy_context.create_buffer(8)
        data = np.arange(8, dtype=np.float64)
        queue.enqueue_write_buffer(buf, data)  # call 0: fine
        with pytest.raises(TransportFaultError) as excinfo:
            queue.enqueue_write_buffer(buf, data * 2.0)  # call 1: injected
        assert excinfo.value.code == "CL_OUT_OF_RESOURCES"
        # the failed transfer left the device untouched
        np.testing.assert_array_equal(buf._host_read(), data)

    def test_queue_launch_fault(self, toy_context):
        injector = TransportFaultInjector(seed=SEED, fail_launches=(0,))
        queue = toy_context.create_queue(fault_injector=injector)

        def noop(wi, data):
            pass

        kernel = toy_context.create_program({"noop": noop}).create_kernel(
            "noop")
        kernel.set_args(toy_context.create_buffer(4))
        with pytest.raises(TransportFaultError):
            queue.enqueue_nd_range_kernel(kernel, 4, 4)

    def test_link_fault_injection(self):
        from repro.devices import link
        from repro.opencl.types import TransferDirection

        pcie = link.PCIeLink(generation=2, lanes=4)
        injector = TransportFaultInjector(seed=SEED, fail_transfers=(0,))
        link.install_fault_injector(injector)
        try:
            with pytest.raises(TransportFaultError):
                pcie.transfer_ns(1024, TransferDirection.HOST_TO_DEVICE)
            # schedule moved on: the next transfer succeeds
            assert pcie.transfer_ns(
                1024, TransferDirection.HOST_TO_DEVICE) > 0
        finally:
            link.clear_fault_injector()
        assert link.installed_fault_injector() is None

    def test_seeded_rate_schedule_replays(self):
        def schedule(seed):
            injector = TransportFaultInjector(seed=seed,
                                              transfer_failure_rate=0.3)
            fired = []
            for call in range(50):
                try:
                    injector.on_transfer(64, "h2d")
                except TransportFaultError:
                    fired.append(call)
            return fired

        assert schedule(SEED + 5) == schedule(SEED + 5)
        assert len(schedule(SEED + 5)) > 0

    def test_retry_call_recovers_transient_transfer_fault(self, toy_context):
        injector = TransportFaultInjector(seed=SEED, fail_transfers=(0,))
        queue = toy_context.create_queue(fault_injector=injector)
        buf = toy_context.create_buffer(8)
        data = np.arange(8, dtype=np.float64)
        retries = []

        event = retry_call(
            lambda: queue.enqueue_write_buffer(buf, data),
            policy=RetryPolicy(max_retries=2, backoff_base_s=0.0),
            key="host-write",
            retry_on=(TransportFaultError,),
            on_retry=lambda attempt, exc: retries.append(attempt),
        )
        assert event.end_ns >= 0
        assert retries == [0]
        np.testing.assert_array_equal(buf._host_read(), data)

    def test_retry_call_gives_up_after_budget(self):
        policy = RetryPolicy(max_retries=1, backoff_base_s=0.0)

        def always_fails():
            raise TransportFaultError("permanent")

        with pytest.raises(TransportFaultError):
            retry_call(always_fails, policy=policy,
                       retry_on=(TransportFaultError,))


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_retries=3, backoff_base_s=0.05,
                             max_backoff_s=1.0)
        delays = [policy.backoff_s("chunk:0+8", k) for k in range(6)]
        assert delays == [policy.backoff_s("chunk:0+8", k) for k in range(6)]
        assert all(0.0 < d <= 1.0 for d in delays)
        # a different key decorrelates
        assert delays != [policy.backoff_s("chunk:8+8", k) for k in range(6)]

    def test_zero_base_disables_sleeping(self):
        policy = RetryPolicy(backoff_base_s=0.0)
        assert policy.backoff_s("any", 0) == 0.0

    def test_config_validation(self):
        with pytest.raises(ReproError, match="max_retries"):
            EngineConfig(max_retries=-1)
        with pytest.raises(ReproError, match="chunk_timeout_s"):
            EngineConfig(chunk_timeout_s=0.0)
        with pytest.raises(ReproError, match="backoff_base_s"):
            EngineConfig(backoff_base_s=-0.1)


class TestClampTimeout:
    """Deadline propagation from the serving layer into chunk timeouts."""

    def test_none_deadline_returns_self(self):
        policy = RetryPolicy(chunk_timeout_s=5.0)
        assert policy.clamp_timeout(None) is policy

    def test_deadline_tightens_an_unbounded_policy(self):
        policy = RetryPolicy(chunk_timeout_s=None)
        assert policy.clamp_timeout(0.5).chunk_timeout_s == 0.5

    def test_deadline_tightens_a_looser_timeout(self):
        policy = RetryPolicy(chunk_timeout_s=5.0)
        clamped = policy.clamp_timeout(0.25)
        assert clamped.chunk_timeout_s == 0.25
        # everything else carries over
        assert clamped.max_retries == policy.max_retries
        assert clamped.backoff_base_s == policy.backoff_base_s

    def test_already_tighter_timeout_wins(self):
        policy = RetryPolicy(chunk_timeout_s=0.1)
        assert policy.clamp_timeout(5.0) is policy

    def test_expired_deadline_floors_at_one_millisecond(self):
        policy = RetryPolicy(chunk_timeout_s=None)
        assert policy.clamp_timeout(-3.0).chunk_timeout_s == 1e-3
        assert policy.clamp_timeout(0.0).chunk_timeout_s == 1e-3

    def test_engine_run_applies_the_deadline_per_run(self, batch, expected):
        # deadline_s is a per-run view: one run with a deadline must not
        # leave the clamp behind for the next deadline-less run
        engine = PricingEngine(config=EngineConfig(workers=2,
                                                   chunk_options=8,
                                                   **NO_BACKOFF))
        try:
            bounded = engine.run(batch, STEPS, deadline_s=30.0)
            assert engine._active_policy.chunk_timeout_s == 30.0
            np.testing.assert_array_equal(bounded.prices, expected)
            unbounded = engine.run(batch, STEPS)
            assert (engine._active_policy.chunk_timeout_s
                    == engine._policy.chunk_timeout_s)
            np.testing.assert_array_equal(unbounded.prices, expected)
        finally:
            engine.close()

    def test_hung_chunk_times_out_against_the_deadline(self, batch,
                                                       expected):
        # the config carries NO chunk_timeout_s: the only bound on this
        # 3s hang is the per-run deadline.  The wedged chunk must be
        # given up at ~0.2s — the deadline never holds a flush hostage.
        # Note chunk_options < len(batch): a single-chunk run prices
        # inline, which cannot preempt itself.
        plan = FaultPlan.single(0, FaultKind.HANG, attempts=1,
                                hang_s=3.0, seed=SEED)
        engine = PricingEngine(
            config=EngineConfig(workers=2, chunk_options=8,
                                max_retries=2, backoff_base_s=0.0),
            faults=plan)
        try:
            started = time.monotonic()
            result = engine.run(batch, STEPS, deadline_s=0.2)
            wall = time.monotonic() - started
        finally:
            engine.close()
        assert result.stats.timeouts == 1
        assert_timed_out(result, range(8), expected)
        assert wall < 2.0, f"deadline did not bound the hang ({wall:.1f}s)"


class TestCloseDuringFlight:
    """Regression: close() used to block on in-flight chunks and leak
    the workers behind them."""

    def test_close_cancels_inflight_run_and_leaks_no_workers(self, batch):
        plan = FaultPlan.single(0, FaultKind.HANG, attempts=ALWAYS,
                                hang_s=2.0, seed=SEED)
        engine = PricingEngine(config=EngineConfig(workers=2, chunk_options=4,
                                                   **NO_BACKOFF),
                               faults=plan)
        errors = []
        before = set(threading.enumerate())

        def run():
            try:
                engine.run(batch[:16], STEPS)
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(0.5)  # let the threads spin up and the hang start

        start = time.monotonic()
        engine.close()
        close_wall = time.monotonic() - start
        thread.join(timeout=10.0)

        assert close_wall < 5.0, (
            f"close() blocked {close_wall:.1f}s behind a hung chunk")
        assert not thread.is_alive()
        assert errors and isinstance(errors[0], EngineError)
        # the hung pricing thread exits once its call returns
        assert join_threads_started_since(before) == []

    def test_closed_engine_refuses_new_runs_on_every_route(self, batch,
                                                           expected):
        # Reuse-after-close raises the same EngineError whether the
        # engine prices inline or on threads.
        engine = PricingEngine(config=EngineConfig(chunk_options=8,
                                                   **NO_BACKOFF))
        np.testing.assert_array_equal(engine.price(batch, STEPS), expected)
        engine.close()
        engine.close()  # double-close stays a no-op
        with pytest.raises(EngineError, match="closed"):
            engine.price(batch, STEPS)
        with pytest.raises(EngineError, match="closed"):
            engine.run(batch, STEPS)
        with pytest.raises(EngineError, match="closed"):
            engine.run_greeks(batch, STEPS)

        threaded = PricingEngine(config=EngineConfig(workers=2,
                                                     chunk_options=8,
                                                     **NO_BACKOFF))
        threaded.price(batch, STEPS)
        threaded.close()
        with pytest.raises(EngineError, match="closed"):
            threaded.price(batch, STEPS)
