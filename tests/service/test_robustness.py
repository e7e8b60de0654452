"""Service robustness: deadlines, cancellation, shedding, health.

The serving contract under stress, deterministic by construction:
where a test needs the coalescer to be mid-flush it blocks the flush
on an event instead of racing timers, and where chaos drives the
health machinery the schedules come from a frozen
:class:`~repro.service.ChaosPlan`.
"""

import threading
import time

import numpy as np
import pytest

import repro.service.service as service_module
from repro.api import PricingRequest
from repro.engine import EngineConfig, FaultKind, FaultPlan
from repro.errors import (
    DeadlineExceededError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.finance import generate_batch
from repro.service import (
    ChaosPlan,
    HealthPolicy,
    HealthState,
    PricingService,
    ServiceConfig,
)

STEPS = 16
KERNEL = "iv_b"
WAIT = 10.0


@pytest.fixture(scope="module")
def batch():
    return tuple(generate_batch(n_options=12, seed=33).options)


def _request(options, **overrides):
    kwargs = dict(options=tuple(options), steps=STEPS, kernel=KERNEL,
                  backend="numpy")
    kwargs.update(overrides)
    return PricingRequest(**kwargs)


class _BlockedFlush:
    """Hold the coalescer inside ``_flush`` until released."""

    def __init__(self, service):
        self.entered = threading.Event()
        self.release = threading.Event()
        original = service._flush

        def blocked(bucket, reason):
            self.entered.set()
            assert self.release.wait(WAIT)
            original(bucket, reason)

        service._flush = blocked


class TestDeadlines:
    def test_in_bucket_expiry_without_engine_work(self, batch):
        # the bucket would wait 10s; a 1 ms budget must expire first,
        # before any flush claims an engine
        config = ServiceConfig(max_wait_ms=10_000.0)
        with PricingService(config) as service:
            future = service.submit(_request(batch[:2], deadline_ms=1.0))
            with pytest.raises(DeadlineExceededError, match="expired"):
                future.result(timeout=WAIT)
            deadline = time.monotonic() + WAIT
            while (service.stats().deadline_expired == 0
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            stats = service.close()
        assert stats.deadline_expired == 1
        assert stats.flushes == 0  # no engine work was spent on it

    def test_in_queue_expiry_while_coalescer_is_busy(self, batch):
        config = ServiceConfig(max_wait_ms=0.0)
        service = PricingService(config)
        try:
            gate = _BlockedFlush(service)
            filler = service.submit(_request(batch[:1]))
            assert gate.entered.wait(WAIT)
            # queued behind the blocked flush with a budget already spent
            doomed = service.submit(_request(batch[1:3], deadline_ms=5.0))
            time.sleep(0.02)
            gate.release.set()
            with pytest.raises(DeadlineExceededError,
                               match="in the admission queue"):
                doomed.result(timeout=WAIT)
            assert filler.result(timeout=WAIT).prices.shape == (1,)
        finally:
            stats = service.close()
        assert stats.deadline_expired == 1
        assert stats.flushes == 1  # only the filler reached an engine

    def test_live_deadline_bounds_the_flush_chunk_timeout(self, batch,
                                                          monkeypatch):
        seen = {}
        original = service_module.run_request

        def spy(engine, request, deadline_s=None):
            seen["deadline_s"] = deadline_s
            return original(engine, request, deadline_s=deadline_s)

        monkeypatch.setattr(service_module, "run_request", spy)
        with PricingService(ServiceConfig(max_wait_ms=1.0)) as service:
            result = service.submit(
                _request(batch[:2], deadline_ms=5_000.0)).result(timeout=WAIT)
        assert result.prices.shape == (2,)
        assert seen["deadline_s"] is not None
        assert 0.0 < seen["deadline_s"] <= 5.0

    def test_no_deadline_propagates_none(self, batch, monkeypatch):
        seen = {}
        original = service_module.run_request

        def spy(engine, request, deadline_s=None):
            seen["deadline_s"] = deadline_s
            return original(engine, request, deadline_s=deadline_s)

        monkeypatch.setattr(service_module, "run_request", spy)
        with PricingService(ServiceConfig(max_wait_ms=1.0)) as service:
            service.submit(_request(batch[:2])).result(timeout=WAIT)
        assert seen["deadline_s"] is None

    def test_deadline_is_a_delivery_knob_not_identity(self, batch):
        plain = _request(batch[:2])
        tight = _request(batch[:2], deadline_ms=60_000.0, priority="high")
        from repro.service import request_key
        assert request_key(plain) == request_key(tight)
        assert plain.batch_key == tight.batch_key


class TestCancellation:
    def test_cancel_before_flush_is_honoured(self, batch):
        config = ServiceConfig(max_wait_ms=10_000.0)
        with PricingService(config) as service:
            future = service.submit(_request(batch[:2]))
            assert future.cancel()
            assert service.drain(timeout_s=WAIT)
            assert future.cancelled()
            assert service.stats().cancelled == 1
            assert service.stats().flushes == 0

    def test_cancelled_primary_promotes_its_follower(self, batch):
        config = ServiceConfig(max_wait_ms=10_000.0)
        with PricingService(config) as service:
            primary = service.submit(_request(batch[:3]))
            follower = service.submit(_request(batch[:3]))
            assert service.stats().inflight_joins == 1
            assert primary.cancel()
            assert service.drain(timeout_s=WAIT)
            result = follower.result(timeout=WAIT)
            stats = service.close()
        assert result.prices.shape == (3,)
        assert primary.cancelled()
        assert stats.cancelled == 1
        assert stats.flushes == 1  # the computation still ran, once


class TestPriorityShedding:
    def test_high_priority_sheds_the_oldest_normal_entry(self, batch):
        config = ServiceConfig(max_wait_ms=0.0, max_queue=3)
        service = PricingService(config)
        try:
            gate = _BlockedFlush(service)
            filler = service.submit(_request(batch[:1]))
            assert gate.entered.wait(WAIT)
            normals = [service.submit(_request(batch[i:i + 1]))
                       for i in range(1, 4)]  # queue now full
            high = service.submit(_request(batch[4:5], priority="high"))
            # the oldest normal entry carried the overload error away
            with pytest.raises(ServiceOverloadedError, match="shed"):
                normals[0].result(timeout=WAIT)
            # a normal submit against the still-full queue is rejected
            with pytest.raises(ServiceOverloadedError, match="full"):
                service.submit(_request(batch[5:6]))
            gate.release.set()
            for future in (filler, high, *normals[1:]):
                assert future.result(timeout=WAIT).prices.shape == (1,)
        finally:
            stats = service.close()
        assert stats.shed == 1
        assert stats.rejected == 1

    def test_high_priority_with_nothing_to_shed_is_rejected(self, batch):
        config = ServiceConfig(max_wait_ms=0.0, max_queue=2)
        service = PricingService(config)
        try:
            gate = _BlockedFlush(service)
            filler = service.submit(_request(batch[:1]))
            assert gate.entered.wait(WAIT)
            highs = [service.submit(_request(batch[i:i + 1], priority="high"))
                     for i in range(1, 3)]  # queue full of high entries
            with pytest.raises(ServiceOverloadedError,
                               match="no normal-priority entries"):
                service.submit(_request(batch[3:4], priority="high"))
            gate.release.set()
            for future in (filler, *highs):
                assert future.result(timeout=WAIT).prices.shape == (1,)
        finally:
            stats = service.close()
        assert stats.shed == 0
        assert stats.rejected == 1


class TestHealthAndSupervision:
    def test_flush_failures_degrade_then_unhealthy(self, batch):
        # every merged flush fails; individual re-runs still answer, so
        # callers see correct prices while health walks to UNHEALTHY
        config = ServiceConfig(
            max_wait_ms=0.0,
            chaos=ChaosPlan(seed=7, fail_every=1),
            health=HealthPolicy(unhealthy_consecutive_failures=3),
        )
        direct = []
        states = []
        with PricingService(config) as service:
            for i in range(3):
                request = _request(batch[i:i + 2])
                result = service.submit(request).result(timeout=WAIT)
                direct.append(result.prices)
                states.append(service.health().state)
            assert not service.ready
            report = service.health()
            stats = service.close()
        assert states[0] is HealthState.DEGRADED
        assert states[-1] is HealthState.UNHEALTHY
        assert report.failures == 3
        assert stats.health == "unhealthy"
        assert stats.health_transitions >= 2
        # parity under chaos is the acceptance suite's job; here the
        # shapes confirm every caller still got an answer
        assert all(p.shape == (2,) for p in direct)

    def test_wedge_restarts_engine_until_budget_exhausted(self, batch):
        config = ServiceConfig(
            max_wait_ms=0.0,
            chaos=ChaosPlan(seed=7, wedge_every=1),
            health=HealthPolicy(restart_limit=1, restart_backoff_s=0.0),
        )
        with PricingService(config) as service:
            first = service.submit(_request(batch[:2])).result(timeout=WAIT)
            assert service.stats().engine_restarts == 1
            # second wedge finds the budget spent: pinned UNHEALTHY
            second = service.submit(_request(batch[2:4])).result(timeout=WAIT)
            assert not service.ready
            report = service.health()
            # still answering while unhealthy (honest unreadiness, not
            # an outage) — and no further restarts are attempted
            third = service.submit(_request(batch[4:6])).result(timeout=WAIT)
            stats = service.close()
        assert first.prices.shape == second.prices.shape == (2,)
        assert third.prices.shape == (2,)
        assert report.restart_budget_exhausted
        assert report.state is HealthState.UNHEALTHY
        assert stats.engine_restarts == 1
        assert stats.health == "unhealthy"

    def test_engine_timeout_swaps_the_engine(self, batch):
        # a chunk given up on timeout may still hold one of the engine's
        # threads: the service replaces that engine instead of pricing
        # on a short-handed one
        config = ServiceConfig(
            max_wait_ms=0.0,
            faults=FaultPlan.single(0, FaultKind.HANG, hang_s=1.0),
            engine_config=EngineConfig(workers=2, chunk_options=2,
                                       chunk_timeout_s=0.2,
                                       backoff_base_s=0.0),
            health=HealthPolicy(restart_backoff_s=0.0),
        )
        with PricingService(config) as service:
            result = service.submit(
                _request(batch[:4], strict=False)).result(timeout=WAIT)
            stats = service.close()
        assert result.stats.timeouts == 1
        assert [f.error for f in result.failures] == ["ChunkTimeoutError"] * 2
        assert np.isnan(result.prices[:2]).all()
        assert np.isfinite(result.prices[2:]).all()
        assert stats.engine_restarts == 1

    def test_restart_backoff_is_slept(self, batch, monkeypatch):
        slept = []
        monkeypatch.setattr(service_module.time, "sleep",
                            lambda s: slept.append(s))
        config = ServiceConfig(
            max_wait_ms=0.0,
            chaos=ChaosPlan(seed=7, wedge_every=1),
            health=HealthPolicy(restart_limit=2, restart_backoff_s=0.01),
        )
        with PricingService(config) as service:
            service.submit(_request(batch[:1])).result(timeout=WAIT)
            service.submit(_request(batch[1:2])).result(timeout=WAIT)
        assert 0.01 in slept  # first restart: base backoff
        assert 0.02 in slept  # second restart: doubled

    def test_ready_reflects_open_and_health(self, batch):
        service = PricingService(ServiceConfig(max_wait_ms=1.0))
        assert service.ready
        service.close()
        assert not service.ready


class TestDrain:
    def test_drain_flushes_partial_buckets_and_stays_open(self, batch):
        config = ServiceConfig(max_wait_ms=60_000.0)
        with PricingService(config) as service:
            futures = [service.submit(_request(batch[i:i + 1]))
                       for i in range(3)]
            assert service.drain(timeout_s=WAIT)
            assert all(future.done() for future in futures)
            assert not service.closed
            # still serving after the quiesce checkpoint
            late = service.submit(_request(batch[4:6]))
            assert service.drain(timeout_s=WAIT)
            late_result = late.result(timeout=WAIT)
            stats = service.close()
        assert late_result.prices.shape == (2,)
        assert stats.flush_drain >= 1
        prices = np.array([f.result().prices[0] for f in futures])
        assert np.all(np.isfinite(prices))

    def test_drain_on_closed_service_is_true(self):
        service = PricingService()
        service.close()
        assert service.drain(timeout_s=1.0)

    def test_drain_timeout_returns_false(self, batch):
        service = PricingService(ServiceConfig(max_wait_ms=0.0))
        try:
            gate = _BlockedFlush(service)
            future = service.submit(_request(batch[:1]))
            assert gate.entered.wait(WAIT)
            assert service.drain(timeout_s=0.05) is False
            gate.release.set()
            assert future.result(timeout=WAIT).prices.shape == (1,)
            assert service.drain(timeout_s=WAIT)
        finally:
            service.close()


class TestValidation:
    def test_deadline_must_be_positive(self, batch):
        with pytest.raises(Exception, match="deadline_ms"):
            _request(batch[:1], deadline_ms=0.0)

    def test_priority_must_be_known(self, batch):
        with pytest.raises(Exception, match="priority"):
            _request(batch[:1], priority="urgent")

    def test_health_policy_validation(self):
        with pytest.raises(ServiceError):
            HealthPolicy(window=0)
        with pytest.raises(ServiceError):
            HealthPolicy(degraded_failure_rate=1.5)
        with pytest.raises(ServiceError):
            HealthPolicy(restart_limit=-1)

    def test_chaos_plan_validation(self):
        with pytest.raises(ServiceError):
            ChaosPlan(stall_every=-1)
        with pytest.raises(ServiceError):
            ChaosPlan(stall_s=-0.1)


class _FlushDepthProbe:
    """Block the first flush; record the queue-depth gauge at the
    entry of every later flush.

    The gauge contract is that it reflects the *current* queue depth
    at every transition, so a flush — which runs strictly after its
    entries were dequeued — must always observe the post-dequeue
    value.
    """

    def __init__(self, service):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.depths = []
        self._service = service
        self._first = True
        original = service._flush

        def wrapped(bucket, reason):
            if self._first:
                self._first = False
                self.entered.set()
                assert self.release.wait(WAIT)
            else:
                self.depths.append(service.metrics.queue_depth.value())
            original(bucket, reason)

        service._flush = wrapped


class TestQueueDepthGauge:
    def test_gauge_current_at_flush_entry(self, batch):
        # max_batch=1: every request full-flushes inside the dequeue
        # loop, i.e. *before* any end-of-loop bookkeeping could paper
        # over a stale gauge.
        config = ServiceConfig(max_wait_ms=10_000.0, max_batch=1)
        service = PricingService(config)
        try:
            probe = _FlushDepthProbe(service)
            filler = service.submit(_request(batch[:1]))
            assert probe.entered.wait(WAIT)
            # The coalescer is pinned inside the filler's flush, so
            # these two sit in the queue untouched.
            second = service.submit(_request(batch[1:2]))
            third = service.submit(_request(batch[2:3]))
            assert service.metrics.queue_depth.value() == 2.0
            probe.release.set()
            for future in (filler, second, third):
                future.result(timeout=WAIT)
            # By the time either follow-up flush started, both entries
            # had been dequeued: the gauge must have said 0, not the
            # last submit-time snapshot.
            assert probe.depths == [0.0, 0.0]
        finally:
            service.close()

    def test_gauge_returns_to_zero_after_drain(self, batch):
        # Exercise the transitions that bypass a plain dequeue: a shed
        # (removed by a high-priority put), a caller-side cancel and an
        # in-queue deadline expiry all must leave the gauge honest.
        # max_batch=1: the filler flushes as it is dequeued instead of
        # waiting out the 10 s coalescing window.
        config = ServiceConfig(max_wait_ms=10_000.0, max_queue=2,
                               max_batch=1)
        service = PricingService(config)
        try:
            gate = _BlockedFlush(service)
            filler = service.submit(_request(batch[:1]))
            assert gate.entered.wait(WAIT)
            shed_me = service.submit(_request(batch[1:2]))
            cancel_me = service.submit(
                _request(batch[2:3], deadline_ms=1.0))
            assert service.metrics.queue_depth.value() == 2.0
            high = service.submit(
                _request(batch[3:4], priority="high"))
            with pytest.raises(ServiceOverloadedError):
                shed_me.result(timeout=WAIT)
            # One shed out, one high-priority in: still exactly two.
            assert service.metrics.queue_depth.value() == 2.0
            cancel_me.cancel()
            gate.release.set()
            filler.result(timeout=WAIT)
            # drain() flushes the high entry's bucket (its 10 s
            # coalescing window would otherwise still be open).
            assert service.drain(timeout_s=WAIT)
            high.result(timeout=WAIT)
            assert service.metrics.queue_depth.value() == 0.0
        finally:
            service.close()


class TestPostFlushDeadlineSymmetry:
    def test_primary_expires_when_flush_outlives_deadline(
            self, batch, monkeypatch):
        # The flush computes the answer in time but delivery is late:
        # the primary (claimed at flush) must get the same post-flush
        # deadline check as a joined follower would.
        real_run = service_module.run_request

        def slow_run(engine, request, deadline_s=None):
            result = real_run(engine, request, deadline_s=deadline_s)
            time.sleep(0.12)
            return result

        monkeypatch.setattr(service_module, "run_request", slow_run)
        with PricingService(ServiceConfig(max_wait_ms=0.0)) as service:
            future = service.submit(_request(batch[:2], deadline_ms=60.0))
            with pytest.raises(DeadlineExceededError,
                               match="flush was executing"):
                future.result(timeout=WAIT)
            deadline = time.monotonic() + WAIT
            while (service.stats().deadline_expired == 0
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            stats = service.close()
        assert stats.deadline_expired == 1
        # Engine work *was* spent — enforcement is post-flush, unlike
        # the pre-flush expiry path which costs no flush at all.
        assert stats.flushes == 1
