"""Tests for the PricingService: coalescing, caching, scoping, lifecycle."""

import threading

import numpy as np
import pytest

import repro.api as api
import repro.service.service as service_module
from repro.api import PricingRequest, ServiceResult
from repro.engine.engine import PricingEngine
from repro.errors import (
    FinanceError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.finance import ExerciseStyle, Option, OptionType, generate_batch
from repro.obs import keys as obs_keys
from repro.obs.metrics import Snapshot
from repro.service import PricingService, ServiceConfig

STEPS = 16
KERNEL = "iv_b"
WAIT = 10.0  # future.result timeout — generous, never reached when green


@pytest.fixture(scope="module")
def batch():
    return tuple(generate_batch(n_options=8, seed=21).options)


@pytest.fixture(scope="module")
def direct_prices(batch):
    with PricingEngine(kernel=KERNEL) as engine:
        return engine.run(list(batch), STEPS).prices


def _single_requests(batch, **overrides):
    kwargs = dict(steps=STEPS, kernel=KERNEL)
    kwargs.update(overrides)
    return [PricingRequest(options=(option,), **kwargs) for option in batch]


def _filler(batch):
    """A request distinct from every ``_single_requests`` entry (other
    depth) to occupy the coalescer while the real ones queue up."""
    return PricingRequest(options=batch[:1], steps=STEPS + 2, kernel=KERNEL)


def _poison_option():
    """An Option whose NaN spot bypassed construction validation."""
    bad = object.__new__(Option)
    fields = dict(spot=float("nan"), strike=100.0, rate=0.02,
                  volatility=0.3, maturity=1.0,
                  option_type=OptionType.PUT,
                  exercise=ExerciseStyle.AMERICAN, dividend_yield=0.0)
    for name, value in fields.items():
        object.__setattr__(bad, name, value)
    return bad


class TestCoalescing:
    def test_full_flush_merges_the_bucket(self, batch, direct_prices,
                                          blocked_flush):
        config = ServiceConfig(max_batch=len(batch))
        with PricingService(config) as service:
            gate = blocked_flush(service)
            filler = service.submit(_filler(batch))
            assert gate.entered.wait(WAIT)
            futures = [service.submit(request)
                       for request in _single_requests(batch)]
            gate.release.set()
            results = [future.result(timeout=WAIT) for future in futures]
            assert filler.result(timeout=WAIT).batch_options == 1
            stats = service.stats()
        prices = np.array([result.prices[0] for result in results])
        assert np.array_equal(prices, direct_prices)
        assert stats.flushes == 2  # the filler's, then one full flush
        assert stats.flush_full == 1
        for result in results:
            assert isinstance(result, ServiceResult)
            assert result.route == "service"
            assert result.batch_options == len(batch)
            assert not result.cache_hit

    def test_deadline_flush_releases_underfull_bucket(self, batch,
                                                      direct_prices):
        # under-full buckets leave once the queue is empty: no timer,
        # no close() needed
        config = ServiceConfig(max_batch=10_000)
        with PricingService(config) as service:
            futures = [service.submit(request)
                       for request in _single_requests(batch[:4])]
            results = [future.result(timeout=WAIT) for future in futures]
            stats = service.stats()
        prices = np.array([result.prices[0] for result in results])
        assert np.array_equal(prices, direct_prices[:4])
        assert stats.flush_deadline >= 1 and stats.flush_full == 0

    def test_close_drains_partial_buckets(self, batch, direct_prices,
                                          blocked_flush):
        service = PricingService(ServiceConfig(max_batch=10_000))
        gate = blocked_flush(service)
        service.submit(_filler(batch))
        assert gate.entered.wait(WAIT)
        futures = [service.submit(request)
                   for request in _single_requests(batch)]
        gate.release_after_next_token()
        stats = service.close()
        prices = np.array([future.result(timeout=WAIT).prices[0]
                           for future in futures])
        assert np.array_equal(prices, direct_prices)
        assert stats.flush_drain == 1

    def test_default_config_never_holds_a_lone_request(self, batch):
        # Work-conserving: once the queue is empty a bucket flushes,
        # so a lone request never waits for company.
        with PricingService() as service:
            for request in _single_requests(batch[:3]):
                result = service.submit(request).result(timeout=WAIT)
                assert result.batch_options == 1
            stats = service.stats()
        assert stats.flushes == stats.flush_deadline == 3

    def test_backlog_behind_a_running_flush_leaves_in_one_flush(
            self, monkeypatch):
        options = tuple(generate_batch(n_options=17, seed=23).options)
        entered, release = threading.Event(), threading.Event()
        real_run = service_module.run_request

        def held_run(engine, request, deadline_s=None):
            if not release.is_set():
                entered.set()
                assert release.wait(WAIT)
            return real_run(engine, request, deadline_s=deadline_s)

        monkeypatch.setattr(service_module, "run_request", held_run)
        with PricingService() as service:
            lone = service.submit(_single_requests(options[:1])[0])
            assert entered.wait(WAIT)
            backlog = [service.submit(request)
                       for request in _single_requests(options[1:])]
            release.set()
            assert lone.result(timeout=WAIT).batch_options == 1
            results = [future.result(timeout=WAIT) for future in backlog]
            stats = service.stats()
        assert stats.flushes == 2
        assert {result.batch_options for result in results} == {16}
        with PricingEngine(kernel=KERNEL) as engine:
            expected = engine.run(list(options[1:]), STEPS).prices
        prices = np.array([result.prices[0] for result in results])
        assert np.array_equal(prices, expected)  # bitwise, rtol=0

    def test_mixed_depths_share_a_bucket(self, batch, blocked_flush):
        # steps is not part of batch_key: one flush covers both depths
        config = ServiceConfig(max_batch=len(batch))
        shallow = _single_requests(batch[:4], steps=STEPS)
        deep = _single_requests(batch[4:], steps=STEPS * 2)
        with PricingService(config) as service:
            gate = blocked_flush(service)
            service.submit(_filler(batch))
            assert gate.entered.wait(WAIT)
            futures = [service.submit(request)
                       for request in shallow + deep]
            gate.release.set()
            results = [future.result(timeout=WAIT) for future in futures]
            stats = service.stats()
        assert stats.flushes == 2  # the filler's, then both depths in one
        assert {result.batch_options for result in results} == {len(batch)}
        with PricingEngine(kernel=KERNEL) as engine:
            expected = engine.run(
                list(batch), [STEPS] * 4 + [STEPS * 2] * 4).prices
        prices = np.array([result.prices[0] for result in results])
        assert np.array_equal(prices, expected)


class TestCache:
    def test_identical_request_is_a_hit(self, batch, direct_prices):
        request = PricingRequest(options=batch, steps=STEPS, kernel=KERNEL)
        with PricingService() as service:
            cold = service.submit(request).result(timeout=WAIT)
            hit = service.submit(request).result(timeout=WAIT)
            stats = service.stats()
        assert not cold.cache_hit and hit.cache_hit
        assert hit.batch_options == 0 and hit.wait_s == 0.0
        assert np.array_equal(cold.prices, direct_prices)
        assert np.array_equal(hit.prices, direct_prices)
        assert stats.cache_hits == 1 and stats.cache_misses == 1
        assert stats.cache_bytes > 0

    def test_cached_arrays_are_read_only(self, batch):
        request = PricingRequest(options=batch, steps=STEPS, kernel=KERNEL)
        with PricingService() as service:
            service.submit(request).result(timeout=WAIT)
            hit = service.submit(request).result(timeout=WAIT)
        with pytest.raises(ValueError):
            hit.prices[0] = 0.0

    def test_zero_budget_disables_caching(self, batch):
        request = PricingRequest(options=batch, steps=STEPS, kernel=KERNEL)
        config = ServiceConfig(cache_bytes=0)
        with PricingService(config) as service:
            first = service.submit(request).result(timeout=WAIT)
            second = service.submit(request).result(timeout=WAIT)
            stats = service.stats()
        assert not first.cache_hit and not second.cache_hit
        assert stats.cache_hits == 0 and stats.cache_misses == 2

    def test_identical_inflight_request_joins(self, batch, direct_prices,
                                              blocked_flush):
        request = PricingRequest(options=batch, steps=STEPS, kernel=KERNEL)
        with PricingService() as service:
            gate = blocked_flush(service)
            first = service.submit(request)
            assert gate.entered.wait(WAIT)
            second = service.submit(request)  # first still in flight: joins
            gate.release.set()
            primary = first.result(timeout=WAIT)
            follower = second.result(timeout=WAIT)
            stats = service.stats()
        assert stats.inflight_joins == 1
        assert stats.flushes == 1  # one execution served both futures
        assert not primary.cache_hit and follower.cache_hit
        assert np.array_equal(primary.prices, direct_prices)
        assert np.array_equal(follower.prices, direct_prices)


class TestGreeks:
    def test_greeks_match_the_direct_facade(self, batch):
        expected = api.greeks(list(batch), steps=STEPS, kernel=KERNEL)
        request = PricingRequest(options=batch, steps=STEPS, kernel=KERNEL,
                                 task="greeks")
        with PricingService() as service:
            cold = service.submit(request).result(timeout=WAIT)
            hit = service.submit(request).result(timeout=WAIT)
        assert hit.cache_hit
        for column in ("prices", "delta", "gamma", "theta", "vega", "rho"):
            assert np.array_equal(getattr(cold, column),
                                  getattr(expected, column)), column
            assert np.array_equal(getattr(hit, column),
                                  getattr(expected, column)), column

    def test_different_bumps_do_not_share_results(self, batch):
        base = PricingRequest(options=batch, steps=STEPS, kernel=KERNEL,
                              task="greeks")
        bumped = PricingRequest(options=batch, steps=STEPS, kernel=KERNEL,
                                task="greeks", bump_vol=5e-3)
        with PricingService() as service:
            first = service.submit(base).result(timeout=WAIT)
            second = service.submit(bumped).result(timeout=WAIT)
        assert not second.cache_hit
        assert not np.array_equal(first.vega, second.vega)


class TestFailureScoping:
    def test_poisoned_request_fails_alone(self, batch, direct_prices,
                                          blocked_flush):
        requests = _single_requests(batch, strict=False)
        poisoned = PricingRequest(options=(_poison_option(),), steps=STEPS,
                                  kernel=KERNEL, strict=False)
        config = ServiceConfig(max_batch=len(batch) + 1)
        with PricingService(config) as service:
            gate = blocked_flush(service)
            service.submit(_filler(batch))
            assert gate.entered.wait(WAIT)
            futures = [service.submit(request) for request in requests]
            bad_future = service.submit(poisoned)
            gate.release.set()
            results = [future.result(timeout=WAIT) for future in futures]
            bad = bad_future.result(timeout=WAIT)
        assert bad.batch_options == len(batch) + 1  # coalesced with all
        # the poisoned request sees its own NaN + record, index-local
        assert np.isnan(bad.prices[0])
        assert len(bad.failures) == 1 and bad.failures[0].index == 0
        # every coalesced neighbour is clean and bitwise-correct
        for result, expected in zip(results, direct_prices):
            assert not result.failures
            assert result.prices[0] == expected

    def test_strict_caller_gets_the_exception(self, batch, blocked_flush):
        clean = _single_requests(batch[:2])
        poisoned = PricingRequest(options=(_poison_option(),), steps=STEPS,
                                  kernel=KERNEL, strict=True)
        with PricingService(ServiceConfig(max_batch=3)) as service:
            gate = blocked_flush(service)
            service.submit(_filler(batch))
            assert gate.entered.wait(WAIT)
            futures = [service.submit(request) for request in clean]
            bad_future = service.submit(poisoned)
            gate.release.set()
            for future in futures:
                result = future.result(timeout=WAIT)
                assert not result.failures and result.batch_options == 3
            with pytest.raises(FinanceError):
                bad_future.result(timeout=WAIT)

    def test_failed_slices_are_never_cached(self, batch):
        poisoned = PricingRequest(options=(_poison_option(),), steps=STEPS,
                                  kernel=KERNEL, strict=False)
        with PricingService() as service:
            first = service.submit(poisoned).result(timeout=WAIT)
            second = service.submit(poisoned).result(timeout=WAIT)
            stats = service.stats()
        assert first.failures and second.failures
        assert not second.cache_hit
        assert stats.cache_hits == 0


class TestAdmission:
    def test_overload_rejects_with_backpressure_error(self, batch):
        config = ServiceConfig(max_batch=1, max_queue=1)
        service = PricingService(config)
        started, release = threading.Event(), threading.Event()
        original = service._flush

        def slow_flush(bucket, reason):
            started.set()
            release.wait(WAIT)
            original(bucket, reason)

        service._flush = slow_flush
        try:
            requests = _single_requests(batch[:3])
            first = service.submit(requests[0])
            assert started.wait(WAIT)  # coalescer is now parked in a flush
            second = service.submit(requests[1])  # fills the queue
            with pytest.raises(ServiceOverloadedError):
                service.submit(requests[2])
        finally:
            release.set()
        assert np.isfinite(first.result(timeout=WAIT).prices[0])
        assert np.isfinite(second.result(timeout=WAIT).prices[0])
        stats = service.close()
        assert stats.rejected == 1
        assert stats.requests == 3  # the rejected submit was still counted

    def test_submit_after_close_is_refused(self, batch):
        service = PricingService()
        service.close()
        with pytest.raises(ServiceError, match="closed"):
            service.submit(PricingRequest(options=batch[:1], steps=STEPS,
                                          kernel=KERNEL))

    def test_submit_rejects_non_requests(self):
        with PricingService() as service:
            with pytest.raises(ServiceError, match="PricingRequest"):
                service.submit({"spot": 100.0})


class TestLifecycle:
    def test_close_is_idempotent_and_freezes_stats(self, batch):
        service = PricingService()
        request = PricingRequest(options=batch, steps=STEPS, kernel=KERNEL)
        service.submit(request).result(timeout=WAIT)
        first = service.close()
        second = service.close()
        assert service.closed
        assert first is second is service.stats()
        assert first.requests == 1 and first.options == len(batch)

    def test_close_publishes_into_the_process_registry(self, batch):
        from repro.obs import get_registry
        from repro.obs.metrics import MetricsRegistry, set_registry

        previous = set_registry(MetricsRegistry())
        try:
            with PricingService() as service:
                request = PricingRequest(options=batch, steps=STEPS,
                                         kernel=KERNEL)
                service.submit(request).result(timeout=WAIT)
            published = get_registry().value(
                obs_keys.SERVICE.metric("requests"))
        finally:
            set_registry(previous)
        assert published == 1

    def test_empty_stats_are_all_zero(self):
        stats = PricingService().close()
        assert stats == Snapshot.from_dict("service", {})
        assert stats.requests == 0 and stats.health == "healthy"

    @pytest.mark.parametrize("kwargs", [
        {"max_batch": 0},
        {"max_queue": 0},
        {"cache_bytes": -1},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ServiceError):
            ServiceConfig(**kwargs)
