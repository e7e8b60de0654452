"""Concurrency determinism: coalescing must not move a single ULP.

Satellite contract for the service layer: N caller threads submitting
shuffled, duplicated single-option requests must produce prices
bitwise-identical to one direct ``engine.run`` of the deduplicated
batch — including under deterministic fault injection, whose transient
faults heal on retry — and a poisoned request must fail alone.
"""

import random
import threading

import numpy as np
import pytest

from repro.api import PricingRequest
from repro.engine.engine import PricingEngine
from repro.engine.faults import FaultPlan
from repro.finance import generate_batch
from repro.service import PricingService, ServiceConfig

STEPS = 24
KERNEL = "iv_b"
N_OPTIONS = 24
N_THREADS = 4
WAIT = 30.0


@pytest.fixture(scope="module")
def batch():
    return tuple(generate_batch(n_options=N_OPTIONS, seed=31).options)


def _submit_shuffled(service, batch, seed):
    """Each thread submits every option once, in its own shuffled order.

    Across threads every option is therefore requested ``N_THREADS``
    times — the duplicates exercise the cache and the in-flight-join
    path concurrently with fresh computations.
    """
    by_index = {}
    lock = threading.Lock()
    errors = []

    def client(thread_id):
        order = list(range(len(batch)))
        random.Random(seed * 1000 + thread_id).shuffle(order)
        try:
            for index in order:
                request = PricingRequest(options=(batch[index],),
                                         steps=STEPS, kernel=KERNEL,
                                         strict=False)
                result = service.submit(request).result(timeout=WAIT)
                assert not result.failures
                with lock:
                    by_index.setdefault(index, []).append(
                        result.prices[0])
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(t,), daemon=True)
               for t in range(N_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return by_index


class TestBitwiseDeterminism:
    @pytest.mark.parametrize("fault_seed", [101, 202, 303])
    def test_shuffled_duplicates_match_direct_run(self, batch, fault_seed):
        faults = FaultPlan.random(fault_seed, N_OPTIONS)
        with PricingEngine(kernel=KERNEL, faults=faults) as engine:
            direct = engine.run(list(batch), STEPS)
        assert not direct.failures  # transient faults heal on retry

        config = ServiceConfig(max_batch=8,
                               max_queue=4 * N_OPTIONS * N_THREADS,
                               faults=FaultPlan.random(fault_seed,
                                                       N_OPTIONS))
        with PricingService(config) as service:
            by_index = _submit_shuffled(service, batch, fault_seed)
            stats = service.close()

        # every thread saw every option; all copies bitwise-identical
        # to the direct deduplicated run, regardless of which flush,
        # cache hit, or in-flight join produced them
        assert sorted(by_index) == list(range(N_OPTIONS))
        for index, copies in by_index.items():
            assert len(copies) == N_THREADS
            for price in copies:
                assert price == direct.prices[index]

        assert stats.requests == N_OPTIONS * N_THREADS
        # duplicates were not all recomputed: hits + joins covered them
        assert (stats.cache_hits + stats.inflight_joins
                + stats.cache_misses) == stats.requests
        assert stats.cache_misses < stats.requests

    def test_poisoned_request_is_isolated_under_concurrency(self, batch):
        import dataclasses

        poisoned_option = dataclasses.replace(batch[0])
        object.__setattr__(poisoned_option, "volatility", float("nan"))
        poisoned = PricingRequest(options=(poisoned_option,), steps=STEPS,
                                  kernel=KERNEL, strict=False)

        with PricingEngine(kernel=KERNEL) as engine:
            direct = engine.run(list(batch), STEPS)

        config = ServiceConfig(max_batch=8,
                               max_queue=4 * N_OPTIONS * N_THREADS)
        with PricingService(config) as service:
            bad_future = service.submit(poisoned)
            by_index = _submit_shuffled(service, batch, seed=7)
            bad = bad_future.result(timeout=WAIT)

        assert np.isnan(bad.prices[0])
        assert len(bad.failures) == 1 and bad.failures[0].index == 0
        for index, copies in by_index.items():
            for price in copies:
                assert price == direct.prices[index]
