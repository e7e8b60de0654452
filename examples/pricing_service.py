"""The pricing service: coalescing concurrent requests into batches.

The paper's accelerator is fast on *large batches* (one parameter
write, one kernel sweep, one result read — Section IV.B), but real
pricing traffic is many small concurrent requests.
``repro.PricingService`` bridges the two: concurrent single-option
submits are coalesced into engine-sized micro-batches, executed once,
and scattered back to per-request futures — bitwise-identical to
pricing the whole book directly, because the engine's per-option math
is row-independent.

This example:

1. prices a book directly through one engine run (the baseline),
2. re-prices it as 64 concurrent clients submitting one option at a
   time through a ``PricingService`` and verifies bitwise parity,
3. shows the content-keyed result cache: an identical whole-book
   request is a sub-millisecond hit,
4. shows per-request failure scoping: a poisoned request gets NaN +
   a failure record, its coalesced neighbours never notice,
5. prints the service's lifetime stats (flush reasons, cache
   counters, wait/flush-size means).

Run:  python examples/pricing_service.py
"""

import math
import threading
import time

import numpy as np

import repro
from repro import PricingRequest, PricingService, ServiceConfig
from repro.engine.engine import PricingEngine

STEPS = 256  # keep the example quick; production depth would be 512+
KERNEL = "iv_b"
CLIENTS = 64


def main() -> None:
    book = list(repro.generate_batch(n_options=512, seed=20140324).options)
    print(f"Book: {len(book)} American options, N={STEPS}, "
          f"kernel {KERNEL}\n")

    # -- 1. the baseline: one direct engine run ----------------------------
    with PricingEngine(kernel=KERNEL) as engine:
        start = time.perf_counter()
        direct = engine.run(book, STEPS)
        direct_wall = time.perf_counter() - start
    print(f"Direct engine.run:      {len(book) / direct_wall:8,.0f} "
          f"options/s  (one {len(book)}-option batch)")

    # -- 2. the same book as concurrent single-option requests -------------
    config = ServiceConfig(max_batch=CLIENTS)
    prices = np.empty(len(book))

    with PricingService(config) as service:
        def client(start_index: int) -> None:
            for i in range(start_index, len(book), CLIENTS):
                request = PricingRequest(options=(book[i],), steps=STEPS,
                                         kernel=KERNEL)
                prices[i] = service.submit(request).result().prices[0]

        threads = [threading.Thread(target=client, args=(t,))
                   for t in range(CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service_wall = time.perf_counter() - start

        identical = bool(np.array_equal(prices, direct.prices))
        print(f"{CLIENTS} coalesced clients:  "
              f"{len(book) / service_wall:8,.0f} options/s  "
              f"({direct_wall / service_wall:.0%} of the direct rate, "
              f"bitwise identical: {identical})")
        assert identical

        # -- 3. the content-keyed cache ------------------------------------
        whole_book = PricingRequest(options=tuple(book), steps=STEPS,
                                    kernel=KERNEL)
        start = time.perf_counter()
        cold = service.submit(whole_book).result()
        cold_wall = time.perf_counter() - start
        start = time.perf_counter()
        hit = service.submit(whole_book).result()
        hit_wall = time.perf_counter() - start
        print(f"\nWhole-book request:  cold {cold_wall * 1e3:7.1f} ms   "
              f"hit {hit_wall * 1e3:7.3f} ms   "
              f"({cold_wall / hit_wall:,.0f}x, cache_hit={hit.cache_hit})")
        assert not cold.cache_hit and hit.cache_hit

        # -- 4. failure scoping: one bad request fails alone ---------------
        import dataclasses
        poisoned_option = dataclasses.replace(book[0])
        object.__setattr__(poisoned_option, "volatility", float("nan"))
        poisoned = PricingRequest(options=(poisoned_option,), steps=STEPS,
                                  kernel=KERNEL, strict=False)
        neighbour = PricingRequest(options=(book[1],), steps=STEPS,
                                   kernel=KERNEL)
        bad_future = service.submit(poisoned)
        good_future = service.submit(neighbour)
        bad, good = bad_future.result(), good_future.result()
        print(f"\nPoisoned request:    price={bad.prices[0]} "
              f"failures={len(bad.failures)} "
              f"({bad.failures[0].error})")
        print(f"Coalesced neighbour: price={good.prices[0]:.6f} "
              f"failures={len(good.failures)}  (unaffected)")
        assert math.isnan(bad.prices[0]) and not good.failures

        stats = service.close()

    # -- 5. what the service did, in numbers -------------------------------
    print(f"\nService lifetime stats ({repro.obs.keys.STATS_SCHEMA}):")
    for key, value in stats.as_dict().items():
        print(f"  {key:20s} {value:.6g}" if isinstance(value, float)
              else f"  {key:20s} {value}")


if __name__ == "__main__":
    main()
