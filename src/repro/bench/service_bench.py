"""Benchmark harness for the pricing service's coalescing efficiency.

Measures what the serving layer costs: ``clients`` closed-loop client
threads submit *single-option* requests to a
:class:`~repro.service.PricingService` and the achieved throughput is
compared against one direct ``engine.run`` of the very same batch —
the upper bound the coalescer tries to approach.  Three quantities per
batch size:

* **efficiency** — coalesced single-option throughput as a fraction of
  the direct same-size-batch rate (the headline: the dynamic-batching
  overhead the service adds);
* **cache speedup** — a whole-batch request cold (queued, flushed,
  executed) vs the identical request again (pure content-cache hit);
* **parity** — every service price is asserted bitwise-identical to
  the direct engine run (the engine's per-option math is
  row-independent, so coalescing must not move a single ULP — even
  under an injected ``fault_seed``, whose transient faults heal on
  retry);
* **latency** — per-request p50/p99 from the closed-loop phase (the
  tail is where coalescing's ``max_wait_ms`` gamble shows up);
* **overload saturation** — an open-loop ramp against a small-queue
  service finds the offered load at which the shed/reject rate first
  crosses 1%, i.e. where the backpressure contract starts refusing
  work instead of queueing it.

The document mirrors ``BENCH_engine.json``: the regression gate
(:func:`~repro.bench.engine_bench.check_throughput_regression`)
matches runs on ``(options, workers)`` and compares
``options_per_second``, so the frozen
``benchmarks/BENCH_service.quick.json`` plugs into the same CI
machinery as the engine and greeks baselines.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Sequence

import numpy as np

from ..api import PricingRequest
from ..engine import EngineConfig, PricingEngine
from ..engine.faults import FaultPlan
from ..errors import ReproError
from ..finance.lattice import LatticeFamily
from ..finance.market import generate_batch
from ..obs import keys as obs_keys
from ..service import PricingService, ServiceConfig
from .gate import latency_summary
from .gate import make_envelope, write_benchmark  # noqa: F401  (re-export)

__all__ = [
    "SERVE_BENCH_SCHEMA",
    "SERVICE_BENCH_SCHEMA",
    "run_serve_benchmark",
    "run_service_benchmark",
]

#: Schema tag written into every BENCH_service.json.  v2 added the
#: per-request latency percentiles and the overload saturation probe;
#: the ``(options, workers) -> options_per_second`` fields the
#: regression gate matches on are unchanged from v1.
SERVICE_BENCH_SCHEMA = "repro-service-bench/v2"

#: Loss (shed + rejected over offered) fraction at which the overload
#: probe declares the service saturated.
SATURATION_LOSS_RATE = 0.01


def _closed_loop(service: PricingService, options, steps: int, kernel: str,
                 clients: int,
                 backend: str = "auto") -> "tuple[np.ndarray, float]":
    """Drive the service with ``clients`` closed-loop threads.

    Each client owns a strided share of the batch and submits one
    single-option request at a time, waiting for its result before the
    next — the classic closed-loop load model, so concurrency (and
    therefore achievable flush size) equals the client count.
    Returns the prices in input order, the phase wall time, and every
    request's submit-to-result latency in seconds.
    """
    prices = np.empty(len(options), dtype=np.float64)
    latencies = np.empty(len(options), dtype=np.float64)
    errors: "list[BaseException]" = []

    def client(start: int) -> None:
        try:
            for index in range(start, len(options), clients):
                request = PricingRequest(
                    options=(options[index],), steps=steps, kernel=kernel,
                    backend=backend, strict=False)
                submitted = time.perf_counter()
                prices[index] = service.submit(request).result().prices[0]
                latencies[index] = time.perf_counter() - submitted
        except BaseException as exc:  # noqa: BLE001 - reported to the driver
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(start,), daemon=True)
               for start in range(clients)]
    start_time = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start_time
    if errors:
        raise errors[0]
    return prices, wall, latencies


def _overload_probe(options, steps: int, kernel: str, backend: str,
                    max_batch: int, max_wait_ms: float, start_rate: float,
                    levels: int = 6, requests_per_level: int = 160) -> dict:
    """Ramp offered load until the shed/reject rate crosses 1%.

    Open-loop: a single driver paces single-option submissions at a
    fixed offered rate (it never waits for a result before the next
    submit), against a deliberately small-queue service so overload
    surfaces as admission behaviour rather than unbounded queueing.
    Each ramp level gets a fresh service; a request is *lost* when
    ``submit`` rejects it or its future resolves to
    :class:`~repro.errors.ServiceOverloadedError` (a shed).  The
    saturation point is the first offered rate whose loss fraction
    reaches :data:`SATURATION_LOSS_RATE`.
    """
    from ..errors import ServiceOverloadedError

    levels_out = []
    saturation = None
    rate = max(start_rate, 1.0)
    for _ in range(levels):
        config = ServiceConfig(max_batch=max_batch, max_wait_ms=max_wait_ms,
                               max_queue=4 * max_batch)
        rejected = shed = 0
        futures = []
        with PricingService(config) as service:
            begin = time.perf_counter()
            for index in range(requests_per_level):
                target = begin + index / rate
                delay = target - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                request = PricingRequest(
                    options=(options[index % len(options)],), steps=steps,
                    kernel=kernel, backend=backend, strict=False)
                try:
                    futures.append(service.submit(request))
                except ServiceOverloadedError:
                    rejected += 1
            offered_wall = time.perf_counter() - begin
            for future in futures:
                exc = future.exception()
                if isinstance(exc, ServiceOverloadedError):
                    shed += 1
                elif exc is not None:
                    raise exc
        offered_rate = requests_per_level / offered_wall
        loss_rate = (rejected + shed) / requests_per_level
        levels_out.append({
            "offered_rps": offered_rate,
            "rejected": rejected,
            "shed": shed,
            "loss_rate": loss_rate,
        })
        if loss_rate >= SATURATION_LOSS_RATE and saturation is None:
            saturation = offered_rate
            break
        rate *= 2.0
    return {
        "loss_threshold": SATURATION_LOSS_RATE,
        "max_queue": 4 * max_batch,
        "levels": levels_out,
        "saturation_offered_rps": saturation,
    }


def run_service_benchmark(
    options_counts: Sequence[int] = (1024,),
    steps: int = 512,
    kernel: str = "iv_b",
    clients: int = 64,
    max_batch: "int | None" = None,
    max_wait_ms: float = 2.0,
    family: LatticeFamily = LatticeFamily.CRR,
    seed: int = 20140324,
    fault_seed: "int | None" = None,
    backend: str = "numpy",
    tracer=None,
) -> dict:
    """Measure service throughput against the direct-engine bound.

    For each batch size: one direct ``engine.run`` of the whole batch
    (the baseline), then the closed-loop single-option phase through a
    fresh :class:`PricingService`, then the cold/hit cache phase with
    a whole-batch request.  Bitwise parity with the direct run is
    asserted at every stage.

    :param clients: closed-loop client threads (in-flight population).
    :param max_batch: service flush threshold; defaults to ``clients``
        so a full in-flight generation coalesces into one flush.
    :param fault_seed: install ``FaultPlan.random(fault_seed, ...)``
        (transient raise/NaN faults, one failed attempt each) into the
        direct engine *and* the service's engines — both heal on retry,
        so parity must still be bitwise.
    :param backend: roll-loop backend (see :mod:`repro.backends`) for
        the direct engine and every request, so the coalescer's
        engines resolve the same one.  Backends are bit-identical by
        contract, so the parity assertions are unchanged.
    :param tracer: optional tracer handed to the service (enqueue /
        flush / engine spans land in one trace).
    """
    if max_batch is None:
        max_batch = clients
    results = []
    for n_options in options_counts:
        options = list(generate_batch(n_options=n_options, seed=seed).options)
        faults = (FaultPlan.random(fault_seed, n_options)
                  if fault_seed is not None else None)

        with PricingEngine(kernel=kernel, family=family,
                           config=EngineConfig(backend=backend),
                           faults=faults) as engine:
            start = time.perf_counter()
            direct = engine.run(options, steps)
            direct_wall = time.perf_counter() - start
        if direct.failures:
            raise ReproError(
                f"direct run under fault seed {fault_seed} did not heal: "
                f"{direct.failures[0]}")
        direct_rate = n_options / direct_wall

        config = ServiceConfig(max_batch=max_batch, max_wait_ms=max_wait_ms,
                               max_queue=max(1024, 2 * n_options),
                               faults=faults)
        with PricingService(config, tracer=tracer) as service:
            service_prices, service_wall, latencies = _closed_loop(
                service, options, steps, kernel, clients, backend=backend)
            if not np.array_equal(service_prices, direct.prices):
                raise ReproError(
                    "coalesced service prices are not bit-identical to the "
                    "direct engine run")

            batch_request = PricingRequest(options=tuple(options),
                                           steps=steps, kernel=kernel,
                                           backend=backend)
            start = time.perf_counter()
            cold = service.submit(batch_request).result()
            cache_cold_s = time.perf_counter() - start
            start = time.perf_counter()
            hit = service.submit(batch_request).result()
            cache_hit_s = time.perf_counter() - start
            if not hit.cache_hit:
                raise ReproError("repeated identical request missed the cache")
            for label, payload in (("cold", cold), ("hit", hit)):
                if not np.array_equal(payload.prices, direct.prices):
                    raise ReproError(
                        f"cache-{label} prices are not bit-identical to the "
                        f"direct engine run")
            stats = service.close()

        service_rate = n_options / service_wall
        overload = _overload_probe(options, steps, kernel, backend,
                                   max_batch=max_batch,
                                   max_wait_ms=max_wait_ms,
                                   start_rate=service_rate)
        results.append({
            "options": n_options,
            "baseline": {
                "label": "direct engine.run of the same batch",
                "wall_time_s": direct_wall,
                "options_per_second": direct_rate,
            },
            "parity": {
                "bit_identical_to_direct": True,
            },
            "runs": [{
                "workers": 1,
                "backend": direct.stats.backend,
                "backend_compile_seconds":
                    direct.stats.backend_compile_seconds,
                "wall_time_s": service_wall,
                "options_per_second": service_rate,
                "efficiency_vs_direct": service_rate / direct_rate,
                "cache_cold_s": cache_cold_s,
                "cache_hit_s": cache_hit_s,
                "cache_speedup": (cache_cold_s / cache_hit_s
                                  if cache_hit_s > 0 else float("inf")),
                "latency": latency_summary(latencies),
                "service": stats.as_dict(),
            }],
            "overload": overload,
        })

    return make_envelope(
        SERVICE_BENCH_SCHEMA,
        obs_keys.SERVICE_STATS_SCHEMA,
        config={
            "kernel": kernel,
            "family": family.value,
            "steps": steps,
            "seed": seed,
            "clients": clients,
            "max_batch": max_batch,
            "max_wait_ms": max_wait_ms,
            "fault_seed": fault_seed,
            "backend": backend,
        },
        results=results,
    )


# ---------------------------------------------------------------------------
# network mode: the sharded serving tier
# ---------------------------------------------------------------------------

#: Schema tag of the network-mode document.  The ``(options, workers)
#: -> options_per_second`` fields match the engine gate, with
#: ``workers`` carrying the *shard count* — scaling regressions trip
#: the same CI machinery as engine/greeks/service baselines.
SERVE_BENCH_SCHEMA = "repro-serve-bench/v1"

#: The traffic mix: each request cycles through these
#: ``(kernel, precision, family)`` variants, so batch keys spread over
#: the routing ring instead of pinning every request to one shard
#: (kernel IV.B admits only CRR; the spread comes from IV.A and the
#: reference kernel).
SERVE_TRAFFIC_VARIANTS = (
    ("iv_b", "double", "crr"),
    ("iv_a", "double", "crr"),
    ("iv_a", "double", "jarrow-rudd"),
    ("iv_a", "double", "tian"),
    ("reference", "double", "crr"),
    ("reference", "single", "crr"),
    ("iv_b", "single", "crr"),
    ("iv_a", "single", "jarrow-rudd"),
)


def _serve_traffic(n_requests: int, options_per_request: int, steps: int,
                   seed: int, backend: str) -> "list[PricingRequest]":
    """Cache-cold routed traffic.

    Every request carries a *distinct* option batch (seed offset by
    request index), so the shards' content caches never hit, and the
    variant cycle spreads the requests' batch keys over the ring.
    """
    requests = []
    for index in range(n_requests):
        kernel, precision, family = SERVE_TRAFFIC_VARIANTS[
            index % len(SERVE_TRAFFIC_VARIANTS)]
        options = tuple(generate_batch(n_options=options_per_request,
                                       seed=seed + index).options)
        requests.append(PricingRequest(
            options=options, steps=steps, kernel=kernel,
            precision=precision, family=family, backend=backend,
            strict=False))
    return requests


def _serve_closed_loop(host: str, port: int, requests, clients: int):
    """Drive the server with ``clients`` closed-loop network clients.

    Each client thread owns one kept-alive connection and a strided
    share of the request list.  Returns the results in request order,
    the phase wall time, and per-request latencies in seconds.
    """
    from ..serve import ServeClient

    results: "list" = [None] * len(requests)
    latencies = np.empty(len(requests), dtype=np.float64)
    errors: "list[BaseException]" = []

    def client_loop(start: int) -> None:
        try:
            with ServeClient(host, port) as client:
                for index in range(start, len(requests), clients):
                    submitted = time.perf_counter()
                    results[index] = client.price(requests[index])
                    latencies[index] = time.perf_counter() - submitted
        except BaseException as exc:  # noqa: BLE001 - reported to the driver
            errors.append(exc)

    threads = [threading.Thread(target=client_loop, args=(start,),
                                daemon=True)
               for start in range(clients)]
    start_time = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start_time
    if errors:
        raise errors[0]
    return results, wall, latencies


def _serve_saturation(host: str, port: int, options_per_request: int,
                      steps: int, seed: int, backend: str, clients: int,
                      start_rate: float, levels: int,
                      requests_per_level: int,
                      probe_deadline_ms: float) -> dict:
    """Open-loop ramp: p50/p99 vs offered load until requests are lost.

    Each level paces ``requests_per_level`` fresh (cache-cold)
    requests at a fixed offered rate across ``clients`` connections;
    every request carries ``probe_deadline_ms``, so overload surfaces
    as typed deadline/overload errors instead of unbounded queueing.
    The saturation point is the first offered rate whose loss fraction
    reaches :data:`SATURATION_LOSS_RATE`.
    """
    from dataclasses import replace as dc_replace

    from ..errors import DeadlineExceededError, ServiceOverloadedError
    from ..serve import ServeClient

    levels_out = []
    saturation = None
    rate = max(start_rate, 1.0)
    for level in range(levels):
        requests = [
            dc_replace(request, deadline_ms=probe_deadline_ms)
            for request in _serve_traffic(
                requests_per_level, options_per_request, steps,
                seed + 100_000 * (level + 1), backend)
        ]
        latencies: "list[float]" = []
        lost = [0]
        errors: "list[BaseException]" = []
        lock = threading.Lock()
        begin = time.perf_counter()

        def probe_loop(start: int, begin=begin, requests=requests,
                       lost=lost, latencies=latencies, errors=errors,
                       lock=lock, rate=rate) -> None:
            try:
                with ServeClient(host, port) as client:
                    for index in range(start, len(requests), clients):
                        due = begin + index / rate
                        delay = due - time.perf_counter()
                        if delay > 0:
                            time.sleep(delay)
                        submitted = time.perf_counter()
                        try:
                            client.price(requests[index])
                        except (DeadlineExceededError,
                                ServiceOverloadedError):
                            with lock:
                                lost[0] += 1
                            continue
                        with lock:
                            latencies.append(
                                time.perf_counter() - submitted)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=probe_loop, args=(start,),
                                    daemon=True)
                   for start in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - begin
        if errors:
            raise errors[0]
        offered_rate = len(requests) / wall
        loss_rate = lost[0] / len(requests)
        entry = {
            "offered_rps": offered_rate,
            "achieved_rps": len(latencies) / wall,
            "lost": lost[0],
            "loss_rate": loss_rate,
        }
        if latencies:
            entry["latency"] = latency_summary(latencies)
        levels_out.append(entry)
        if loss_rate >= SATURATION_LOSS_RATE and saturation is None:
            saturation = offered_rate
            break
        rate *= 2.0
    return {
        "loss_threshold": SATURATION_LOSS_RATE,
        "probe_deadline_ms": probe_deadline_ms,
        "levels": levels_out,
        "saturation_offered_rps": saturation,
    }


def run_serve_benchmark(
    requests_total: int = 64,
    options_per_request: int = 8,
    steps: int = 256,
    shard_counts: Sequence[int] = (1, 2),
    clients: int = 8,
    seed: int = 20140324,
    fault_seed: "int | None" = None,
    backend: str = "numpy",
    max_wait_ms: float = 2.0,
    saturation_levels: int = 4,
    probe_deadline_ms: float = 2000.0,
    min_two_shard_speedup: float = 1.6,
    assert_scaling: "bool | None" = None,
    tracer=None,
) -> dict:
    """Network-mode benchmark of the sharded serving tier.

    For each shard count: boot a :class:`~repro.serve.PricingServer`,
    warm every engine key with throwaway traffic, then drive the same
    cache-cold routed request mix closed-loop over HTTP and record the
    aggregate throughput.  Every network result is asserted *bitwise*
    identical to the same request through an in-process
    :class:`~repro.service.PricingService` (the shards run the same
    service, so the wire codec and the shared-memory transport must
    not move a single ULP — including under an injected
    ``fault_seed``, whose transient faults heal on retry).  The run at
    the highest shard count also takes the open-loop saturation ramp
    (p50/p99 vs offered load).

    Shard scaling is the headline: ``runs[].workers`` carries the
    shard count and ``options_per_second`` the aggregate rate, so
    :func:`~repro.bench.engine_bench.check_throughput_regression`
    gates it like every other baseline.  When the host has at least
    two CPUs (or ``assert_scaling=True``), the two-shard run must
    reach ``min_two_shard_speedup`` times the one-shard rate, else the
    benchmark itself raises — shared-nothing shards that do not scale
    are a defect, not a data point.

    :param assert_scaling: ``None`` asserts only when
        ``os.cpu_count() >= 2`` (single-core hosts cannot scale by
        construction; the document still records the measured ratio).
    :param tracer: optional tracer handed to every server boot; each
        network request lands as a ``serve.request`` span.
    """
    from ..serve import PricingServer, ServeConfig

    if not shard_counts or any(count < 1 for count in shard_counts):
        raise ReproError("shard_counts must name at least one shard")
    if assert_scaling is None:
        assert_scaling = (os.cpu_count() or 1) >= 2

    faults = (FaultPlan.random(fault_seed, options_per_request)
              if fault_seed is not None else None)
    service_config = ServiceConfig(max_wait_ms=max_wait_ms, faults=faults)
    requests = _serve_traffic(requests_total, options_per_request, steps,
                              seed, backend)
    warmup = _serve_traffic(len(SERVE_TRAFFIC_VARIANTS), options_per_request,
                            steps, seed + 50_000, backend)

    # the parity oracle: the identical request stream through one
    # in-process service (same config, same faults)
    with PricingService(service_config) as oracle:
        expected = [oracle.submit(request).result().prices.copy()
                    for request in requests]

    total_options = requests_total * options_per_request
    runs = []
    saturation = None
    rates: "dict[int, float]" = {}
    for shards in sorted(set(int(count) for count in shard_counts)):
        config = ServeConfig(shards=shards, service=service_config)
        with PricingServer(config, tracer=tracer) as server:
            _serve_closed_loop(server.host, server.port, warmup,
                               min(clients, len(warmup)))
            results, wall, latencies = _serve_closed_loop(
                server.host, server.port, requests, clients)
            for request, result, want in zip(requests, results, expected):
                if result.cache_hit:
                    raise ReproError(
                        "serve bench traffic must be cache-cold, but a "
                        "request hit the shard's content cache")
                if not np.array_equal(result.prices, want):
                    raise ReproError(
                        f"routed prices for batch key {request.batch_key} "
                        f"are not bit-identical to the in-process service")
            if shards == max(shard_counts):
                saturation = _serve_saturation(
                    server.host, server.port, options_per_request, steps,
                    seed, backend, clients,
                    start_rate=len(requests) / wall,
                    levels=saturation_levels,
                    requests_per_level=max(len(requests) // 2, clients),
                    probe_deadline_ms=probe_deadline_ms)
            stats = server.stop()
        rate = total_options / wall
        rates[shards] = rate
        runs.append({
            "workers": shards,
            "backend": backend,
            "wall_time_s": wall,
            "requests_per_second": requests_total / wall,
            "options_per_second": rate,
            "latency": latency_summary(latencies),
            "serve": stats.as_dict(),
        })

    baseline_rate = rates[min(rates)]
    for run in runs:
        run["speedup_vs_one_shard"] = run["options_per_second"] / baseline_rate
        run["efficiency_vs_linear"] = (
            run["speedup_vs_one_shard"] / run["workers"])

    scaling = {
        "asserted": bool(assert_scaling),
        "min_two_shard_speedup": min_two_shard_speedup,
        "two_shard_speedup": (rates[2] / rates[1]
                              if 1 in rates and 2 in rates else None),
    }
    if assert_scaling and scaling["two_shard_speedup"] is not None:
        if scaling["two_shard_speedup"] < min_two_shard_speedup:
            raise ReproError(
                f"two shards reached only "
                f"{scaling['two_shard_speedup']:.2f}x the one-shard rate "
                f"(need >= {min_two_shard_speedup:.1f}x) — the shards are "
                f"not scaling shared-nothing")

    return make_envelope(
        SERVE_BENCH_SCHEMA,
        obs_keys.SERVE_STATS_SCHEMA,
        config={
            "kernel": "mixed",
            "variants": [list(variant) for variant in
                         SERVE_TRAFFIC_VARIANTS],
            "steps": steps,
            "seed": seed,
            "requests": requests_total,
            "options_per_request": options_per_request,
            "shard_counts": sorted(set(int(c) for c in shard_counts)),
            "clients": clients,
            "max_wait_ms": max_wait_ms,
            "fault_seed": fault_seed,
            "backend": backend,
        },
        results=[{
            "options": total_options,
            "parity": {
                "bit_identical_to_in_process": True,
                "fault_seed": fault_seed,
            },
            "scaling": scaling,
            "runs": runs,
            "saturation": saturation,
        }],
    )
