"""Per-layer probes: small, seeded measurements of one layer each.

A traced run first takes what its workload measured of each layer;
these probes fill in every per-layer metric the workload's own path
does not reach, so each traced run reports the whole layer table.
Every probe calls only the program's public functions.
"""

from __future__ import annotations

import json
import time

import numpy as np

from stats import summarize

__all__ = ["PROBES", "fill_missing"]


def _p50_ms(samples) -> float:
    return summarize(samples)["p50"] * 1e3


def _serve_requests(seed: int, count: int = 48):
    import repro
    from repro.api import PricingRequest
    from workloads import SERVE_OPTIONS, SERVE_STEPS, SERVE_VARIANTS

    options = repro.generate_batch(n_options=SERVE_OPTIONS * count,
                                   seed=seed + 17).options
    requests, build = [], []
    for index in range(count):
        kernel, family = SERVE_VARIANTS[index % len(SERVE_VARIANTS)]
        begin = time.perf_counter()
        requests.append(PricingRequest(
            options=options[index * SERVE_OPTIONS:(index + 1) * SERVE_OPTIONS],
            steps=SERVE_STEPS, kernel=kernel, family=family))
        build.append(time.perf_counter() - begin)
    return requests, build


def probe_api_service_wire(seed: int) -> dict:
    """Request build, in-process service and wire codec on serve shapes."""
    from repro.api import BatchResult, PricingRequest
    from repro.service import PricingService
    from workloads import Outcome, service_layer

    requests, build = _serve_requests(seed)
    latencies, results = [], []
    with PricingService() as service:
        for request in requests:
            begin = time.perf_counter()
            results.append(service.submit(request).result())
            latencies.append(time.perf_counter() - begin)
        stats = service.stats().as_dict()
    encode, decode, request_bytes, result_bytes = [], [], [], []
    for request, result in zip(requests, results):
        begin = time.perf_counter()
        wire_request = json.dumps(request.to_dict()).encode()
        wire_result = json.dumps(result.to_dict()).encode()
        encode.append(time.perf_counter() - begin)
        begin = time.perf_counter()
        PricingRequest.from_dict(json.loads(wire_request))
        BatchResult.from_dict(json.loads(wire_result))
        decode.append(time.perf_counter() - begin)
        request_bytes.append(len(wire_request))
        result_bytes.append(len(wire_result))
    out = Outcome()
    service_layer(out, stats)
    out.layer.update({
        "api.request_build_us": (summarize(build)["p50"] * 1e6, "us"),
        "service.latency_p50_ms": (_p50_ms(latencies), "ms"),
        "wire.encode_us": (summarize(encode)["p50"] * 1e6, "us"),
        "wire.decode_us": (summarize(decode)["p50"] * 1e6, "us"),
        "wire.request_bytes": (float(np.mean(request_bytes)), "bytes"),
        "wire.result_bytes": (float(np.mean(result_bytes)), "bytes"),
    })
    out.layer["serve.inprocess_gap_p50_ms"] = (
        _http_p50_ms(requests) - _p50_ms(latencies), "ms")
    return out.layer


def _http_p50_ms(requests) -> float:
    """The same requests, one at a time, through a fresh one-shard server."""
    from workloads import ServeWorkload

    workload = ServeWorkload()
    workload.setup(seed=0)
    latencies = []
    try:
        for request in requests:
            begin = time.perf_counter()
            workload.clients[0].price(request)
            latencies.append(time.perf_counter() - begin)
    finally:
        workload.close()
    return _p50_ms(latencies)


def probe_engine(seed: int) -> dict:
    """Engine runs per kernel, serial chunk baseline and request floor."""
    import repro
    from repro.api import PricingRequest, run_request
    from repro.backends import resolve_backend
    from repro.engine import (EngineConfig, PricingEngine, Workspace,
                              plan_chunks, price_chunk)

    steps = 1024
    batch = repro.generate_batch(n_options=128, seed=seed + 23).options
    layer, overhead, chunks = {}, [], []
    for kernel, kwargs, options in (
            ("iv_b", {"kernel": "iv_b", "workers": 2}, batch),
            ("iv_a", {"kernel": "iv_a", "workers": 2}, batch),
            ("reference", {}, batch[:2])):
        walls = []
        for _ in range(5):
            begin = time.perf_counter()
            result = repro.price(options, steps=steps, **kwargs)
            elapsed = time.perf_counter() - begin
            walls.append(result.stats.wall_time_s)
            if kernel != "reference":
                overhead.append(elapsed - result.stats.wall_time_s)
                chunks.append(result.stats.chunks)
        layer[f"engine.run_ms_p50.{kernel}"] = (_p50_ms(walls), "ms")
        if kernel == "iv_b":
            parallel_wall = summarize(walls)["p50"]
    layer["api.facade_overhead_ms"] = (_p50_ms(overhead), "ms")
    layer["engine.chunks_per_call"] = (float(np.mean(chunks)), "count")

    config = EngineConfig(workers=2)
    planned = plan_chunks(range(len(batch)), batch, steps, np.float64,
                          config.chunk_options, config.tile_budget_bytes,
                          config.min_chunk_options, config.workers)
    backend, workspace = resolve_backend("auto"), Workspace()
    serial = []
    for _ in range(3):
        begin = time.perf_counter()
        for chunk in planned:
            price_chunk("iv_b", chunk.options, chunk.steps, "exact-double",
                        "crr", in_pool=False, workspace=workspace,
                        backend=backend)
        serial.append(time.perf_counter() - begin)
    layer["engine.speedup_vs_serial"] = (
        summarize(serial)["p50"] / parallel_wall, "ratio")

    serve_shaped = repro.generate_batch(n_options=8 * 16,
                                        seed=seed + 19).options
    floor = []
    with PricingEngine(kernel="iv_b") as engine:
        for index in range(16):
            request = PricingRequest(
                options=serve_shaped[index * 8:(index + 1) * 8], steps=128,
                kernel="iv_b")
            begin = time.perf_counter()
            run_request(engine, request)
            floor.append(time.perf_counter() - begin)
    layer["engine.request_floor_ms_p50"] = (_p50_ms(floor), "ms")
    return layer


class _TimedBackend:
    """Wraps a kernel backend and times its backward roll."""

    def __init__(self, backend):
        self.backend = backend
        self.roll_s = 0.0

    def leaf_payoffs(self, *args, **kwargs):
        return self.backend.leaf_payoffs(*args, **kwargs)

    def roll_levels(self, *args, **kwargs):
        begin = time.perf_counter()
        try:
            return self.backend.roll_levels(*args, **kwargs)
        finally:
            self.roll_s += time.perf_counter() - begin


def probe_core_backend(seed: int) -> dict:
    """Leaf build versus backend roll, through the public ``backend=``."""
    import repro
    from repro.backends import resolve_backend
    from repro.core import simulate_kernel_a_batch, simulate_kernel_b_batch

    steps, repeats = 1024, 3
    options = repro.generate_batch(n_options=64, seed=seed + 29).options
    layer, roll_total, nodes = {}, 0.0, 0
    for kernel, simulate in (("iv_b", simulate_kernel_b_batch),
                             ("iv_a", simulate_kernel_a_batch)):
        timed = _TimedBackend(resolve_backend("auto"))
        begin = time.perf_counter()
        for _ in range(repeats):
            simulate(options, steps, backend=timed)
        total = time.perf_counter() - begin
        per_1k = 1000.0 / (repeats * len(options))
        layer[f"core.leaf_build_ms_per_1k.{kernel}"] = (
            (total - timed.roll_s) * per_1k * 1e3, "ms")
        layer[f"backend.roll_ms_per_1k.{kernel}"] = (
            timed.roll_s * per_1k * 1e3, "ms")
        roll_total += timed.roll_s
        nodes += repeats * len(options) * steps * (steps + 1) // 2
    layer["backend.node_updates_per_s"] = (nodes / roll_total, "1/s")
    return layer


def probe_finance(seed: int) -> dict:
    """The scalar reference pricer the reference kernel runs per option."""
    import repro

    options = repro.generate_batch(n_options=3, seed=seed + 31).options
    begin = time.perf_counter()
    for option in options:
        repro.price_binomial(option, steps=1024)
    elapsed = time.perf_counter() - begin
    return {"finance.price_binomial_ms_per_option":
            (elapsed / len(options) * 1e3, "ms")}


def probe_stream(seed: int) -> dict:
    """A short traced paced phase on the stream-risk book shape."""
    from spans import SpanRecorder
    from workloads import Outcome, StreamWorkload

    workload = StreamWorkload()
    workload.setup(seed + 37)
    try:
        workload.make_load(seed + 37, seconds=0.9)
        recorder = SpanRecorder(tracing=True)
        out = Outcome()
        workload.paced(out, recorder)
    finally:
        workload.close()
    return dict(out.layer, **workload.layer_from_spans(recorder.spans))


#: Each probe with the per-layer metrics it measures.
PROBES = (
    (probe_api_service_wire,
     ("api.request_build_us", "service.latency_p50_ms", "wire.encode_us",
      "wire.decode_us", "wire.request_bytes", "wire.result_bytes",
      "serve.inprocess_gap_p50_ms", "service.wait_ms_mean",
      "service.options_per_flush", "service.deadline_flush_share",
      "service.flushes")),
    (probe_engine,
     ("engine.run_ms_p50.iv_b", "engine.run_ms_p50.iv_a",
      "engine.run_ms_p50.reference", "api.facade_overhead_ms",
      "engine.chunks_per_call", "engine.speedup_vs_serial",
      "engine.request_floor_ms_p50")),
    (probe_core_backend,
     ("core.leaf_build_ms_per_1k.iv_b", "core.leaf_build_ms_per_1k.iv_a",
      "backend.roll_ms_per_1k.iv_b", "backend.roll_ms_per_1k.iv_a",
      "backend.node_updates_per_s")),
    (probe_finance, ("finance.price_binomial_ms_per_option",)),
    (probe_stream,
     ("stream.service_ms_p50", "stream.book_ms_per_reval",
      "stream.apply_us_per_tick", "stream.instruments_per_reval")),
)


def fill_missing(layer: dict, seed: int) -> dict:
    """Run each probe that measures a metric ``layer`` still lacks."""
    for probe, names in PROBES:
        if not set(names) <= set(layer):
            for name, value in probe(seed).items():
                layer.setdefault(name, value)
    return layer
