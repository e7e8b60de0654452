"""Benchmark harness for the streaming risk loop (tick-to-risk).

Measures the workload shape the batch benches cannot: a live position
book revalued incrementally as market data ticks.  Per instrument
count:

* **tick-to-risk latency** — p50/p99/p99.9 from a materialised tick's
  arrival to the publication of the aggregate covering it;
* **revaluation throughput** — instruments repriced per second of
  stream wall time (the ``options_per_second`` the regression gate
  compares);
* **bitwise parity** — sampled published aggregates (always including
  the final one) are asserted bitwise-equal to
  :func:`~repro.stream.full_repricing_oracle` repricing the whole
  book from scratch, and the entire aggregate stream is asserted
  bitwise-identical under every fault seed (transient engine faults
  heal on retry without moving a ULP) and across an immediate replay
  (same seed, fresh book and service);
* **tolerance savings** — the same stream through a tolerance-gated
  book, recording suppressed ticks and saved revaluations.

The document mirrors ``BENCH_service.json``: the regression gate
(:func:`~repro.bench.engine_bench.check_throughput_regression`)
matches runs on ``(options, workers)`` and compares
``options_per_second``, so the frozen
``benchmarks/BENCH_stream.quick.json`` plugs into the same CI
machinery as the engine, greeks, service and serve baselines.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..engine.faults import FaultPlan
from ..errors import ReproError
from ..finance.lattice import LatticeFamily
from ..finance.market import generate_batch
from ..obs import keys as obs_keys
from ..service import PricingService, ServiceConfig
from ..stream import (
    Position,
    PositionBook,
    StreamConfig,
    StreamRunner,
    SyntheticTickSource,
    Tolerance,
    full_repricing_oracle,
)
from .gate import latency_summary
from .gate import make_envelope, write_benchmark  # noqa: F401  (re-export)

__all__ = [
    "STREAM_BENCH_SCHEMA",
    "run_stream_benchmark",
]

#: Schema tag written into every BENCH_stream.json.
STREAM_BENCH_SCHEMA = "repro-stream-bench/v1"

#: Fault seeds every full bench run must hold bitwise parity under
#: (the same seeds the engine fault-injection CI job uses).
DEFAULT_FAULT_SEEDS = (101, 202, 303)


def _build_book(n_instruments: int, steps: int, seed: int,
                tolerances: "dict[str, Tolerance] | None" = None,
                ) -> PositionBook:
    """A deterministic book: generated contracts, seeded quantities."""
    options = generate_batch(n_options=n_instruments, seed=seed).options
    rng = np.random.default_rng(seed + 1)
    quantities = rng.uniform(1.0, 10.0, size=n_instruments)
    signs = np.where(rng.random(n_instruments) < 0.25, -1.0, 1.0)
    book = PositionBook(tolerances)
    for index, option in enumerate(options):
        book.add(Position(f"opt-{index:05d}", option,
                          quantity=float(signs[index] * quantities[index]),
                          steps=steps))
    return book


def _tick_source(book: PositionBook, n_steps: int, seed: int,
                 ) -> SyntheticTickSource:
    initial = {
        position.instrument_id: (position.option.spot,
                                 position.option.volatility,
                                 position.option.rate)
        for position in book.positions()
    }
    return SyntheticTickSource(initial, seed=seed + 2, n_steps=n_steps)


def _update_fingerprint(update) -> tuple:
    """Everything bitwise about one published aggregate."""
    return (update.seq, float(update.ts).hex(), update.repriced,
            tuple((name, float(value).hex())
                  for name, value in update.columns.items()),
            float(update.pnl).hex())


def _assert_streams_equal(reference, candidate, label: str) -> None:
    if len(reference) != len(candidate):
        raise ReproError(
            f"{label}: published {len(candidate)} aggregates, "
            f"expected {len(reference)}")
    for ref, got in zip(reference, candidate):
        if _update_fingerprint(ref) != _update_fingerprint(got):
            raise ReproError(
                f"{label}: aggregate seq {ref.seq} is not "
                f"bit-identical to the reference stream")


def _run_stream(book: PositionBook, source, stream_config: StreamConfig,
                service_config: ServiceConfig, *, tracer=None,
                oracle_every: int = 0):
    """One full pass; returns ``(runner, wall_s, oracle_checks)``.

    With ``oracle_every > 0`` every that-many-th published aggregate
    (plus the final one, checked after the run) is compared bitwise
    against :func:`full_repricing_oracle` at publication time.
    """
    checks = 0

    def verify(update):
        nonlocal checks
        if oracle_every and update.seq % oracle_every == 0:
            oracle = full_repricing_oracle(book, stream_config)
            if any(oracle[c] != update.columns[c] for c in oracle):
                raise ReproError(
                    f"streamed aggregate seq {update.seq} diverged "
                    f"from the full-repricing oracle")
            checks += 1

    with PricingService(service_config, tracer=tracer) as service:
        runner = StreamRunner(book, service,
                              config=stream_config,
                              on_aggregate=verify if oracle_every else None)
        start = time.perf_counter()
        runner.process(source)
        wall = time.perf_counter() - start
    if oracle_every:
        final = runner.published[-1]
        oracle = full_repricing_oracle(book, stream_config)
        if any(oracle[c] != final.columns[c] for c in oracle):
            raise ReproError(
                "final streamed aggregate diverged from the "
                "full-repricing oracle")
        checks += 1
    return runner, wall, checks


def run_stream_benchmark(
    instrument_counts: Sequence[int] = (256,),
    tick_steps: int = 64,
    steps: int = 256,
    kernel: str = "iv_b",
    batch_ticks: int = 8,
    max_batch: "int | None" = None,
    max_wait_ms: float = 0.0,
    family: LatticeFamily = LatticeFamily.CRR,
    seed: int = 20140324,
    fault_seeds: Sequence[int] = DEFAULT_FAULT_SEEDS,
    backend: str = "numpy",
    rel_tol: float = 2e-3,
    tracer=None,
) -> dict:
    """Measure tick-to-risk latency and revaluation throughput.

    :param instrument_counts: book sizes to sweep.
    :param tick_steps: synthetic-market time steps (each emits one
        spot tick per instrument plus periodic vol/rate ticks).
    :param steps: binomial tree depth per instrument.
    :param batch_ticks: revalue after this many materialised ticks.
    :param max_batch: service flush threshold; defaults to the
        instrument count (one drained generation coalesces fully).
    :param fault_seeds: re-run the whole stream under
        ``FaultPlan.random(seed, ...)`` for each entry and assert the
        aggregate stream is bit-identical to the calm run.
    :param rel_tol: relative spot/vol/rate tolerance of the
        tolerance-gated phase (the savings measurement).
    :param tracer: optional tracer observing the calm run's service.
    """
    results = []
    for n_instruments in instrument_counts:
        flush_at = max_batch if max_batch is not None else n_instruments
        service_config = ServiceConfig(
            max_batch=flush_at, max_wait_ms=max_wait_ms,
            max_queue=max(1024, 2 * n_instruments))
        stream_config = StreamConfig(kernel=kernel, family=family,
                                     backend=backend,
                                     batch_ticks=batch_ticks)

        # -- calm run: latency + throughput + sampled oracle parity --
        book = _build_book(n_instruments, steps, seed)
        source = _tick_source(book, tick_steps, seed)
        runner, wall, oracle_checks = _run_stream(
            book, source, stream_config, service_config, tracer=tracer,
            oracle_every=4)
        stats = runner.stats()
        reference = runner.published
        if stats.revaluations == 0:
            raise ReproError("calm run produced no revaluations")

        # -- replay determinism: same seed, fresh book and service --
        replay_book = _build_book(n_instruments, steps, seed)
        replay, _wall, _checks = _run_stream(
            replay_book, _tick_source(replay_book, tick_steps, seed),
            stream_config, service_config)
        _assert_streams_equal(reference, replay.published,
                              "replayed stream")

        # -- fault runs: transient faults must heal without a ULP --
        for fault_seed in fault_seeds:
            fault_book = _build_book(n_instruments, steps, seed)
            faulted, _wall, _checks = _run_stream(
                fault_book, _tick_source(fault_book, tick_steps, seed),
                stream_config,
                ServiceConfig(
                    max_batch=flush_at, max_wait_ms=max_wait_ms,
                    max_queue=max(1024, 2 * n_instruments),
                    faults=FaultPlan.random(fault_seed, n_instruments)))
            _assert_streams_equal(reference, faulted.published,
                                  f"stream under fault seed {fault_seed}")

        # -- tolerance phase: the suppression savings measurement --
        tolerances = {field: Tolerance(rel_tol=rel_tol)
                      for field in ("spot", "volatility", "rate")}
        gated_book = _build_book(n_instruments, steps, seed, tolerances)
        gated, gated_wall, _checks = _run_stream(
            gated_book, _tick_source(gated_book, tick_steps, seed),
            stream_config, service_config)
        gated_stats = gated.stats()

        reval_rate = stats.revaluations / wall
        results.append({
            "options": n_instruments,
            "ticks": stats.ticks,
            "aggregates": stats.aggregates,
            "parity": {
                "bitwise": True,
                "oracle_checks": oracle_checks,
                "replay": True,
                "fault_seeds": list(fault_seeds),
            },
            "runs": [{
                "workers": 1,
                "wall_time_s": wall,
                "options_per_second": reval_rate,
                "ticks_per_second": stats.ticks / wall,
                "latency": latency_summary(runner.latencies),
                "stream": stats.as_dict(),
            }],
            "tolerance": {
                "rel_tol": rel_tol,
                "wall_time_s": gated_wall,
                "suppressed_ticks": gated_stats.suppressed_ticks,
                "revaluations": gated_stats.revaluations,
                "revaluations_saved":
                    stats.revaluations - gated_stats.revaluations,
                "suppression_rate": (gated_stats.suppressed_ticks
                                     / gated_stats.ticks
                                     if gated_stats.ticks else 0.0),
                "stream": gated_stats.as_dict(),
            },
        })

    return make_envelope(
        STREAM_BENCH_SCHEMA,
        obs_keys.STREAM_STATS_SCHEMA,
        config={
            "kernel": kernel,
            "family": family.value,
            "steps": steps,
            "tick_steps": tick_steps,
            "seed": seed,
            "batch_ticks": batch_ticks,
            "max_batch": max_batch,
            "max_wait_ms": max_wait_ms,
            "fault_seeds": list(fault_seeds),
            "backend": backend,
            "rel_tol": rel_tol,
        },
        results=results,
    )
