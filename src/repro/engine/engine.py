"""`PricingEngine` — batched option pricing at host throughput.

The accuracy experiments and the EXPERIMENTS.md workloads price
thousands of options through the vectorised kernel simulators; doing
that as one monolithic single-threaded numpy call leaves most of the
host on the table.  The engine schedules the same arithmetic the way
the paper schedules work-groups across compute units:

* requests are grouped by ``(steps, family, profile)`` and sharded
  into cache-sized chunks (:mod:`repro.engine.scheduler`);
* chunks fan out over the engine's threads, each reusing one
  preallocated workspace for every tile it prices
  (:mod:`repro.engine.workspace`) — the compiled backend's ``ctypes``
  call releases the GIL, so the threads roll in parallel without
  pickling anything;
* results scatter back into input order, and the run is measured in
  the paper's units (:mod:`repro.engine.stats`).

The dispatch is fault tolerant (:mod:`repro.engine.reliability`,
:mod:`repro.engine.faults`): a failing chunk is retried with
exponential backoff, a chunk still running at ``chunk_timeout_s`` is
given up and returned as NaN with
:class:`~repro.errors.ChunkTimeoutError` records, and an option that
keeps failing is isolated by quarantine bisection and returned as NaN
with a :class:`~repro.engine.reliability.FailureRecord` — one poison
option never fails the other N-1.  Process isolation and restarts are
the serving tier's job (:mod:`repro.serve`), not the engine's.

Every run is observable (:mod:`repro.obs`): pass a
:class:`~repro.obs.trace.Tracer` to record a hierarchical span tree
(run -> group -> chunk -> attempt -> worker) with retry and quarantine
events as timestamped annotations; every span lives in this process,
so pricing threads attach theirs directly.  Counters and
latencies always accumulate in a run-scoped metrics registry that is
merged into the process-wide one
(:func:`repro.obs.metrics.get_registry`); the returned
:class:`~repro.engine.stats.EngineStats` is a snapshot derived from
that registry.  With no tracer the span calls hit the no-op
:data:`~repro.obs.trace.NULL_SPAN` — the quick-bench regression gate
holds with instrumentation compiled in.

Prices are bit-identical to calling
:func:`~repro.core.batch_sim.simulate_kernel_b_batch` /
``simulate_kernel_a_batch`` directly — chunking, fan-out, reliability
and observability only restructure (or watch) the schedule, never the
arithmetic (asserted by the parity tests in ``tests/engine``).

Example::

    from repro.engine import EngineConfig, PricingEngine

    with PricingEngine(kernel="iv_b",
                       config=EngineConfig(workers=4)) as engine:
        result = engine.run(batch.options, steps=1024)
    print(result.stats.options_per_second)
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ..backends import BACKENDS, resolve_backend
from ..core.faithful_math import EXACT_DOUBLE, MathProfile
from ..core.metrics import nodes_per_option
from ..errors import (
    ChunkTimeoutError,
    EngineError,
    FinanceError,
    PoisonChunkError,
    ReproError,
)
from ..finance.lattice import LatticeFamily
from ..finance.options import Option
from ..obs.trace import NULL_SPAN, Tracer, as_tracer
from .faults import FaultPlan
from .reliability import FailureRecord, RetryPolicy
from .scheduler import (
    KERNELS,
    Chunk,
    chunk_width,
    group_stream,
    plan_chunks,
    price_chunk,
    split_chunk,
)
from .stats import EngineStats, RunMetrics
from .workspace import Workspace

__all__ = ["EngineConfig", "EngineResult", "GreeksEngineResult",
           "PricingEngine"]

#: Name prefix of the engine's pricing threads.
THREAD_NAME_PREFIX = "repro-engine"


@dataclass(frozen=True)
class EngineConfig:
    """Scheduling and reliability knobs of a :class:`PricingEngine`.

    :param workers: pricing threads; ``1`` prices inline on the
        calling thread and is the right default for small batches or
        when the caller parallelises at a higher level.
    :param chunk_options: pin the tile size to exactly this many
        options (``None`` auto-sizes from the byte budget).
    :param tile_budget_bytes: target workspace footprint per chunk;
        the default keeps one worker's S/V tiles around L2 size so the
        ~1000-iteration backward loop streams from cache, not DRAM
        (measured fastest between 1 and 3 MiB on the reference host).
    :param min_chunk_options: floor for the auto-sized tile (amortises
        per-chunk dispatch overhead at very large ``steps``).
    :param max_retries: additional attempts a failing chunk gets
        before quarantine bisection kicks in.
    :param chunk_timeout_s: how long a threaded run waits for one
        chunk (``None`` = wait forever); a chunk still running then is
        given up, not retried — its options come back NaN with
        :class:`~repro.errors.ChunkTimeoutError` records and
        ``timeouts`` counts it.  Inline runs cannot preempt themselves.
    :param backoff_base_s: first-retry backoff ceiling; retry ``k``
        sleeps up to ``backoff_base_s * 2**k`` with deterministic
        jitter (``0`` disables backoff sleeping).
    :param backend: which :class:`~repro.backends.KernelBackend` runs
        the backward-induction hot path — ``"auto"`` (fastest
        available compiled backend, NumPy fallback), ``"numpy"`` or
        ``"cnative"``.  All backends are bit-identical;
        the ``REPRO_BACKEND`` environment variable overrides this at
        resolution time.
    """

    workers: int = 1
    chunk_options: "int | None" = None
    tile_budget_bytes: int = 2 << 20
    min_chunk_options: int = 16
    max_retries: int = 2
    chunk_timeout_s: "float | None" = None
    backoff_base_s: float = 0.05
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise EngineError(f"workers must be >= 1, got {self.workers}")
        if self.backend not in BACKENDS:
            raise EngineError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.chunk_options is not None and self.chunk_options < 1:
            raise EngineError(
                f"chunk_options must be >= 1, got {self.chunk_options}")
        if self.tile_budget_bytes < 1:
            raise EngineError("tile_budget_bytes must be positive")
        if self.max_retries < 0:
            raise EngineError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.chunk_timeout_s is not None and self.chunk_timeout_s <= 0:
            raise EngineError(
                f"chunk_timeout_s must be positive, got {self.chunk_timeout_s}")
        if self.backoff_base_s < 0:
            raise EngineError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}")


@dataclass(frozen=True)
class EngineResult:
    """Prices (in input order), failures, and the run's statistics.

    ``failures`` is non-empty only when quarantine isolated options
    that could not be priced; their ``prices`` entries are NaN and
    every other entry is bit-identical to the fault-free run.
    """

    prices: np.ndarray
    stats: EngineStats
    failures: "tuple[FailureRecord, ...]" = field(default=())


@dataclass(frozen=True)
class GreeksEngineResult:
    """Batch sensitivities (input order), failures, and run statistics.

    ``prices``/``delta``/``gamma``/``theta`` come out of the *same*
    backward induction (tree-level capture, no re-pricing);
    ``vega``/``rho`` are central differences over the four bump
    variants priced in the same fused task.  An option whose task
    failed carries NaN in every column and a
    :class:`~repro.engine.reliability.FailureRecord` prefixed
    ``[fused greeks]``; every other entry matches the fault-free run.
    """

    prices: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray
    theta: np.ndarray
    vega: np.ndarray
    rho: np.ndarray
    stats: EngineStats
    failures: "tuple[FailureRecord, ...]" = field(default=())


@dataclass
class _ChunkOutcome:
    """What pricing one chunk produced, for the dispatching thread.

    Pricing threads only fill this in; the thread that dispatched the
    chunk scatters ``pieces`` into the run's output and counts the
    rest into the run's metrics, whose counters are not thread-safe.
    """

    pieces: "list[tuple[tuple[int, ...], np.ndarray]]" = field(
        default_factory=list)
    failures: "list[FailureRecord]" = field(default_factory=list)
    retries: int = 0
    latencies: "list[float]" = field(default_factory=list)
    timed_out: bool = False


class PricingEngine:
    """Batched pricing with one kernel's exact arithmetic.

    :param kernel: ``"iv_b"``, ``"iv_a"`` or ``"reference"``.
    :param profile: device math profile carried into every chunk.
    :param family: lattice parameterisation (kernel IV.B requires CRR,
        exactly like the simulator it wraps).
    :param config: scheduling and reliability configuration.
    :param faults: deterministic fault-injection plan (tests and chaos
        drills only; ``None`` in production use).
    :param tracer: span tracer observing the run hierarchy
        (``None`` = tracing disabled, zero overhead).
    """

    def __init__(
        self,
        kernel: str = "iv_b",
        profile: MathProfile = EXACT_DOUBLE,
        family: LatticeFamily = LatticeFamily.CRR,
        config: "EngineConfig | None" = None,
        faults: "FaultPlan | None" = None,
        tracer: "Tracer | None" = None,
    ):
        if kernel not in KERNELS:
            raise EngineError(f"kernel must be one of {KERNELS}, got {kernel!r}")
        if kernel == "iv_b" and family is not LatticeFamily.CRR:
            raise EngineError(
                "kernel IV.B initialises leaves as s0 * u**(N-2k), which "
                "exploits the CRR recombination u*d = 1 (paper Figure 1); "
                "use kernel IV.A (host-computed leaves) for other families"
            )
        self.kernel = kernel
        self.profile = profile
        self.family = family
        self.config = config or EngineConfig()
        self.faults = faults
        self.tracer = as_tracer(tracer)
        # Resolve eagerly: an explicit name that cannot be realised
        # should fail at construction, not mid-batch, and the compile
        # cost lands once here instead of inside the first timed run.
        self._backend = resolve_backend(self.config.backend)
        self._policy = RetryPolicy.from_config(self.config)
        # Per-run view of the policy: a run carrying a caller deadline
        # tightens chunk_timeout_s for its own dispatches only.  Runs
        # on one engine are serialised by the serving layer, so an
        # instance attribute (not a lock) is the right scope.
        self._active_policy = self._policy
        self._workspace = Workspace()  # inline path, reused across runs
        self._executor: "ThreadPoolExecutor | None" = None
        self._thread_local = threading.local()
        self._thread_workspaces: "list[Workspace]" = []
        # resolved by close(): wakes a dispatcher waiting on a chunk
        self._closing: Future = Future()
        self._lock = threading.Lock()
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut down the engine, even with a run in flight.

        Queued chunks are cancelled and a run waiting on a chunk stops
        waiting at once, so closing never blocks behind a hung chunk;
        an in-flight :meth:`run` in another thread aborts with
        :class:`EngineError`.  A pricing thread inside a chunk finishes
        that call on its own, and its result is dropped.  Closing
        an already-closed engine is a no-op, but *pricing* on a closed
        engine raises :class:`EngineError` — the engine does not
        silently resurrect (callers that loop over batches should keep
        one engine open, or let :func:`repro.api.price` reuse its
        shared engine).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            executor, self._executor = self._executor, None
        self._closing.set_result(None)
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        self._workspace.release()
        for workspace in list(self._thread_workspaces):
            workspace.release()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; a closed engine stays closed."""
        return self._closed

    def __enter__(self) -> "PricingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise EngineError("pricing engine closed while a batch was in flight")

    def _check_usable(self) -> None:
        """Reject pricing on a closed engine, whatever the route.

        Inline and threaded runs raise the same :class:`EngineError`
        up front.
        """
        if self._closed:
            raise EngineError(
                "this PricingEngine is closed; pricing after close() is "
                "not supported — construct a new engine, or use "
                "repro.api.price()/greeks(), which manage a shared engine"
            )

    # -- pricing -----------------------------------------------------------

    def price(self, options: Sequence[Option],
              steps: "int | Sequence[int]" = 1024) -> np.ndarray:
        """Price a stream; returns root values in input order.

        Strict variant of :meth:`run`: any quarantined option re-raises
        the failure (with its original exception type) instead of
        returning NaN, so callers that predate the reliability layer —
        the historical batch entry points (removed in repro 2.0), the
        implied-vol bracketing that probes for ``FinanceError`` —
        keep their exception contract.  Use :meth:`run` for the
        fault-tolerant NaN-plus-:class:`FailureRecord` semantics.

        Migration: new code should prefer the façade
        :func:`repro.api.price`, which wraps this method with the
        keyword-only signature shared by every pricing front end.
        """
        result = self.run(options, steps)
        if result.failures:
            first = result.failures[0]
            if first.exception is not None:
                raise first.exception
            raise EngineError(
                f"option {first.index} failed after {first.attempts} "
                f"attempts: {first.error}: {first.message}")
        return result.prices

    def run(self, options: Sequence[Option],
            steps: "int | Sequence[int]" = 1024, *,
            deadline_s: "float | None" = None) -> EngineResult:
        """Price a stream and measure the run.

        ``steps`` may be a single depth or one per option —
        heterogeneous streams are regrouped so every chunk still takes
        the wide vectorised path, and prices come back in input order
        regardless of grouping.

        The run always completes: failures are retried, quarantined
        and reported via :attr:`EngineResult.failures` rather than
        raised, except for request-level validation errors, pricing on
        a closed engine (and :meth:`close` racing the run from another
        thread).

        ``deadline_s`` bounds this run's per-chunk wait (``min`` with
        the configured ``chunk_timeout_s``), so a serving caller's
        request deadline caps how long any one chunk may hang.
        Threaded runs only — an inline run cannot preempt itself,
        exactly like ``chunk_timeout_s``.
        """
        started = self._start(deadline_s)
        options = list(options)
        groups = group_stream(options, steps)
        min_steps = 2 if self.kernel in ("iv_a", "iv_b") else 1
        for group_steps in groups:
            if group_steps < min_steps:
                raise EngineError(
                    f"kernel {self.kernel.upper().replace('_', '.')} needs "
                    f"at least {min_steps} steps"
                    if min_steps == 2 else
                    f"steps must be >= 1, got {group_steps}"
                )
        prices = np.empty(len(options), dtype=np.float64)
        stats, failures = self._execute("engine.run", groups, prices,
                                        started)
        return EngineResult(prices=prices, stats=stats, failures=failures)

    def run_greeks(self, options: Sequence[Option],
                   steps: "int | Sequence[int]" = 512,
                   bump_vol: float = 1e-3,
                   bump_rate: float = 1e-4, *,
                   deadline_s: "float | None" = None) -> GreeksEngineResult:
        """Price a stream and its full greeks set in one fused schedule.

        Every chunk is one ``greeks_fused`` task (see
        :func:`repro.engine.scheduler.greeks_fused_chunk`): lattice
        parameters and leaves are built once per option, and the base
        contracts plus the four bump variants (volatility
        ±``bump_vol``, rate ±``bump_rate``) roll through a single
        simulate sharing one 5x-wide tile.  delta/gamma/theta come out
        of the same backward induction as the price (level capture, no
        re-pricing); vega and rho are the central differences of the
        bump variants.  Chunking, thread fan-out, retry/quarantine and
        span/metrics instrumentation are the ones :meth:`run` uses.

        ``steps`` may be a single depth or one per option, exactly as
        in :meth:`run`, but must be >= 3 everywhere (levels 0..2 have
        to sit below the leaves).  Failures never raise: a failure
        that survives retries quarantines the option — its whole
        greeks row goes NaN and its
        :attr:`GreeksEngineResult.failures` record is prefixed
        ``[fused greeks]``.  The stats count every variant pricing
        (``options`` is 5n, ``bump_passes`` is 4).

        ``deadline_s`` bounds the per-chunk timeout as in :meth:`run`.
        """
        started = self._start(deadline_s)
        if bump_vol <= 0.0:
            raise EngineError(f"bump_vol must be > 0, got {bump_vol}")
        if bump_rate <= 0.0:
            raise EngineError(f"bump_rate must be > 0, got {bump_rate}")
        options = list(options)
        groups = group_stream(options, steps)
        for group_steps in groups:
            if group_steps < 3:
                raise EngineError(
                    "greeks need at least 3 steps (tree levels 0..2 must "
                    f"sit below the leaves), got {group_steps}"
                )
        out = np.empty((len(options), 6), dtype=np.float64)
        stats, failures = self._execute(
            "engine.greeks", groups, out, started,
            task="greeks_fused", group="fused",
            bump_vol=bump_vol, bump_rate=bump_rate)
        prices, delta, gamma, theta, vega, rho = out.T.copy()
        return GreeksEngineResult(
            prices=prices, delta=delta, gamma=gamma, theta=theta,
            vega=vega, rho=rho, stats=stats,
            failures=tuple(
                replace(record, message=f"[fused greeks] {record.message}")
                for record in failures),
        )

    def _start(self, deadline_s: "float | None") -> "tuple[float, float]":
        """Open a run: refuse a closed engine, clamp the chunk timeout
        to ``deadline_s``, and return the wall and CPU start times."""
        self._check_usable()
        self._active_policy = self._policy.clamp_timeout(deadline_s)
        return time.perf_counter(), time.process_time()

    def _execute(self, span_name: str, groups: dict, out: np.ndarray,
                 started: "tuple[float, float]", task: str = "price",
                 group: str = "", **bumps: float,
                 ) -> "tuple[EngineStats, tuple[FailureRecord, ...]]":
        """Plan, dispatch and measure one run into ``out``.

        The routine :meth:`run` and :meth:`run_greeks` share: each
        group of ``groups`` (``steps -> (indices, options)``) is cut
        into ``task`` chunks labelled ``group``, the chunks are priced
        into ``out`` (:meth:`_dispatch`) under a run span with one
        group span per depth, and the run's metrics are published.
        A ``task`` prices :func:`chunk_width` contract variants per
        option, so ``options`` and ``tree_nodes`` count every variant
        and a multi-variant task also counts its greeks options and
        bump passes.  Returns the stats snapshot and the failure
        records sorted by option index.
        """
        wall_start, cpu_start = started
        variants = chunk_width(task)
        chunks: list[Chunk] = []
        for group_steps, (indices, members) in sorted(groups.items()):
            chunks.extend(plan_chunks(
                indices, members, group_steps, self.profile.dtype,
                self.config.chunk_options, self.config.tile_budget_bytes,
                self.config.min_chunk_options, self.config.workers,
                task=task, group=group, width=variants, **bumps,
            ))
        n = len(out)

        metrics = RunMetrics()
        metrics.options.inc(variants * n)
        if variants > 1:
            metrics.greeks_options.inc(n)
            metrics.bump_passes.inc(variants - 1)
        metrics.tree_nodes.inc(variants * sum(
            len(indices) * (nodes_per_option(s) + s + 1)
            for s, (indices, _) in groups.items()
        ))
        metrics.groups.inc(len(groups))
        metrics.chunks.inc(len(chunks))

        run_span = self.tracer.start_span(
            span_name, "run",
            kernel=self.kernel, profile=self.profile.name,
            family=self.family.value, workers=self.config.workers,
            backend=self._backend.name,
            options=n, chunks=len(chunks), groups=len(groups), **bumps,
        )
        group_spans: "dict[tuple[str, int], object]" = {}
        if self.tracer.enabled:
            prefix = f"{group}:" if group else ""
            for group_steps, (indices, _) in sorted(groups.items()):
                group_spans[(group, group_steps)] = run_span.child(
                    f"group[{prefix}steps={group_steps}]", "group",
                    steps=group_steps, options=len(indices), task=task,
                )

        failures: "list[FailureRecord]" = []
        peak_tile_bytes = self._dispatch(chunks, out, metrics, failures,
                                         run_span, group_spans)

        wall_time_s = time.perf_counter() - wall_start
        stats = EngineStats.from_run(
            metrics,
            workers=self.config.workers,
            wall_time_s=wall_time_s,
            cpu_time_s=time.process_time() - cpu_start,
            peak_tile_bytes=peak_tile_bytes,
            backend=self._backend.name,
            backend_compile_seconds=self._backend.compile_seconds,
        )
        metrics.finalise(wall_time_s, stats.options_per_second,
                         stats.tree_nodes_per_second, peak_tile_bytes)
        metrics.publish()
        run_span.set(
            wall_time_s=wall_time_s,
            options_per_second=round(stats.options_per_second, 3),
            quarantined_options=stats.quarantined_options,
        )
        return stats, tuple(sorted(failures, key=lambda f: f.index))

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, chunks: Sequence[Chunk], out: np.ndarray,
                  metrics: RunMetrics, failures: "list[FailureRecord]",
                  run_span, group_spans: dict) -> int:
        """Price every chunk into ``out``; returns the peak tile bytes.

        ``workers == 1`` and single-chunk runs price inline on the
        calling thread; otherwise the chunks fan out over the engine's
        threads (:meth:`_run_threaded`).  Either way each chunk goes
        through :meth:`_price_reliably`, and only this thread applies
        the outcomes (:meth:`_apply`).
        """
        try:
            if self.config.workers == 1 or len(chunks) == 1:
                for chunk in chunks:
                    self._apply(self._price_reliably(
                        chunk, self._workspace,
                        self._open_chunk_span(chunk, group_spans)),
                        out, metrics, failures)
            else:
                self._run_threaded(chunks, out, metrics, failures,
                                   group_spans)
        except BaseException:
            run_span.set(status="aborted")
            raise
        finally:
            for span in group_spans.values():
                span.end()
            run_span.end()
        return max([self._workspace.peak_bytes]
                   + [w.peak_bytes for w in list(self._thread_workspaces)])

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            self._check_open()
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.config.workers,
                    thread_name_prefix=THREAD_NAME_PREFIX)
            return self._executor

    def _thread_workspace(self) -> Workspace:
        """The calling pricing thread's own workspace, made on first use."""
        workspace = getattr(self._thread_local, "workspace", None)
        if workspace is None:
            workspace = self._thread_local.workspace = Workspace()
            self._thread_workspaces.append(workspace)
        return workspace

    def _run_threaded(self, chunks: Sequence[Chunk], out: np.ndarray,
                      metrics: RunMetrics,
                      failures: "list[FailureRecord]",
                      group_spans: dict) -> None:
        """Fan the chunks out over the engine's threads.

        Chunk spans open here, in plan order, so the trace does not
        depend on thread timing; each pricing thread then owns the
        span subtree of the chunk it prices.  Outcomes are awaited and
        applied in plan order.  A chunk still running when the active
        chunk timeout expires is given up (:meth:`_await_chunk`);
        the threads cannot be preempted, so its thread finishes on its
        own and the late result is dropped.
        """
        executor = self._ensure_executor()
        spans = [self._open_chunk_span(chunk, group_spans)
                 for chunk in chunks]
        futures: "list[Future]" = []
        try:
            try:
                for chunk, span in zip(chunks, spans):
                    futures.append(executor.submit(
                        self._price_on_thread, chunk, span))
            except RuntimeError:
                # close() shut the executor down between the two calls
                self._check_open()
                raise
            for future, chunk, span in zip(futures, chunks, spans):
                self._apply(self._await_chunk(future, chunk, span),
                            out, metrics, failures)
        finally:
            for future in futures:
                future.cancel()

    def _price_on_thread(self, chunk: Chunk, span) -> _ChunkOutcome:
        return self._price_reliably(chunk, self._thread_workspace(), span)

    def _await_chunk(self, future: Future, chunk: Chunk,
                     span) -> _ChunkOutcome:
        """Wait for one chunk's outcome, at most the active timeout.

        :meth:`close` resolves ``self._closing``, which ends the wait
        at once and aborts the run.  A chunk that overruns the timeout
        is given up, not retried: its options come back NaN with
        :class:`~repro.errors.ChunkTimeoutError` records.
        """
        timeout = self._active_policy.chunk_timeout_s
        wait((future, self._closing), timeout=timeout,
             return_when=FIRST_COMPLETED)
        self._check_open()
        if future.done():
            return future.result()
        future.cancel()
        error = ChunkTimeoutError(
            f"chunk of {len(chunk)} options exceeded the {timeout}s "
            f"deadline and was given up")
        span.annotate("timed-out", timeout_s=timeout)
        span.set(status="error", error="ChunkTimeoutError").end()
        return _ChunkOutcome(timed_out=True, failures=[
            FailureRecord(index=index, error="ChunkTimeoutError",
                          message=str(error), attempts=1, exception=error)
            for index in chunk.indices])

    def _apply(self, outcome: _ChunkOutcome, out: np.ndarray,
               metrics: RunMetrics,
               failures: "list[FailureRecord]") -> None:
        """Scatter and count one chunk's outcome (dispatching thread only)."""
        for indices, values in outcome.pieces:
            out[list(indices)] = values
        for latency in outcome.latencies:
            metrics.chunk_latency.observe(latency)
        metrics.retries.inc(outcome.retries)
        for record in outcome.failures:
            out[record.index] = np.nan
        if outcome.timed_out:
            metrics.timeouts.inc()
        else:
            metrics.quarantined_options.inc(len(outcome.failures))
        failures.extend(outcome.failures)

    def _open_chunk_span(self, chunk: Chunk, group_spans: dict,
                         parent=None):
        """Start a chunk span under its group (or the given parent)."""
        if not self.tracer.enabled:
            return NULL_SPAN
        if parent is None:
            parent = group_spans.get((chunk.group, chunk.steps), NULL_SPAN)
        return parent.child(
            f"chunk[{chunk.indices[0]}+{len(chunk)}]", "chunk",
            first_index=chunk.indices[0], options=len(chunk),
            steps=chunk.steps,
        )

    def _price_reliably(self, chunk: Chunk, workspace: Workspace, span,
                        outcome: "_ChunkOutcome | None" = None,
                        ) -> _ChunkOutcome:
        """Retry -> backoff -> quarantine bisection for one chunk.

        The one reliability driver, run inline or on a pricing thread.
        It touches nothing shared but the chunk's own spans: prices,
        failure records, retries and attempt latencies collect in the
        returned :class:`_ChunkOutcome` for the dispatching thread to
        apply.
        """
        if outcome is None:
            outcome = _ChunkOutcome()
        key = f"chunk:{chunk.indices[0]}+{len(chunk)}"
        last_error: "Exception | None" = None
        attempts_spent = 0
        for attempt in range(self.config.max_retries + 1):
            self._check_open()
            if attempt > 0:
                outcome.retries += 1
                span.annotate("retry", attempt=attempt,
                              error=type(last_error).__name__)
                delay = self._policy.backoff_s(key, attempt - 1)
                if delay > 0.0:
                    time.sleep(delay)
            attempts_spent = attempt + 1
            attempt_span = span.child(f"attempt-{attempt}", "attempt",
                                      attempt=attempt)
            attempt_start = time.perf_counter()
            try:
                with attempt_span.child(
                        f"worker:{self.kernel}:{chunk.task}", "worker",
                        thread=threading.current_thread().name,
                        options=len(chunk), steps=chunk.steps):
                    values = price_chunk(
                        self.kernel, chunk.options, chunk.steps,
                        self.profile, self.family.value,
                        indices=chunk.indices, faults=self.faults,
                        attempt=attempt, workspace=workspace,
                        task=chunk.task, backend=self._backend,
                        bump_vol=chunk.bump_vol, bump_rate=chunk.bump_rate,
                    )
            except FinanceError as exc:
                # deterministic bad input: retrying cannot help, go
                # straight to quarantine to isolate the culprit
                attempt_span.set(error=type(exc).__name__,
                                 status="error").end()
                last_error = exc
                break
            except ReproError as exc:
                attempt_span.set(error=type(exc).__name__,
                                 status="error").end()
                last_error = exc
                continue
            except Exception as exc:  # bare worker exception -> taxonomy
                attempt_span.set(error=type(exc).__name__,
                                 status="error").end()
                last_error = EngineError(
                    f"chunk worker raised {type(exc).__name__}: {exc}")
                continue
            attempt_span.end()
            outcome.latencies.append(time.perf_counter() - attempt_start)
            bad = ~np.isfinite(values)
            if bad.any():
                last_error = PoisonChunkError(
                    f"chunk produced {int(bad.sum())} non-finite price(s)")
                continue
            outcome.pieces.append((chunk.indices, values))
            span.end()
            return outcome
        if len(chunk) == 1:
            self._record_failure(chunk, outcome, last_error,
                                 attempts_spent, span)
        else:
            span.annotate("quarantine-split",
                          error=type(last_error).__name__)
            for piece in split_chunk(chunk):
                # bisection halves trace as chunk spans *under* the
                # failed chunk, so the quarantine tree is visible
                self._price_reliably(
                    piece, workspace,
                    self._open_chunk_span(piece, {}, parent=span), outcome)
        span.end()
        return outcome

    @staticmethod
    def _record_failure(chunk: Chunk, outcome: _ChunkOutcome,
                        error: Exception, attempts_spent: int,
                        span) -> None:
        index = chunk.indices[0]
        span.annotate("quarantined", index=index,
                      error=type(error).__name__, attempts=attempts_spent)
        outcome.failures.append(FailureRecord(
            index=index,
            error=type(error).__name__,
            message=str(error),
            attempts=attempts_spent,
            exception=error,
        ))

    def describe(self) -> str:
        """One-line configuration summary."""
        timeout = (f"{self.config.chunk_timeout_s:g}s"
                   if self.config.chunk_timeout_s is not None else "none")
        return (
            f"engine / kernel {self.kernel} / math={self.profile.name} / "
            f"family={self.family.value} / backend={self._backend.name} / "
            f"workers={self.config.workers} / "
            f"chunk={'auto' if self.config.chunk_options is None else self.config.chunk_options} / "
            f"retries<={self.config.max_retries} / timeout={timeout} / "
            f"backoff={self.config.backoff_base_s:g}s"
            + (" / faults=injected" if self.faults is not None else "")
            + (" / traced" if self.tracer.enabled else "")
        )
