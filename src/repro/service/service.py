"""The in-process pricing service: coalesce, batch, cache, scatter.

The paper's host/device split (Section IV.B) reduces the host to
write-params / enqueue / read-results — the shape of a serving system.
This module supplies the layer the data-centre deployment literature
(Inggs et al.) says makes accelerators pay off: many small concurrent
requests are **coalesced** into the large batches
:class:`~repro.engine.PricingEngine` is fast at, executed once, and
scattered back to per-request futures.

Life of a request::

    submit(PricingRequest)
      ├─ cache hit?        -> future resolves immediately (no engine)
      ├─ identical request -> joins the in-flight computation
      │  already queued?      (one execution, many futures)
      └─ else              -> bounded admission queue
                               │ coalescer thread
                               │ blocks for one entry, drains the
                               │ backlog into buckets by
                               │ request.batch_key, flushes a bucket on
                               │ max_batch options and the rest as
                               │ soon as the queue is empty
                               ▼
                             run_request(engine, merged request)
                               ▼
                             scatter slices to futures, admit clean
                             slices to the content-keyed cache

Failure scoping is per request: the merged flush always runs with
``strict=False`` so the engine quarantines poisoned options to NaN +
:class:`~repro.engine.reliability.FailureRecord` instead of raising,
records are remapped into each request's own index space, and each
caller's ``strict`` flag is applied to *their slice only* when their
future resolves.  One bad option never fails its coalesced
neighbours.

Prices are bitwise-identical to a direct ``engine.run`` of the same
options: the engine's per-option math is row-independent, so batch
composition (and therefore coalescing) cannot change a single ULP.

Robustness (the serving contract under stress):

* **deadlines** — a request carrying ``deadline_ms`` whose budget
  expired before its flush starts is rejected with
  :class:`~repro.errors.DeadlineExceededError` (no engine work is
  spent on it), and while live it bounds the per-chunk timeout of the
  flush that carries it;
* **cancellation** — ``future.cancel()`` on a not-yet-flushed request
  is honoured at claim time; a waiting in-flight follower is promoted
  to primary so the computation is only dropped when nobody wants it;
* **priority shedding** — the admission queue has two bands; when it
  is full, a ``priority="high"`` submit sheds the oldest
  normal-priority entry (its future fails with
  :class:`~repro.errors.ServiceOverloadedError`) instead of being
  rejected;
* **health & supervision** — a :class:`~repro.service.health.HealthMonitor`
  digests flush outcomes and engine degradation signals into
  ``HEALTHY/DEGRADED/UNHEALTHY`` (see :meth:`PricingService.health`),
  and a wedged shared engine is replaced under a bounded, backed-off
  restart budget;
* **chaos** — a :class:`~repro.service.chaos.ChaosPlan` in the config
  turns on deterministic fault injection across all of the above (the
  acceptance suite lives in ``tests/service/test_chaos.py``).
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field, replace

import numpy as np

from ..api import (
    RESULT_COLUMNS,
    PricingRequest,
    ServiceResult,
    _engine_profile,
    raise_first_failure,
    run_request,
)
from ..engine import EngineConfig, PricingEngine
from ..engine.faults import FaultPlan
from ..errors import (
    DeadlineExceededError,
    EngineError,
    ServiceError,
    ServiceOverloadedError,
)
from ..finance.options import OptionArrays
from ..obs.metrics import LayerMetrics, Snapshot
from ..obs.trace import as_tracer
from .cache import CacheEntry, ResultCache, request_key
from .chaos import ChaosInjector, ChaosPlan
from .health import (
    HEALTH_STATE_LEVEL,
    HealthMonitor,
    HealthPolicy,
    HealthReport,
    HealthState,
)

__all__ = ["PricingService", "ServiceConfig"]

#: Sentinel the coalescer drains up to on :meth:`PricingService.close`.
_CLOSE = object()


@dataclass
class _DrainToken:
    """Control token: flush everything admitted before it, then signal."""

    done: threading.Event = field(default_factory=threading.Event)


class _AdmissionQueue:
    """Two-band bounded queue with priority shedding and control tokens.

    ``high``-priority entries always dequeue before ``normal`` ones.
    When the queue is full, admitting a high-priority entry *sheds*
    (removes and returns) the oldest normal-priority entry instead of
    raising; a full queue with no normal entries to shed — or any full
    queue receiving a normal-priority entry — raises
    :class:`queue.Full`, preserving the original backpressure
    contract.  Control tokens (:data:`_CLOSE`, :class:`_DrainToken`)
    live on an unbounded side channel so shutdown can never be blocked
    out by a full queue.

    The queue owns the ``repro_service_queue_depth`` gauge: every
    transition — enqueue, dequeue, shed — publishes the new depth
    under the queue lock, so the gauge can never lag a transition or
    overstate the backlog while the coalescer is busy flushing.
    Control tokens are not requests and are never counted.
    """

    def __init__(self, maxsize: int, depth_gauge=None):
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._high: "deque[_Pending]" = deque()
        self._normal: "deque[_Pending]" = deque()
        self._control: deque = deque()
        self._depth_gauge = depth_gauge

    def _publish_depth(self) -> None:
        # caller holds self._lock
        if self._depth_gauge is not None:
            self._depth_gauge.set(float(len(self._high) + len(self._normal)))

    def qsize(self) -> int:
        with self._lock:
            return len(self._high) + len(self._normal)

    def put(self, pending: "_Pending") -> "list[_Pending]":
        """Admit ``pending``; returns the entries shed to make room.

        :raises queue.Full: no capacity and nothing shed-able.
        """
        with self._ready:
            shed: "list[_Pending]" = []
            if len(self._high) + len(self._normal) >= self.maxsize:
                if pending.request.priority == "high" and self._normal:
                    shed.append(self._normal.popleft())
                else:
                    raise queue.Full
            band = (self._high if pending.request.priority == "high"
                    else self._normal)
            band.append(pending)
            self._publish_depth()
            self._ready.notify()
            return shed

    def put_control(self, token) -> None:
        """Enqueue a control token (never full, never shed)."""
        with self._ready:
            self._control.append(token)
            self._ready.notify()

    def get(self):
        """Block until an entry or control token is available."""
        with self._ready:
            self._ready.wait_for(self._available)
            return self._pop()

    def get_nowait(self):
        with self._ready:
            if not self._available():
                raise queue.Empty
            return self._pop()

    def _available(self) -> bool:
        return bool(self._high or self._normal or self._control)

    def _pop(self):
        if self._high:
            item = self._high.popleft()
        elif self._normal:
            item = self._normal.popleft()
        else:
            return self._control.popleft()
        self._publish_depth()
        return item


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of a :class:`PricingService`.

    :param max_batch: flush a bucket once it holds this many *options*
        (requests stay whole — a flush may overshoot by the last
        request's size).
    :param max_queue: admission-queue capacity in requests; submits
        beyond it raise :class:`ServiceOverloadedError`.
    :param cache_bytes: result-cache payload budget (0 disables
        caching; in-flight dedup still works).
    :param engine_config: :class:`~repro.engine.EngineConfig` for the
        engines the service owns (pricing threads, chunking, timeouts);
        the engine defaults when ``None``.
    :param faults: deterministic :class:`~repro.engine.faults.FaultPlan`
        handed to every engine the service builds (testing/benching the
        retry/quarantine paths under coalescing; ``None`` in
        production).
    :param health: thresholds and restart budget of the service's
        :class:`~repro.service.health.HealthMonitor` (defaults applied
        when ``None``).
    :param chaos: deterministic
        :class:`~repro.service.chaos.ChaosPlan` injecting faults into
        the *service* surfaces — coalescer stalls, flush failures,
        engine wedges, cache corruption/eviction storms.  Installing
        one also turns on cache checksum verification so injected
        corruption is detected, not served.  ``None`` in production.
    """

    max_batch: int = 256
    max_queue: int = 1024
    cache_bytes: int = 64 << 20
    engine_config: "EngineConfig | None" = None
    faults: "FaultPlan | None" = None
    health: "HealthPolicy | None" = None
    chaos: "ChaosPlan | None" = None

    def __post_init__(self):
        if self.max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_queue < 1:
            raise ServiceError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.cache_bytes < 0:
            raise ServiceError(
                f"cache_bytes must be >= 0, got {self.cache_bytes}")


@dataclass
class _Pending:
    """One admitted request waiting in the queue / a bucket.

    ``deadline`` is the absolute monotonic instant the caller's
    ``deadline_ms`` budget runs out (``None`` = wait forever).
    """

    request: PricingRequest
    future: Future
    key: str
    enqueued: float
    deadline: "float | None" = None


@dataclass
class _Bucket:
    """Requests with one batch_key drained together toward a flush."""

    entries: "list[_Pending]" = field(default_factory=list)
    n_options: int = 0


class PricingService:
    """Dynamic-batching front end over shared :class:`PricingEngine`\\ s.

    Thread-safe: any number of caller threads may :meth:`submit`
    concurrently; one internal coalescer thread owns batching and
    engine execution, so results are as deterministic as the engine
    itself (bitwise, in fact — see the module docstring).

    Use as a context manager or call :meth:`close` — it drains queued
    requests, flushes every partial bucket, closes the engines the
    service owns and publishes the service metrics::

        with PricingService(ServiceConfig(max_batch=512)) as service:
            futures = [service.submit(req) for req in requests]
            results = [f.result() for f in futures]

    :param config: a :class:`ServiceConfig` (default-constructed when
        ``None``).
    :param tracer: optional :class:`repro.obs.trace.Tracer`; records
        ``service.enqueue`` and ``service.flush`` (execute/scatter)
        spans, and is also handed to the engines so their
        run/group/chunk spans land in the same trace.
    """

    def __init__(self, config: "ServiceConfig | None" = None, *,
                 tracer=None):
        self.config = config if config is not None else ServiceConfig()
        self._tracer = as_tracer(tracer)
        self.metrics = LayerMetrics("service")
        # A chaos plan injects silent cache corruption, so the cache
        # must verify; production services skip the checksum cost.
        self._cache = ResultCache(self.config.cache_bytes,
                                  verify=self.config.chaos is not None)
        self._queue = _AdmissionQueue(self.config.max_queue,
                                      depth_gauge=self.metrics.queue_depth)
        self._lock = threading.Lock()
        self._inflight: "dict[str, list[_Pending]]" = {}
        self._engines: "dict[tuple, PricingEngine]" = {}
        self._health = HealthMonitor(self.config.health)
        self._health_transitions_seen = 0
        self._chaos = (ChaosInjector(self.config.chaos)
                       if self.config.chaos is not None else None)
        self._closed = False
        self._final_stats: "Snapshot | None" = None
        self._thread = threading.Thread(target=self._run,
                                        name="repro-service-coalescer",
                                        daemon=True)
        self._thread.start()

    # -- submission --------------------------------------------------------

    def submit(self, request: PricingRequest) -> "Future[ServiceResult]":
        """Admit one request; returns a future of :class:`ServiceResult`.

        Resolution order: content-cache hit (immediate) → join of an
        identical in-flight request (shares that computation) → the
        bounded queue (coalesced and flushed by the service thread).

        A full queue rejects normal-priority submits with
        :class:`ServiceOverloadedError`; a high-priority submit first
        tries to *shed* the oldest queued normal-priority entry (whose
        future then carries the overload error) and is only rejected
        when there is nothing left to shed.

        :raises ServiceError: the service is closed, or ``request`` is
            not a :class:`PricingRequest`.
        :raises ServiceOverloadedError: the admission queue is full.
        """
        if not isinstance(request, PricingRequest):
            raise ServiceError(
                f"submit() takes a PricingRequest, got "
                f"{type(request).__name__}")
        if self._closed:
            raise ServiceError("this PricingService is closed")
        span = self._tracer.start_span(
            "service.enqueue", "request", task=request.task,
            kernel=request.kernel, options=len(request))
        self.metrics.requests.inc()
        self.metrics.options.inc(float(len(request)))
        key = request_key(request)
        now = time.monotonic()
        deadline = (now + request.deadline_ms / 1000.0
                    if request.deadline_ms is not None else None)
        future: "Future[ServiceResult]" = Future()
        with self._lock:
            entry = self._cache.get(key)
            if entry is not None:
                self.metrics.cache_hits.inc()
                span.set(outcome="cache_hit").end()
                future.set_result(self._entry_result(entry))
                return future
            followers = self._inflight.get(key)
            if followers is not None:
                followers.append(_Pending(request, future, key,
                                          now, deadline))
                self.metrics.inflight_joins.inc()
                span.set(outcome="inflight_join").end()
                return future
            self._inflight[key] = []
        pending = _Pending(request, future, key, now, deadline)
        try:
            shed = self._queue.put(pending)
        except queue.Full:
            with self._lock:
                orphans = self._inflight.pop(key, None) or []
            self.metrics.rejected.inc()
            span.set(outcome="rejected").end()
            detail = ("no normal-priority entries left to shed"
                      if request.priority == "high" else
                      "back off and retry, shed load, or raise "
                      "ServiceConfig.max_queue")
            overloaded = ServiceOverloadedError(
                f"admission queue is full ({self.config.max_queue} "
                f"requests); {detail}")
            # Followers that joined this key while the put was racing
            # the rejection would otherwise wait forever.
            for orphan in orphans:
                if not orphan.future.done():
                    orphan.future.set_exception(overloaded)
            raise overloaded from None
        for victim in shed:
            self.metrics.shed.inc()
            span.annotate("shed a normal-priority entry")
            self._fail(victim, ServiceOverloadedError(
                "shed from the admission queue to admit high-priority "
                "work under overload"))
        self.metrics.cache_misses.inc()
        span.set(outcome="queued").end()
        return future

    # -- results -----------------------------------------------------------

    @staticmethod
    def _entry_result(entry: CacheEntry) -> ServiceResult:
        return ServiceResult(route="service", cache_hit=True,
                             batch_options=0, wait_s=0.0, block=entry.block)

    def _resolve(self, pending: _Pending, result: ServiceResult) -> None:
        """Apply the caller's ``strict`` flag and resolve one future."""
        future = pending.future
        claimed_at_flush = future.running()
        if not claimed_at_flush:
            # A follower (never claimed at flush time): claim it now so
            # a racing caller-side cancel() is honoured atomically.
            if not future.set_running_or_notify_cancel():
                self.metrics.cancelled.inc()
                return
        if (pending.deadline is not None
                and time.monotonic() > pending.deadline):
            # Symmetric post-flush enforcement: the deadline bounds the
            # flush's per-chunk timeout, but a serial engine (or a
            # flush finishing just late) can still deliver after the
            # budget — primaries and followers alike get the error
            # they asked for instead of a result they stopped waiting
            # on.
            self.metrics.deadline_expired.inc()
            where = ("while its flush was executing" if claimed_at_flush
                     else "before the joined in-flight computation "
                          "finished")
            future.set_exception(DeadlineExceededError(
                f"deadline of {pending.request.deadline_ms:g} ms "
                f"expired {where}"))
            return
        if pending.request.strict and result.failures:
            try:
                raise_first_failure(result.failures)
            except Exception as exc:  # noqa: BLE001 - re-raised via future
                future.set_exception(exc)
                return
        future.set_result(result)

    def _settle(self, pending: _Pending, result: ServiceResult) -> None:
        """Resolve a primary plus every follower that joined its key.

        Clean results (no failures) are admitted to the content cache
        first, so the next identical request is a pure hit.
        """
        if not result.failures:
            block = result.block
            if self._chaos is not None:
                # chaos flips stored bits in place; its own copy keeps
                # the corruption inside the cache, where verify must
                # catch it, instead of in the callers' shared result
                block = block.copy()
            entry = CacheEntry.freeze(block)
            evicted = self._cache.put(pending.key, entry)
            if evicted:
                self.metrics.cache_evictions.inc(float(evicted))
            if self._chaos is not None:
                self._chaos.on_cache_store(self._cache, entry)
            self.metrics.cache_bytes.set(float(self._cache.bytes_used))
        with self._lock:
            followers = self._inflight.pop(pending.key, [])
        self._resolve(pending, result)
        for follower in followers:
            self._resolve(follower, replace(result, cache_hit=True))

    def _fail(self, pending: _Pending, exc: BaseException) -> None:
        with self._lock:
            followers = self._inflight.pop(pending.key, [])
        for target in (pending, *followers):
            if not target.future.done():
                target.future.set_exception(exc)

    # -- deadline / cancellation bookkeeping --------------------------------

    def _promote_follower(self, key: str) -> "_Pending | None":
        """Next live owner of ``key`` after its primary dropped out.

        Pops the oldest in-flight follower to become the new primary;
        when none is waiting, the key is retired so an identical later
        submit starts a fresh computation.
        """
        with self._lock:
            followers = self._inflight.get(key)
            if followers:
                return followers.pop(0)
            self._inflight.pop(key, None)
        return None

    def _claim(self, pending: "_Pending | None",
               now: float) -> "_Pending | None":
        """Resolve who actually owns a queued slot as its flush starts.

        The one place expiry and cancellation are settled.  Walks the
        primary-then-followers chain: an entry whose future was
        cancelled is dropped, an entry whose deadline has expired fails
        with :class:`DeadlineExceededError` (before any engine work —
        the deadline contract), and in either case the oldest waiting
        follower is promoted.  The returned entry has been *claimed*
        (``set_running_or_notify_cancel``), so it can no longer be
        cancelled out from under the flush.
        """
        while pending is not None:
            if not pending.future.set_running_or_notify_cancel():
                self.metrics.cancelled.inc()
            elif pending.deadline is not None and pending.deadline <= now:
                self.metrics.deadline_expired.inc()
                pending.future.set_exception(DeadlineExceededError(
                    f"deadline of {pending.request.deadline_ms:g} ms "
                    f"expired after {(now - pending.enqueued) * 1e3:.1f} ms "
                    f"in the admission queue"))
            else:
                return pending
            pending = self._promote_follower(pending.key)
        return None

    # -- the coalescer thread ----------------------------------------------

    def _run(self) -> None:
        """Work-conserving coalescing: never wait on a timer for company.

        Block for one entry, drain the backlog behind it, group it by
        ``batch_key`` (a group reaching ``max_batch`` options flushes at
        once, ``full``), then flush every remaining group — ``drain``
        when a drain or close token came in, else ``deadline``.  A lone
        request therefore leaves as soon as it is dequeued, while
        requests that queued up behind a running flush leave together.
        """
        while True:
            items = [self._queue.get()]
            while True:
                try:
                    items.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            closing = False
            drains: "list[_DrainToken]" = []
            buckets: "dict[tuple, _Bucket]" = {}
            for item in items:
                if item is _CLOSE:
                    closing = True
                    continue
                if isinstance(item, _DrainToken):
                    drains.append(item)
                    continue
                bkey = item.request.batch_key
                bucket = buckets.get(bkey)
                if bucket is None:
                    bucket = buckets[bkey] = _Bucket()
                bucket.entries.append(item)
                bucket.n_options += len(item.request)
                if bucket.n_options >= self.config.max_batch:
                    self._flush(buckets.pop(bkey), "full")
            reason = "drain" if closing or drains else "deadline"
            for bucket in buckets.values():
                self._flush(bucket, reason)
            for token in drains:
                token.done.set()
            if closing:
                return

    def _merge(self, entries: "list[_Pending]") -> PricingRequest:
        """One engine-shaped request covering every bucket entry.

        A lone entry's request runs as is.  Otherwise entries share a
        ``batch_key``, so kernel/precision/family/task (and greeks
        bumps) agree; their column blocks are concatenated and depths
        carried per option (``group_stream`` regroups heterogeneous
        depths inside the run).  ``strict`` never matters here:
        :func:`~repro.api.run_request` records failures instead of
        raising, and each caller's own flag is applied when its slice
        of the result is resolved.
        """
        first = entries[0].request
        if len(entries) == 1:
            return first
        steps: "list[int]" = []
        for pending in entries:
            steps.extend(pending.request.steps_per_option())
        steps_spec: "int | tuple[int, ...]" = (
            steps[0] if len(set(steps)) == 1 else tuple(steps))
        columns = OptionArrays(np.concatenate(
            [pending.request.columns.block for pending in entries], axis=1))
        # joined from request blocks: read-only, so the merged request
        # shares it instead of copying and re-vetting it
        columns.block.setflags(write=False)
        return PricingRequest(
            columns=columns, steps=steps_spec, kernel=first.kernel,
            precision=first.precision, family=first.family, task=first.task,
            strict=False, backend=first.backend,
            bump_vol=first.bump_vol, bump_rate=first.bump_rate)

    @staticmethod
    def _engine_key(request: PricingRequest) -> tuple:
        return (request.kernel, request.precision, request.family.value,
                request.backend)

    def _engine_for(self, request: PricingRequest) -> PricingEngine:
        key = self._engine_key(request)
        engine = self._engines.get(key)
        if engine is None:
            config = self.config.engine_config
            if request.backend != "auto":
                config = replace(config if config is not None
                                 else EngineConfig(),
                                 backend=request.backend)
            engine = PricingEngine(
                kernel=request.kernel,
                profile=_engine_profile(request.precision),
                family=request.family, config=config,
                faults=self.config.faults,
                tracer=self._tracer if self._tracer.enabled else None)
            self._engines[key] = engine
        return engine

    def _flush(self, bucket: _Bucket, reason: str) -> None:
        flush_start = time.monotonic()
        # Claim every entry up front: expiry and caller-side
        # cancellation settle here (promoting in-flight followers), and
        # a claimed future can no longer be cancelled mid-flush.
        entries = [claimed for pending in bucket.entries
                   if (claimed := self._claim(pending, flush_start))
                   is not None]
        if not entries:
            return
        merged = self._merge(entries)
        # The tightest live deadline bounds how long any chunk of this
        # flush may hang (engine-side chunk timeout).
        deadline_s = None
        budgets = [p.deadline for p in entries if p.deadline is not None]
        if budgets:
            deadline_s = max(min(budgets) - flush_start, 1e-3)
        span = self._tracer.start_span(
            f"service.flush[{merged.task}:{merged.kernel}]", "flush",
            reason=reason, requests=len(entries), options=len(merged))
        self.metrics.flushes.inc()
        getattr(self.metrics, f"flush_{reason}").inc()
        self.metrics.mean_flush_options.observe(float(len(merged)))
        try:
            engine = self._engine_for(merged)
            if self._chaos is not None:
                self._chaos.on_flush()
            execute = span.child("execute", "engine", options=len(merged))
            try:
                result = run_request(engine, merged, deadline_s=deadline_s)
            finally:
                execute.end()
        except Exception as exc:
            # A flush-level failure (not per-option quarantine — the
            # engine turns those into records) must not take out every
            # coalesced neighbour: re-run each request on its own so
            # only the guilty one carries the error.
            span.annotate("flush failed; re-running requests individually",
                          error=type(exc).__name__)
            self._note_flush(failed=True)
            if isinstance(exc, EngineError):
                # The engine itself raised (closed, wedged, backend
                # gone) — a per-request re-run on the same engine
                # would fail the same way; let the supervisor swap it.
                self._supervise(merged, f"flush-level {type(exc).__name__}")
            self._flush_individually(entries, flush_start, span)
            span.end()
            return
        # A chunk given up on timeout may still hold one of the
        # engine's threads; swap the engine rather than keep pricing
        # on a short-handed one.
        timed_out = bool(result.stats is not None and result.stats.timeouts)
        self._note_flush(failed=False, degraded=timed_out)
        wedged = self._chaos is not None and self._chaos.wedge_engine()
        if timed_out or wedged:
            self._supervise(merged, "chaos-injected wedge" if wedged
                            else "engine timed out a chunk")
        scatter = span.child("scatter", "scatter", requests=len(entries))
        lo = 0
        for pending in entries:
            hi = lo + len(pending.request)
            self._settle(pending, self._slice_result(
                pending, result, lo, hi, len(merged), flush_start))
            lo = hi
        scatter.end()
        span.end()

    def _note_flush(self, *, failed: bool, degraded: bool = False) -> None:
        self._health.record_flush(failed=failed, degraded=degraded)
        self._sync_health()

    def _sync_health(self) -> None:
        """Mirror the health monitor into the service metrics."""
        transitions = self._health.transitions
        delta = transitions - self._health_transitions_seen
        if delta > 0:
            self.metrics.health_transitions.inc(float(delta))
            self._health_transitions_seen = transitions
        self.metrics.health_state.set(
            float(HEALTH_STATE_LEVEL[self._health.state]))

    def _supervise(self, request: PricingRequest, reason: str) -> None:
        """Replace the engine behind ``request`` if the budget allows.

        The monitor meters restarts (bounded per engine key, with
        exponential backoff); an exhausted budget pins the service
        ``UNHEALTHY`` and the wedged engine is kept — thrashing
        rebuilds is worse than honest unreadiness.  The next flush
        needing the engine rebuilds it lazily via ``_engine_for``.
        """
        key = self._engine_key(request)
        decision = self._health.request_restart(key)
        self._sync_health()
        if not decision.allowed:
            return
        engine = self._engines.pop(key, None)
        if engine is not None:
            engine.close()
        self.metrics.engine_restarts.inc()
        self._tracer.start_span(
            "service.engine_restart", "supervisor", reason=reason,
            backend=key[3], backoff_s=decision.backoff_s).end()
        if decision.backoff_s > 0:
            time.sleep(decision.backoff_s)

    def _slice_result(self, pending: _Pending, result, lo: int, hi: int,
                      batch_options: int, flush_start: float) -> ServiceResult:
        wait_s = max(0.0, flush_start - pending.enqueued)
        self.metrics.mean_wait_s.observe(wait_s)
        # A lone entry takes the flush's arrays and records whole.
        whole = hi - lo == batch_options
        failures = result.failures if whole else tuple(
            replace(record, index=record.index - lo)
            for record in result.failures if lo <= record.index < hi)
        columns = {}
        for column in RESULT_COLUMNS:
            array = getattr(result, column, None)
            columns[column] = (array if whole or array is None
                               else array[lo:hi])
        return ServiceResult(
            route="service",
            stats=result.stats, failures=failures, cache_hit=False,
            batch_options=batch_options, wait_s=wait_s, **columns)

    def _flush_individually(self, entries: "list[_Pending]",
                            flush_start: float, span) -> None:
        for pending in entries:
            single = pending.request
            deadline_s = None
            if pending.deadline is not None:
                deadline_s = max(pending.deadline - time.monotonic(), 1e-3)
            try:
                engine = self._engine_for(single)
                result = run_request(engine, single, deadline_s=deadline_s)
            except Exception as exc:  # noqa: BLE001 - scoped to this request
                self._fail(pending, exc)
                continue
            self._settle(pending, self._slice_result(
                pending, result, 0, len(single), len(single), flush_start))

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def ready(self) -> bool:
        """Readiness probe: open and not ``UNHEALTHY``.

        The shape a load balancer wants — ``DEGRADED`` still serves
        (prefer other replicas), ``UNHEALTHY`` or closed does not.
        """
        return (not self._closed
                and self._health.state is not HealthState.UNHEALTHY)

    def health(self) -> HealthReport:
        """Point-in-time health report (state, reason, counters)."""
        return self._health.report()

    def drain(self, timeout_s: "float | None" = None) -> bool:
        """Quiesce: flush everything admitted so far, bounded in time.

        Blocks until the coalescer has bucketed and flushed every
        request admitted before the call (later submits may ride
        along), or ``timeout_s`` elapsed — ``True`` when fully
        drained, ``False`` on timeout with work still in flight.  The
        service stays open either way; ``drain()`` then :meth:`close`
        is the graceful-shutdown sequence, and a ``False`` return is
        the signal to escalate (close anyway, or wait longer).
        Idempotent and safe from any thread; a closed service is
        already drained.
        """
        if self._closed or not self._thread.is_alive():
            return True
        token = _DrainToken()
        self._queue.put_control(token)
        return token.done.wait(timeout_s)

    def stats(self) -> Snapshot:
        """A live ``service`` stats snapshot (the final one is returned
        by :meth:`close`)."""
        if self._final_stats is not None:
            return self._final_stats
        return Snapshot.from_metrics(self.metrics,
                                     health=self._health.state.value)

    def close(self) -> Snapshot:
        """Drain, flush, shut down; returns the final stats snapshot.

        New submits are rejected immediately; everything already
        admitted is flushed (``flush_drain``) so no future is left
        unresolved.  Engines the service owns are closed and the
        service metrics merge into the process-wide registry.
        Idempotent — later calls return the same snapshot.
        """
        with self._lock:
            if self._closed:
                if self._final_stats is not None:
                    return self._final_stats
            self._closed = True
        if self._thread.is_alive():
            self._queue.put_control(_CLOSE)
            self._thread.join()
        # Reject anything that raced past the closed check after the
        # sentinel (the coalescer has exited and will never see it).
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if isinstance(item, _DrainToken):
                item.done.set()  # drained-by-close: nothing is queued
            elif item is not _CLOSE:
                self._fail(item, ServiceError(
                    "this PricingService closed before the request ran"))
        for engine in self._engines.values():
            engine.close()
        if self._final_stats is None:
            self._final_stats = Snapshot.from_metrics(
                self.metrics, health=self._health.state.value)
            self.metrics.publish()
        return self._final_stats

    def __enter__(self) -> "PricingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
