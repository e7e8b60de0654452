"""One serving shard: a ``PricingService`` in a worker process.

The serving tier is shared-nothing: every shard is a separate OS
process owning a full :class:`~repro.service.PricingService` (its own
coalescer, admission queue, result cache and engines), fed over a
request queue and answered over a response queue.  The parent-side
:class:`ShardHandle` is the only object the asyncio front-end touches —
it hides the process, the queues, the reader thread and the result
transport.

Result transport: for every submit the parent pre-creates a
:class:`multiprocessing.shared_memory.SharedMemory` segment sized for
the request's payload columns (``n_options * 8`` bytes per column; one
column for ``task="price"``, six for greeks).  The shard writes the
float64 columns straight into the segment and sends only a small
metadata dict back over the queue — the arrays themselves never pass
through pickle.  When the segment cannot be created (platform limits,
``/dev/shm`` exhausted) the shard falls back to pickling the arrays
over the response queue; both paths are counted so the split is
observable.

Failure model: a shard that dies or stops answering pings fails its
in-flight futures with :class:`~repro.errors.ShardCrashError` and is
replaced by the server's supervisor (per-shard
:class:`~repro.service.health.HealthMonitor` budget permitting) —
siblings keep serving throughout.
"""

from __future__ import annotations

import mmap
import multiprocessing as mp
import os
import pickle
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..api import GREEKS_COLUMNS, PricingRequest, ServiceResult
from ..engine.reliability import FailureRecord
from ..engine.stats import EngineStats
from ..errors import ShardCrashError, error_from_wire, wire_error

__all__ = ["ShardHandle", "ShardTicket", "RESULT_COLUMNS"]

#: Payload columns in their one wire/shm order (price results use the
#: first; greeks results all six).
RESULT_COLUMNS = ("prices",) + GREEKS_COLUMNS


def _columns_for(task: str) -> "tuple[str, ...]":
    return RESULT_COLUMNS if task == "greeks" else RESULT_COLUMNS[:1]


# ---------------------------------------------------------------------------
# worker-process side


def _write_columns(result: ServiceResult, columns, shm_name: str) -> bool:
    """Copy the result's payload columns into the named segment.

    The segment is opened by mmap-ing ``/dev/shm`` directly instead of
    attaching a ``SharedMemory`` object: on POSIX (< 3.13) merely
    attaching registers the name with the shard's resource tracker,
    which then fights the parent (who owns create *and* unlink) over
    the registration — spurious leak warnings or double-unregister
    errors at shutdown depending on pipe ordering.  The raw mmap has no
    tracker side effects.  Platforms without ``/dev/shm`` fall back to
    a normal attach and accept the (harmless) tracker warnings.
    """
    n = len(result.prices)
    buffer = None
    segment = None
    try:
        fd = os.open(f"/dev/shm/{shm_name.lstrip('/')}", os.O_RDWR)
        try:
            buffer = mmap.mmap(fd, os.fstat(fd).st_size)
        finally:
            os.close(fd)
    except OSError:
        try:
            segment = shared_memory.SharedMemory(name=shm_name)
            buffer = segment.buf
        except (FileNotFoundError, OSError):
            return False
    try:
        view = np.ndarray((len(columns), n), dtype=np.float64,
                          buffer=buffer)
        for row, column in enumerate(columns):
            view[row, :] = getattr(result, column)
        view = None
        return True
    finally:
        if segment is not None:
            segment.close()
        elif buffer is not None:
            buffer.close()


def _result_meta(result: ServiceResult, columns) -> dict:
    return {
        "n": len(result.prices),
        "columns": list(columns),
        "route": result.route,
        "stats": None if result.stats is None else result.stats.as_dict(),
        "failures": [record.as_dict() for record in result.failures],
        "cache_hit": bool(result.cache_hit),
        "batch_options": int(result.batch_options),
        "wait_s": float(result.wait_s),
    }


def shard_main(index: int, config_bytes: bytes, request_q, response_q):
    """Entry point of one shard worker process.

    Builds a :class:`~repro.service.PricingService` from the pickled
    :class:`~repro.service.ServiceConfig` and dispatches queue messages
    until ``("stop",)``.  The dispatch loop itself never prices — the
    service's own threads do — so it stays responsive to pings and
    cancels while flushes run.
    """
    # imported here so the module picklers never drag the service in
    from ..service import PricingService

    config = pickle.loads(config_bytes)
    service = PricingService(config)
    futures: "dict[int, Future]" = {}

    def _respond(req_id: int, future: Future, shm_name: "str | None"):
        futures.pop(req_id, None)
        if future.cancelled():
            response_q.put(("cancelled", req_id))
            return
        error = future.exception()
        if error is not None:
            code, status = wire_error(error)
            response_q.put(("error", req_id, code, status, str(error)))
            return
        result = future.result()
        columns = [column for column in RESULT_COLUMNS
                   if getattr(result, column, None) is not None]
        meta = _result_meta(result, columns)
        if shm_name is not None and _write_columns(result, columns, shm_name):
            meta["transport"] = "shm"
            response_q.put(("result", req_id, meta))
        else:
            meta["transport"] = "pickle"
            meta["arrays"] = {column: np.asarray(getattr(result, column))
                              for column in columns}
            response_q.put(("result", req_id, meta))

    running = True
    while running:
        message = request_q.get()
        op = message[0]
        if op == "submit":
            _, req_id, request, shm_name = message
            try:
                future = service.submit(request)
            except BaseException as exc:  # overload, closed, chaos
                code, status = wire_error(exc)
                response_q.put(("error", req_id, code, status, str(exc)))
                continue
            futures[req_id] = future
            future.add_done_callback(
                lambda fut, rid=req_id, name=shm_name:
                _respond(rid, fut, name))
        elif op == "cancel":
            future = futures.get(message[1])
            if future is not None:
                future.cancel()  # no-op once flushing; callback answers
        elif op == "ping":
            response_q.put(("pong", message[1],
                            service.health().as_dict()))
        elif op == "stats":
            response_q.put(("stats", message[1], service.stats().as_dict()))
        elif op == "wedge":
            # test hook: stop dispatching (pings go unanswered) so the
            # supervisor's wedge detection can be exercised for real
            time.sleep(float(message[1]))
        elif op == "stop":
            stats = service.close().as_dict()
            response_q.put(("stopped", stats))
            running = False


# ---------------------------------------------------------------------------
# parent side


@dataclass(frozen=True)
class ShardTicket:
    """Parent-side record of one in-flight shard submit."""

    id: int
    shard: int
    future: "Future[ServiceResult]"


class _Pending:
    __slots__ = ("future", "request", "segment", "started")

    def __init__(self, future, request, segment):
        self.future = future
        self.request = request
        self.segment = segment
        self.started = time.monotonic()


class ShardHandle:
    """Parent-side control of one shard worker process.

    Thread-safe: the asyncio loop submits/cancels from its thread, the
    reader thread resolves futures, and the supervisor pings — all
    under one lock around the pending map.

    :param index: shard slot this process serves (stable across
        restarts; the ring routes to slots).
    :param service_config: the :class:`~repro.service.ServiceConfig`
        the worker builds its :class:`~repro.service.PricingService`
        from.
    :param use_shm: transport result columns through shared memory
        (pickle fallback remains available either way).
    :param generation: restart count of this slot, for observability.
    """

    def __init__(self, index: int, service_config, *, use_shm: bool = True,
                 generation: int = 0):
        self.index = int(index)
        self.generation = int(generation)
        self.use_shm = bool(use_shm)
        self._config_bytes = pickle.dumps(service_config)
        ctx = mp.get_context("fork" if hasattr(os, "fork") else "spawn")
        self._request_q = ctx.Queue()
        self._response_q = ctx.Queue()
        self._process = ctx.Process(
            target=shard_main,
            args=(self.index, self._config_bytes,
                  self._request_q, self._response_q),
            name=f"repro-shard-{self.index}.{self.generation}",
            daemon=True,
        )
        self._lock = threading.Lock()
        self._pending: "dict[int, _Pending]" = {}
        self._zombies: "dict[int, shared_memory.SharedMemory]" = {}
        self._sync: "dict[tuple, Future]" = {}
        self._next_id = 0
        self._next_seq = 0
        # (seq, monotonic time, health dict) of the last pong, swapped
        # as ONE tuple: the reader thread writes it, the supervisor
        # thread reads it, and a single reference assignment is atomic
        # — so `pong_age_s` can never pair a fresh seq with a stale
        # timestamp (or vice versa) the way three separate attribute
        # writes could.
        self._pong: "tuple[int, float, dict | None]" = (-1, 0.0, None)
        self._final_stats: "dict | None" = None
        self._closed = False
        self._reader = threading.Thread(
            target=self._read_responses,
            name=f"repro-shard-reader-{self.index}", daemon=True)
        self.shm_results = 0
        self.pickle_results = 0

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ShardHandle":
        self._process.start()
        self._reader.start()
        return self

    @property
    def alive(self) -> bool:
        return self._process.is_alive()

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._pending)

    def close(self, timeout_s: float = 10.0) -> "dict | None":
        """Graceful stop: drain the service, join, return final stats."""
        if self._closed:
            return self._final_stats
        self._closed = True
        try:
            self._request_q.put(("stop",))
        except (ValueError, OSError):
            pass
        self._process.join(timeout=timeout_s)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)
        self._abandon(ShardCrashError(
            f"shard {self.index} closed with requests in flight"))
        return self._final_stats

    def terminate(self, reason: str = "terminated") -> None:
        """Hard-kill the worker and fail everything in flight."""
        self._closed = True
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)
        self._abandon(ShardCrashError(
            f"shard {self.index} {reason}; retry against the restarted "
            f"server"))

    def _abandon(self, error: ShardCrashError) -> None:
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
            zombies = list(self._zombies.values())
            self._zombies.clear()
            sync = list(self._sync.values())
            self._sync.clear()
        for entry in pending:
            self._discard_segment(entry.segment)
            if not entry.future.done():
                entry.future.set_exception(error)
        for segment in zombies:
            self._discard_segment(segment)
        for future in sync:
            if not future.done():
                future.set_exception(error)

    @staticmethod
    def _discard_segment(segment) -> None:
        if segment is None:
            return
        try:
            segment.close()
            segment.unlink()
        except (FileNotFoundError, OSError):
            pass

    # -- request path ---------------------------------------------------

    def submit(self, request: PricingRequest) -> ShardTicket:
        """Queue one request on the shard; resolve via the ticket's future."""
        if self._closed or not self._process.is_alive():
            raise ShardCrashError(
                f"shard {self.index} is not running")
        segment = None
        if self.use_shm:
            size = len(request.options) * 8 * len(_columns_for(request.task))
            try:
                segment = shared_memory.SharedMemory(
                    create=True, size=max(size, 8))
            except (OSError, ValueError):
                segment = None  # pickle fallback
        future: "Future[ServiceResult]" = Future()
        with self._lock:
            req_id = self._next_id
            self._next_id += 1
            self._pending[req_id] = _Pending(future, request, segment)
        try:
            self._request_q.put(
                ("submit", req_id, request,
                 None if segment is None else segment.name))
        except (ValueError, OSError):
            with self._lock:
                self._pending.pop(req_id, None)
            self._discard_segment(segment)
            raise ShardCrashError(f"shard {self.index} queue is closed")
        return ShardTicket(id=req_id, shard=self.index, future=future)

    def cancel(self, ticket: ShardTicket) -> None:
        """Cancel an in-flight submit (client went away).

        The local future is cancelled immediately; the shard is told so
        the request is dropped from its admission queue if it has not
        flushed yet.  The pending entry stays parked as a zombie until
        the shard answers for this id, so a result that raced the
        cancel still gets its segment unlinked.
        """
        with self._lock:
            entry = self._pending.pop(ticket.id, None)
            if entry is not None and entry.segment is not None:
                self._zombies[ticket.id] = entry.segment
        if entry is not None:
            entry.future.cancel()
        try:
            self._request_q.put(("cancel", ticket.id))
        except (ValueError, OSError):
            pass

    # -- health / stats -------------------------------------------------

    def ping(self) -> int:
        """Send one ping; returns its sequence number."""
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
        try:
            self._request_q.put(("ping", seq))
        except (ValueError, OSError):
            pass
        return seq

    @property
    def pong_seq(self) -> int:
        return self._pong[0]

    @property
    def pong_age_s(self) -> float:
        """Seconds since the last pong (``inf`` before the first)."""
        _seq, pong_time, _health = self._pong
        if pong_time == 0.0:
            return float("inf")
        return time.monotonic() - pong_time

    @property
    def health(self) -> "dict | None":
        """The shard service's last reported health dict."""
        return self._pong[2]

    def stats(self, timeout_s: float = 5.0) -> "dict | None":
        """The shard service's stats document (None if unresponsive)."""
        future: Future = Future()
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            self._sync[("stats", seq)] = future
        try:
            try:
                self._request_q.put(("stats", seq))
            except (ValueError, OSError):
                return None
            try:
                return future.result(timeout=timeout_s)
            except Exception:
                return None
        finally:
            # The reader pops the entry when the shard answers; a
            # wedged shard never answers, and without this the
            # supervisor's periodic stats() calls would grow _sync
            # without bound.
            with self._lock:
                self._sync.pop(("stats", seq), None)

    def inject_wedge(self, seconds: float) -> None:
        """Test hook: make the dispatch loop unresponsive for a while."""
        self._request_q.put(("wedge", float(seconds)))

    # -- response path --------------------------------------------------

    def _read_responses(self) -> None:
        while True:
            try:
                message = self._response_q.get(timeout=0.2)
            except Exception:
                if self._closed and not self._process.is_alive():
                    return
                continue
            op = message[0]
            if op == "result":
                self._on_result(message[1], message[2])
            elif op == "error":
                self._on_error(*message[1:])
            elif op == "cancelled":
                self._on_cancelled(message[1])
            elif op == "pong":
                self._apply_pong(message[1], message[2])
            elif op == "stats":
                with self._lock:
                    future = self._sync.pop(("stats", message[1]), None)
                if future is not None and not future.done():
                    future.set_result(message[2])
            elif op == "stopped":
                self._final_stats = message[1]

    def _apply_pong(self, seq: int, health: "dict | None") -> None:
        """Record one pong: the triple is built first, swapped once."""
        now = time.monotonic()
        self._pong = (max(self._pong[0], seq), now, health)

    def _pop(self, req_id: int) -> "_Pending | None":
        with self._lock:
            entry = self._pending.pop(req_id, None)
            if entry is None:
                zombie = self._zombies.pop(req_id, None)
                if zombie is not None:
                    self._discard_segment(zombie)
            return entry

    def _on_result(self, req_id: int, meta: dict) -> None:
        entry = self._pop(req_id)
        if entry is None:
            return
        n = int(meta["n"])
        columns = meta["columns"]
        arrays: "dict[str, np.ndarray]" = {}
        if meta["transport"] == "shm" and entry.segment is not None:
            view = np.ndarray((len(columns), n), dtype=np.float64,
                              buffer=entry.segment.buf)
            for row, column in enumerate(columns):
                arrays[column] = view[row].copy()
            self.shm_results += 1
        else:
            for column in columns:
                arrays[column] = np.asarray(meta["arrays"][column],
                                            dtype=np.float64)
            self.pickle_results += 1
        self._discard_segment(entry.segment)
        result = ServiceResult(
            route=meta["route"],
            stats=(None if meta["stats"] is None
                   else EngineStats.from_dict("engine", meta["stats"])),
            failures=tuple(FailureRecord.from_dict(record)
                           for record in meta["failures"]),
            cache_hit=meta["cache_hit"],
            batch_options=meta["batch_options"],
            wait_s=meta["wait_s"],
            **arrays,
        )
        if not entry.future.done():
            entry.future.set_result(result)

    def _on_error(self, req_id: int, code: str, status: int,
                  message: str) -> None:
        entry = self._pop(req_id)
        if entry is None:
            return
        self._discard_segment(entry.segment)
        if not entry.future.done():
            entry.future.set_exception(error_from_wire(code, message))

    def _on_cancelled(self, req_id: int) -> None:
        entry = self._pop(req_id)
        if entry is None:
            return  # normal: parent-initiated cancel already parked it
        self._discard_segment(entry.segment)
        entry.future.cancel()
