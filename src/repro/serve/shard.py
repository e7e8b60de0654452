"""One serving shard: a ``PricingService`` in a worker process.

The serving tier is shared-nothing: every shard is a separate OS
process owning a full :class:`~repro.service.PricingService` (its own
coalescer, admission queue, result cache and engines), fed over a
request queue and answered over a response queue.  The parent-side
:class:`ShardHandle` is the only object the asyncio front-end touches —
it hides the process, the queues, the reader thread and the result
transport.

Result transport: the shard answers each submit with one message on
the response queue that carries the result's payload columns
(``prices``, plus the greeks columns for ``task="greeks"``) as float64
arrays next to a small metadata dict — one pickled pipe write, no
staging copy.

Failure model: a shard that dies or stops answering pings fails its
in-flight futures with :class:`~repro.errors.ShardCrashError` and is
replaced by the server's supervisor (per-shard
:class:`~repro.service.health.HealthMonitor` budget permitting) —
siblings keep serving throughout.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

from ..api import RESULT_COLUMNS, PricingRequest, ServiceResult
from ..engine.reliability import FailureRecord
from ..engine.stats import EngineStats
from ..errors import ShardCrashError, error_from_wire, wire_error

__all__ = ["ShardHandle", "ShardTicket", "RESULT_COLUMNS"]


# ---------------------------------------------------------------------------
# worker-process side


def _result_message(req_id: int, result: ServiceResult) -> tuple:
    """The one response-queue message that answers a submit."""
    return ("result", req_id, {
        "route": result.route,
        "stats": None if result.stats is None else result.stats.as_dict(),
        "failures": [record.as_dict() for record in result.failures],
        "cache_hit": bool(result.cache_hit),
        "batch_options": int(result.batch_options),
        "wait_s": float(result.wait_s),
        "arrays": {column: array for column in RESULT_COLUMNS
                   if (array := getattr(result, column)) is not None},
    })


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

    def _respond(req_id: int, future: Future):
        futures.pop(req_id, None)
        if future.cancelled():
            response_q.put(("cancelled", req_id))
            return
        error = future.exception()
        if error is not None:
            code, status = wire_error(error)
            response_q.put(("error", req_id, code, status, str(error)))
            return
        response_q.put(_result_message(req_id, future.result()))

    running = True
    while running:
        message = request_q.get()
        op = message[0]
        if op == "submit":
            _, req_id, request = message
            try:
                future = service.submit(request)
            except BaseException as exc:  # overload, closed, chaos
                code, status = wire_error(exc)
                response_q.put(("error", req_id, code, status, str(exc)))
                continue
            futures[req_id] = future
            future.add_done_callback(
                lambda fut, rid=req_id: _respond(rid, fut))
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
    :param generation: restart count of this slot, for observability.
    """

    def __init__(self, index: int, service_config, *, generation: int = 0):
        self.index = int(index)
        self.generation = int(generation)
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
        self._pending: "dict[int, Future[ServiceResult]]" = {}
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
            futures = [*self._pending.values(), *self._sync.values()]
            self._pending.clear()
            self._sync.clear()
        for future in futures:
            if not future.done():
                future.set_exception(error)

    # -- request path ---------------------------------------------------

    def submit(self, request: PricingRequest) -> ShardTicket:
        """Queue one request on the shard; resolve via the ticket's future."""
        if self._closed or not self._process.is_alive():
            raise ShardCrashError(
                f"shard {self.index} is not running")
        future: "Future[ServiceResult]" = Future()
        with self._lock:
            req_id = self._next_id
            self._next_id += 1
            self._pending[req_id] = future
        try:
            self._request_q.put(("submit", req_id, request))
        except (ValueError, OSError):
            with self._lock:
                self._pending.pop(req_id, None)
            raise ShardCrashError(f"shard {self.index} queue is closed")
        return ShardTicket(id=req_id, shard=self.index, future=future)

    def cancel(self, ticket: ShardTicket) -> None:
        """Cancel an in-flight submit (client went away).

        The local future is cancelled immediately; the shard is told so
        the request is dropped from its admission queue if it has not
        flushed yet.  A result that raced the cancel finds no pending
        entry and is dropped.
        """
        with self._lock:
            future = self._pending.pop(ticket.id, None)
        if future is not None:
            future.cancel()
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

    def _pop(self, req_id: int) -> "Future[ServiceResult] | None":
        with self._lock:
            return self._pending.pop(req_id, None)

    def _on_result(self, req_id: int, meta: dict) -> None:
        future = self._pop(req_id)
        if future is None:
            return
        result = ServiceResult(
            route=meta["route"],
            stats=(None if meta["stats"] is None
                   else EngineStats.from_dict("engine", meta["stats"])),
            failures=tuple(FailureRecord.from_dict(record)
                           for record in meta["failures"]),
            cache_hit=meta["cache_hit"],
            batch_options=meta["batch_options"],
            wait_s=meta["wait_s"],
            **meta["arrays"],
        )
        if not future.done():
            future.set_result(result)

    def _on_error(self, req_id: int, code: str, status: int,
                  message: str) -> None:
        future = self._pop(req_id)
        if future is not None and not future.done():
            future.set_exception(error_from_wire(code, message))

    def _on_cancelled(self, req_id: int) -> None:
        future = self._pop(req_id)
        if future is not None:
            future.cancel()
