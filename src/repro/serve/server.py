"""The asyncio HTTP front-end over the sharded serving tier.

One event loop accepts HTTP/1.1 connections on localhost, parses JSON
wire requests (:data:`~repro.api.WIRE_REQUEST_SCHEMA`), routes each on
its :attr:`~repro.api.PricingRequest.batch_key` through the consistent
:class:`~repro.serve.ring.HashRing`, and awaits the owning shard's
result without ever blocking the loop — the shards do all pricing in
their own processes.

Endpoints::

    POST /v1/price    one wire request -> one wire result (or a typed
                      error envelope; codes from repro.errors.WIRE_ERRORS)
    GET  /healthz     200 while every live shard answers pings,
                      503 once any slot is dead or wedged
    GET  /stats       the repro-stats/v12 document: this server's
                      ``serve`` section plus each shard's ``service``
                      section

Delivery semantics carried end-to-end: ``deadline_ms`` and
``priority`` ride inside the request and are enforced by the shard's
:class:`~repro.service.PricingService` (expiry, shedding); a client
that disconnects mid-request has its shard submit cancelled, so
abandoned work never occupies a flush slot.

Supervision: a per-slot :class:`~repro.service.health.HealthMonitor`
gives each shard a bounded restart budget.  The supervisor pings every
shard each interval; a dead process or a wedged dispatch loop (pings
unanswered past the miss limit) fails that shard's in-flight requests
with :class:`~repro.errors.ShardCrashError` and — budget permitting —
boots a replacement into the *same* ring slot, so no keys move and the
siblings keep serving throughout.
"""

from __future__ import annotations

import asyncio
import json
import threading
from dataclasses import dataclass

from ..errors import (
    CANCELLED_HTTP_STATUS,
    CANCELLED_WIRE_CODE,
    INTERNAL_HTTP_STATUS,
    INTERNAL_WIRE_CODE,
    ReproError,
    ServiceError,
    ShardCrashError,
    wire_error,
)
from ..api import PricingRequest
from ..obs import keys
from ..obs.metrics import LayerMetrics, Snapshot
from ..obs.trace import as_tracer
from ..service import HealthMonitor, HealthPolicy, ServiceConfig
from ..service.health import HEALTH_STATE_LEVEL
from .ring import HashRing
from .shard import ShardHandle

__all__ = ["PricingServer", "ServeConfig"]

#: Protocol tag of the HTTP response envelope (the body wrapping a
#: wire result or error).
SERVE_ENVELOPE_SCHEMA = "repro-serve/v1"

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 64 << 20

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    413: "Payload Too Large", 422: "Unprocessable Entity",
    499: "Client Closed Request", 500: "Internal Server Error",
    501: "Not Implemented", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of a :class:`PricingServer`.

    :param host: interface to bind (localhost by default — the tier is
        a data-centre-internal surface, not an internet-facing one).
    :param port: TCP port; 0 picks a free one (read it back from
        :attr:`PricingServer.port`).
    :param shards: shard worker processes (>= 1).
    :param replicas: virtual nodes per shard on the routing ring.
    :param service: the :class:`~repro.service.ServiceConfig` every
        shard builds its :class:`~repro.service.PricingService` from
        (defaults applied when ``None``).
    :param ping_interval_s: supervisor health-ping cadence.
    :param ping_miss_limit: unanswered pings after which a live-but-
        silent shard is declared wedged and restarted.
    :param health: per-shard :class:`~repro.service.HealthPolicy`
        (restart budget/backoff; defaults when ``None``).
    """

    host: str = "127.0.0.1"
    port: int = 0
    shards: int = 2
    replicas: int = 64
    service: "ServiceConfig | None" = None
    ping_interval_s: float = 0.25
    ping_miss_limit: int = 20
    health: "HealthPolicy | None" = None

    def __post_init__(self):
        if self.shards < 1:
            raise ServiceError(f"shards must be >= 1, got {self.shards}")
        if self.ping_interval_s <= 0:
            raise ServiceError(
                f"ping_interval_s must be > 0, got {self.ping_interval_s}")
        if self.ping_miss_limit < 1:
            raise ServiceError(
                f"ping_miss_limit must be >= 1, got {self.ping_miss_limit}")


class _Disconnect(Exception):
    """Peer closed the connection."""


class _HttpError(Exception):
    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code


class _Conn:
    """Buffered HTTP reader that survives the wait-for-result window.

    While a response future is pending the handler also watches the
    socket; bytes that arrive early (a pipelined request) are kept in
    the buffer, EOF means the client abandoned the request.  The
    single outstanding ``read_task`` is owned here so the two uses —
    parsing and disconnect-watching — never race on the stream.
    """

    def __init__(self, reader: asyncio.StreamReader):
        self.reader = reader
        self.buf = bytearray()
        self.read_task: "asyncio.Task | None" = None

    def _ensure_read(self) -> "asyncio.Task":
        if self.read_task is None:
            self.read_task = asyncio.ensure_future(self.reader.read(65536))
        return self.read_task

    async def _fill(self) -> None:
        task = self._ensure_read()
        data = await task
        self.read_task = None
        if not data:
            raise _Disconnect()
        self.buf += data

    async def read_until(self, sep: bytes, limit: int) -> bytes:
        while sep not in self.buf:
            if len(self.buf) > limit:
                raise _HttpError(413, "bad_request", "headers too large")
            await self._fill()
        index = self.buf.index(sep) + len(sep)
        chunk = bytes(self.buf[:index])
        del self.buf[:index]
        return chunk

    async def read_exactly(self, n: int) -> bytes:
        while len(self.buf) < n:
            await self._fill()
        chunk = bytes(self.buf[:n])
        del self.buf[:n]
        return chunk

    def at_eof_buffer_empty(self) -> bool:
        return not self.buf and self.reader.at_eof()


class PricingServer:
    """The sharded network front-end (see module docstring).

    Run it synchronously — ``start()`` boots the shards and the event
    loop in a background thread and returns once the socket is bound;
    ``stop()`` (or the context manager) drains everything back down::

        with PricingServer(ServeConfig(shards=2)) as server:
            client = ServeClient(server.host, server.port)
            result = client.price(request)

    :param config: :class:`ServeConfig` (defaults when ``None``).
    :param tracer: optional :class:`repro.obs.trace.Tracer`; every
        request gets one ``serve.request`` span carrying the routed
        shard, option count and wire status.
    """

    def __init__(self, config: "ServeConfig | None" = None, *, tracer=None):
        self.config = config or ServeConfig()
        self.tracer = as_tracer(tracer)
        self.metrics = LayerMetrics("serve")
        self._service_config = self.config.service or ServiceConfig()
        self._ring = HashRing(self.config.shards, self.config.replicas)
        self._shards: "list[ShardHandle | None]" = []
        self._monitors: "list[HealthMonitor]" = []
        self._dead: "dict[int, str]" = {}
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._thread: "threading.Thread | None" = None
        self._ready = threading.Event()
        self._stop_event: "asyncio.Event | None" = None
        self._server: "asyncio.base_events.Server | None" = None
        self._started = False
        self._closed = False
        self._bound: "tuple[str, int] | None" = None
        self._start_error: "BaseException | None" = None

    # -- lifecycle ------------------------------------------------------

    @property
    def host(self) -> str:
        return self._bound[0] if self._bound else self.config.host

    @property
    def port(self) -> int:
        if self._bound is None:
            raise ServiceError("server is not started")
        return self._bound[1]

    def start(self) -> "PricingServer":
        """Boot shards and the event loop; returns once bound."""
        if self._started:
            raise ServiceError("server already started")
        self._started = True
        policy = self.config.health or HealthPolicy()
        for index in range(self.config.shards):
            self._monitors.append(HealthMonitor(policy))
            handle = ShardHandle(index, self._service_config)
            self._shards.append(handle.start())
        self.metrics.shards.set(float(self.config.shards))
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serve-loop", daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._start_error is not None:
            error = self._start_error
            self.stop()
            raise ServiceError(f"server failed to start: {error}") from error
        return self

    def stop(self) -> Snapshot:
        """Graceful shutdown: loop, then shards; returns final stats."""
        if self._closed:
            return self.stats()
        self._closed = True
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(
                lambda: self._stop_event.set() if self._stop_event else None)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        for handle in self._shards:
            if handle is not None:
                handle.close()
        self.metrics.publish()
        return self.stats()

    def __enter__(self) -> "PricingServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stats(self) -> Snapshot:
        """Current ``serve`` stats snapshot."""
        return Snapshot.from_metrics(self.metrics,
                                     health=self._worst_health())

    def _worst_health(self) -> str:
        worst = "healthy"
        worst_level = -1
        for index, monitor in enumerate(self._monitors):
            state = monitor.report().state
            level = HEALTH_STATE_LEVEL[state]
            if index in self._dead:
                state_value, level = "unhealthy", 2
            else:
                state_value = state.value
            if level > worst_level:
                worst, worst_level = state_value, level
        return worst

    # -- event loop -----------------------------------------------------

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surface to start()
            if not self._ready.is_set():
                self._start_error = exc
                self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            self._server = await asyncio.start_server(
                self._on_connection, host=self.config.host,
                port=self.config.port)
        except OSError as exc:
            self._start_error = exc
            self._ready.set()
            return
        sock = self._server.sockets[0].getsockname()
        self._bound = (sock[0], sock[1])
        supervisor = asyncio.ensure_future(self._supervise())
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            supervisor.cancel()
            self._server.close()
            await self._server.wait_closed()

    async def _supervise(self) -> None:
        """Ping shards, restart dead/wedged ones within their budget."""
        interval = self.config.ping_interval_s
        while True:
            await asyncio.sleep(interval)
            for index in range(self.config.shards):
                if index in self._dead:
                    continue
                handle = self._shards[index]
                if handle is None:
                    continue
                monitor = self._monitors[index]
                sent = handle.ping()
                wedged = (sent - handle.pong_seq) > self.config.ping_miss_limit
                if handle.alive and not wedged:
                    monitor.record_flush(failed=False)
                    continue
                reason = ("process died" if not handle.alive else
                          f"unanswered pings past {self.config.ping_miss_limit}")
                monitor.record_flush(failed=True)
                await self._restart_shard(index, reason)

    async def _restart_shard(self, index: int, reason: str) -> None:
        handle = self._shards[index]
        monitor = self._monitors[index]
        decision = monitor.request_restart(("shard", index))
        handle.terminate(reason=f"restarting ({reason})")
        if not decision.allowed:
            # budget exhausted: pin the slot dead; routed requests fail
            # fast with shard_crash while the siblings keep serving
            self._dead[index] = reason
            self._shards[index] = None
            return
        if decision.backoff_s > 0:
            await asyncio.sleep(decision.backoff_s)
        replacement = ShardHandle(index, self._service_config,
                                  generation=handle.generation + 1)
        self._shards[index] = replacement.start()
        self.metrics.shard_restarts.inc()

    # -- HTTP surface ---------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        conn = _Conn(reader)
        try:
            await self._serve_connection(conn, writer)
        except asyncio.CancelledError:
            return  # loop shutdown: drop the connection quietly
        finally:
            if conn.read_task is not None:
                conn.read_task.cancel()
            try:
                writer.close()
            except Exception:
                pass

    async def _serve_connection(self, conn: "_Conn",
                                writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await self._read_http_request(conn)
                except _Disconnect:
                    return
                if request is None:
                    return
                method, path, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                try:
                    status, payload = await self._dispatch(
                        method, path, body, conn)
                except _HttpError as exc:
                    status = exc.status
                    payload = self._error_envelope(exc.code, str(exc))
                except _Disconnect:
                    return
                self._write_response(writer, status, payload, keep_alive)
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionError, _Disconnect):
            return

    async def _read_http_request(self, conn: _Conn):
        """Parse one request; ``None`` on clean EOF between requests."""
        try:
            head = await conn.read_until(b"\r\n\r\n", _MAX_HEADER_BYTES)
        except _Disconnect:
            if conn.at_eof_buffer_empty():
                return None
            raise
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise _HttpError(400, "bad_request",
                             f"malformed request line {lines[0]!r}")
        method, path, _version = parts
        headers: "dict[str, str]" = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY_BYTES:
            raise _HttpError(413, "bad_request",
                             f"body of {length} bytes exceeds the "
                             f"{_MAX_BODY_BYTES}-byte limit")
        body = await conn.read_exactly(length) if length else b""
        return method.upper(), path, headers, body

    async def _dispatch(self, method: str, path: str, body: bytes,
                        conn: _Conn) -> "tuple[int, dict]":
        if method == "POST" and path == "/v1/price":
            return await self._handle_price(body, conn)
        if method == "GET" and path == "/healthz":
            return self._handle_healthz()
        if method == "GET" and path == "/stats":
            return self._handle_stats()
        raise _HttpError(404, "bad_request", f"no route {method} {path}")

    @staticmethod
    def _error_envelope(code: str, message: str, shard: "int | None" = None
                        ) -> dict:
        payload = {"schema": SERVE_ENVELOPE_SCHEMA,
                   "error": {"code": code, "message": message}}
        if shard is not None:
            payload["shard"] = shard
        return payload

    async def _handle_price(self, body: bytes,
                            conn: _Conn) -> "tuple[int, dict]":
        self.metrics.requests.inc()
        started = self._loop.time()
        try:
            data = json.loads(body)
        except (ValueError, UnicodeDecodeError) as exc:
            self.metrics.bad_requests.inc()
            raise _HttpError(400, "bad_request",
                             f"request body is not JSON: {exc}") from None
        try:
            request = PricingRequest.from_dict(data)
        except ReproError as exc:
            self.metrics.bad_requests.inc()
            code, status = wire_error(exc)
            raise _HttpError(status, code, str(exc)) from None
        self.metrics.options.inc(len(request.options))
        shard_index = self._ring.route(request.batch_key)
        span = self.tracer.start_span(
            "serve.request", kind="serve", shard=shard_index,
            task=request.task, options=len(request.options),
            priority=request.priority)
        try:
            status, payload = await self._route_and_await(
                request, shard_index, conn, span)
        except _Disconnect:
            span.set(status=CANCELLED_WIRE_CODE).end()
            raise
        span.set(status=payload.get("error", {}).get("code", "ok"),
                 http_status=status)
        span.end()
        self.metrics.mean_request_s.observe(self._loop.time() - started)
        return status, payload

    async def _route_and_await(self, request: PricingRequest,
                               shard_index: int, conn: _Conn,
                               span) -> "tuple[int, dict]":
        handle = self._shards[shard_index]
        if handle is None:
            self.metrics.errors.inc()
            reason = self._dead.get(shard_index, "not running")
            return 503, self._error_envelope(
                "shard_crash", f"shard {shard_index} is down ({reason}) and "
                f"its restart budget is exhausted", shard_index)
        try:
            ticket = handle.submit(request)
        except ShardCrashError as exc:
            self.metrics.errors.inc()
            code, status = wire_error(exc)
            return status, self._error_envelope(code, str(exc), shard_index)
        result_future = asyncio.ensure_future(
            asyncio.wrap_future(ticket.future))
        span.annotate("routed", shard=shard_index,
                      generation=handle.generation)
        while not result_future.done():
            read_task = conn._ensure_read()
            done, _pending = await asyncio.wait(
                {result_future, read_task},
                return_when=asyncio.FIRST_COMPLETED)
            if read_task in done:
                conn.read_task = None
                data = read_task.result()
                if not data:
                    # client went away: cancel the shard-side work
                    handle.cancel(ticket)
                    result_future.cancel()
                    self.metrics.cancelled.inc()
                    raise _Disconnect()
                conn.buf += data  # pipelined bytes; keep waiting
        try:
            result = result_future.result()
        except asyncio.CancelledError:
            self.metrics.cancelled.inc()
            return CANCELLED_HTTP_STATUS, self._error_envelope(
                CANCELLED_WIRE_CODE, "request was cancelled", shard_index)
        except BaseException as exc:
            self.metrics.errors.inc()
            code, status = wire_error(exc)
            return status, self._error_envelope(code, str(exc), shard_index)
        self.metrics.responses.inc()
        return 200, {
            "schema": SERVE_ENVELOPE_SCHEMA,
            "shard": shard_index,
            "result": result.to_dict(),
        }

    def _handle_healthz(self) -> "tuple[int, dict]":
        shards = []
        healthy = True
        for index in range(self.config.shards):
            handle = self._shards[index]
            report = self._monitors[index].report().as_dict()
            entry = {
                "shard": index,
                "alive": handle is not None and handle.alive,
                "generation": 0 if handle is None else handle.generation,
                "supervisor": report,
                "service": None if handle is None else handle.health,
            }
            if index in self._dead:
                entry["dead"] = self._dead[index]
                healthy = False
            shards.append(entry)
        state = self._worst_health()
        status = 200 if healthy and state != "unhealthy" else 503
        return status, {"schema": SERVE_ENVELOPE_SCHEMA, "state": state,
                        "shards": shards}

    def _handle_stats(self) -> "tuple[int, dict]":
        return 200, {
            "schema": keys.STATS_SCHEMA,
            "serve": self.stats().as_dict(),
            "shards": [None if handle is None
                       else handle.stats(timeout_s=2.0)
                       for handle in self._shards],
        }

    @staticmethod
    def _write_response(writer: asyncio.StreamWriter, status: int,
                        payload: dict, keep_alive: bool) -> None:
        body = json.dumps(payload).encode("utf-8")
        text = _STATUS_TEXT.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {text}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
