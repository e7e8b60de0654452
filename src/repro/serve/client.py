"""Blocking HTTP client for the sharded serving tier.

The reference consumer of the wire protocol (``docs/wire_schema.md``):
serialises a :class:`~repro.api.PricingRequest` with ``to_dict()``,
POSTs it to ``/v1/price`` over a kept-alive stdlib
:class:`http.client.HTTPConnection`, and rebuilds the
:class:`~repro.api.ServiceResult` with ``BatchResult.from_dict()`` —
so prices and greeks received over the network are *bitwise* equal to
what the shard computed.  Error envelopes come back as the typed
exceptions of :mod:`repro.errors` via their wire codes: catching
:class:`~repro.errors.DeadlineExceededError` works identically whether
the deadline expired locally or across the wire.

Thread-safety: one client holds one connection; use one client per
thread (the closed-loop bench does exactly that).
"""

from __future__ import annotations

import http.client
import json
import socket

from ..api import BatchResult, PricingRequest, ServiceResult
from ..errors import ReproError, ShardCrashError, error_from_wire

__all__ = ["ServeClient"]


class ServeClient:
    """Blocking client for one :class:`~repro.serve.PricingServer`.

    :param host: server host (as returned by ``PricingServer.host``).
    :param port: server port.
    :param timeout_s: socket timeout per exchange; ``None`` waits
        forever (deadlines are better expressed in the request's own
        ``deadline_ms``, which the *server* enforces).
    """

    def __init__(self, host: str, port: int,
                 timeout_s: "float | None" = None):
        self.host = host
        self.port = int(port)
        self.timeout_s = timeout_s
        self._conn: "http.client.HTTPConnection | None" = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s)
        return self._conn

    def _exchange(self, method: str, path: str,
                  body: "bytes | None" = None) -> "tuple[int, dict]":
        conn = self._connection()
        headers = {"Content-Type": "application/json"}
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            payload = response.read()
            status = response.status
        except (http.client.HTTPException, ConnectionError, socket.timeout,
                OSError) as exc:
            self.close()  # stale keep-alive; next call reconnects
            raise ShardCrashError(
                f"serve endpoint {self.host}:{self.port} "
                f"unreachable: {exc}") from exc
        try:
            document = json.loads(payload) if payload else {}
        except ValueError as exc:
            raise ReproError(
                f"serve endpoint returned non-JSON body: {exc}") from None
        return status, document

    # -- the request surface --------------------------------------------

    def price(self, request: PricingRequest) -> ServiceResult:
        """Price one request over the wire; typed errors re-raise."""
        body = json.dumps(request.to_dict()).encode("utf-8")
        status, document = self._exchange("POST", "/v1/price", body)
        error = document.get("error")
        if error is not None:
            raise error_from_wire(error.get("code", "internal"),
                                  error.get("message", f"HTTP {status}"))
        if status != 200 or "result" not in document:
            raise ReproError(
                f"serve endpoint answered HTTP {status} without a result")
        result = BatchResult.from_dict(document["result"])
        if not isinstance(result, ServiceResult):
            raise ReproError(
                f"serve endpoint returned a {type(result).__name__}, "
                f"expected a ServiceResult")
        return result

    def shard_of(self, request: PricingRequest) -> int:
        """Which shard served this request (routing diagnostics)."""
        body = json.dumps(request.to_dict()).encode("utf-8")
        status, document = self._exchange("POST", "/v1/price", body)
        error = document.get("error")
        if error is not None:
            raise error_from_wire(error.get("code", "internal"),
                                  error.get("message", f"HTTP {status}"))
        return int(document["shard"])

    def healthz(self) -> "tuple[int, dict]":
        """``(HTTP status, health document)`` — 503 once a shard is dead."""
        return self._exchange("GET", "/healthz")

    def stats(self) -> dict:
        """The server's ``repro-stats/v12`` document: ``serve`` (this
        server's stats) and ``shards`` (each shard's ``service`` stats,
        ``None`` for a dead slot)."""
        _status, document = self._exchange("GET", "/stats")
        return document

    def close(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            finally:
                self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
