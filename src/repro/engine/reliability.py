"""Retry, backoff and failure records for the engine.

The policy half of fault tolerance (the mechanics — what a fault *is*
— live in :mod:`repro.engine.faults`):

* :class:`RetryPolicy` — per-chunk retry budget, exponential backoff
  with **deterministic** jitter (seeded per ``(key, attempt)``, so two
  replays of the same failing run sleep the same schedule), and the
  optional wall-clock chunk deadline.
* :class:`FailureRecord` — the structured per-option result of
  quarantine: a poison option is returned as NaN plus one of these in
  :attr:`~repro.engine.engine.EngineResult.failures`, instead of
  failing the other N-1 options in the batch.
* :func:`retry_call` — a generic retrying wrapper used by host
  programs around recoverable transport errors (the paper's
  host/device interaction layer is exactly where the deployment
  literature expects transient failures).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

__all__ = [
    "FailureRecord",
    "RetryPolicy",
    "retry_call",
]


@dataclass(frozen=True)
class FailureRecord:
    """Why one option of a batch could not be priced.

    :param index: position in the caller's option stream (the matching
        entry of ``EngineResult.prices`` is NaN).
    :param error: exception class name (taxonomy of
        :mod:`repro.errors`, e.g. ``"PoisonChunkError"``).
    :param message: human-readable detail from the final failure.
    :param attempts: pricing attempts spent on the isolated option
        before it was quarantined.
    :param exception: the original exception object (when available),
        so strict callers (``PricingEngine.price``) can re-raise it
        with its real type; excluded from equality and ``as_dict``.
    """

    index: int
    error: str
    message: str
    attempts: int
    exception: Optional[BaseException] = field(default=None, compare=False,
                                               repr=False)

    def as_dict(self) -> dict:
        """JSON-ready form (mirrors ``EngineStats.as_dict``)."""
        return {
            "index": self.index,
            "error": self.error,
            "message": self.message,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FailureRecord":
        """Rebuild a record from :meth:`as_dict` output.

        The wire form carries no live exception object, so strict
        callers on the far side of a network boundary re-raise a
        typed exception reconstructed from ``error`` (see
        :func:`repro.errors.error_from_wire`) rather than the
        original instance; ``index`` stays in the request-local space
        the serialising side scoped it to.
        """
        return cls(
            index=int(data["index"]),
            error=str(data["error"]),
            message=str(data["message"]),
            attempts=int(data["attempts"]),
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and backoff schedule for one unit of work.

    :param max_retries: additional attempts after the first failure.
    :param backoff_base_s: first-retry backoff ceiling; attempt ``k``
        waits up to ``backoff_base_s * 2**k`` (capped at
        :attr:`max_backoff_s`).  ``0`` disables sleeping entirely.
    :param chunk_timeout_s: how long a threaded run waits for one
        chunk before giving it up (an inline run cannot preempt
        itself); ``None`` waits forever.
    :param max_backoff_s: backoff ceiling, keeping the exponential
        schedule bounded.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    chunk_timeout_s: Optional[float] = None
    max_backoff_s: float = 2.0

    @classmethod
    def from_config(cls, config) -> "RetryPolicy":
        """Build from an ``EngineConfig`` (duck-typed on field names)."""
        return cls(
            max_retries=config.max_retries,
            backoff_base_s=config.backoff_base_s,
            chunk_timeout_s=config.chunk_timeout_s,
        )

    def clamp_timeout(self, deadline_s: "float | None") -> "RetryPolicy":
        """This policy with ``chunk_timeout_s`` bounded by a deadline.

        Serving callers propagate a request deadline into the flush
        that carries it: a chunk may never wait longer than the time
        the caller is still willing to wait.  ``None`` (no deadline)
        returns ``self`` unchanged, as does a configured timeout that
        is already tighter.  The bound is floored at one millisecond so
        a nearly-expired deadline still produces a valid timeout
        instead of an instant spurious :class:`ChunkTimeoutError`.
        """
        if deadline_s is None:
            return self
        bound = max(float(deadline_s), 1e-3)
        if self.chunk_timeout_s is not None and self.chunk_timeout_s <= bound:
            return self
        return replace(self, chunk_timeout_s=bound)

    def backoff_s(self, key: str, attempt: int) -> float:
        """Deterministic jittered backoff before retry ``attempt``.

        Exponential ceiling with half-jitter; the jitter is drawn from
        ``random.Random(f"{key}:{attempt}")`` so a replay of the same
        failing chunk sleeps the same schedule (and different chunks
        retrying simultaneously still decorrelate).
        """
        if self.backoff_base_s <= 0.0:
            return 0.0
        ceiling = min(self.backoff_base_s * (2.0 ** attempt),
                      self.max_backoff_s)
        jitter = random.Random(f"{key}:{attempt}").random()
        return ceiling * (0.5 + 0.5 * jitter)


def retry_call(
    fn: Callable,
    policy: RetryPolicy = RetryPolicy(),
    key: str = "call",
    retry_on: "tuple[type[BaseException], ...]" = (Exception,),
    sleep: Callable[[float], None] = time.sleep,
    on_retry: "Callable[[int, BaseException], None] | None" = None,
    span=None,
):
    """Call ``fn`` with the policy's retry/backoff schedule.

    Retries only exceptions matching ``retry_on``; the final failure
    propagates unchanged.  ``on_retry(attempt, exc)`` observes each
    retry (used by tests and by callers keeping counters), and a
    :class:`~repro.obs.trace.Span` passed as ``span`` receives one
    timestamped ``retry`` annotation per re-attempt.
    """
    for attempt in range(policy.max_retries + 1):
        try:
            return fn()
        except retry_on as exc:
            if attempt >= policy.max_retries:
                raise
            if on_retry is not None:
                on_retry(attempt, exc)
            if span is not None:
                span.annotate("retry", attempt=attempt + 1,
                              error=type(exc).__name__)
            delay = policy.backoff_s(key, attempt)
            if delay > 0.0:
                sleep(delay)
