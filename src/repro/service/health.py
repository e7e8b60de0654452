"""Service health state machine and engine restart supervision.

The serving layer needs an answer to "should traffic be routed here?"
that is cheaper and earlier than waiting for requests to fail.  This
module provides it as a small, thread-safe state machine fed by the
signals the engine already emits — flush-level failures, chunks given
up on timeout (``timeouts`` in
:class:`~repro.engine.stats.EngineStats`) — plus the supervisor's own
restart bookkeeping:

* ``HEALTHY`` — recent flushes succeeded; route traffic normally.
* ``DEGRADED`` — the service is still answering but something is
  wrong: a flush failed (its requests re-ran individually), an engine
  degraded to serial, or the windowed failure rate crossed the
  policy threshold.  A load balancer should prefer other replicas.
* ``UNHEALTHY`` — consecutive failures crossed the threshold or an
  engine exhausted its restart budget; readiness probes should fail.

The monitor never acts on its own — :class:`repro.service.PricingService`
asks :meth:`HealthMonitor.request_restart` before replacing a wedged
shared engine, and the *bounded budget with exponential backoff* lives
here so the policy is testable without a service.
"""

from __future__ import annotations

import enum
import threading
from collections import deque
from dataclasses import dataclass

from ..errors import ServiceError

__all__ = [
    "HealthState",
    "HealthPolicy",
    "HealthReport",
    "RestartDecision",
    "HealthMonitor",
    "HEALTH_STATE_LEVEL",
]


class HealthState(enum.Enum):
    """Service-level health, coarse enough for a readiness probe."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    UNHEALTHY = "unhealthy"


#: Numeric encoding used by the ``repro_service_health_state`` gauge
#: (0 = healthy, 1 = degraded, 2 = unhealthy — higher is worse).
HEALTH_STATE_LEVEL = {
    HealthState.HEALTHY: 0,
    HealthState.DEGRADED: 1,
    HealthState.UNHEALTHY: 2,
}


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds driving the state machine and the restart budget.

    :param window: sliding window of recent flushes the failure rate
        is computed over.
    :param degraded_failure_rate: windowed failure-rate threshold at
        or above which the service reports ``DEGRADED``.
    :param unhealthy_consecutive_failures: consecutive flush failures
        at which the service reports ``UNHEALTHY``.
    :param recover_after: consecutive *clean* flushes required to
        return to ``HEALTHY`` from a degraded/unhealthy state.
    :param restart_limit: engine replacements allowed per engine
        configuration over the service's lifetime; exhausting it pins
        the service ``UNHEALTHY`` (the engine is genuinely wedged,
        replacing it again would thrash).
    :param restart_backoff_s: base of the exponential backoff slept
        before restart ``k`` (``restart_backoff_s * 2**k``).
    """

    window: int = 16
    degraded_failure_rate: float = 0.25
    unhealthy_consecutive_failures: int = 3
    recover_after: int = 8
    restart_limit: int = 2
    restart_backoff_s: float = 0.02

    def __post_init__(self):
        if self.window < 1:
            raise ServiceError(f"window must be >= 1, got {self.window}")
        if not 0.0 < self.degraded_failure_rate <= 1.0:
            raise ServiceError(
                f"degraded_failure_rate must be in (0, 1], "
                f"got {self.degraded_failure_rate}")
        if self.unhealthy_consecutive_failures < 1:
            raise ServiceError(
                f"unhealthy_consecutive_failures must be >= 1, "
                f"got {self.unhealthy_consecutive_failures}")
        if self.recover_after < 1:
            raise ServiceError(
                f"recover_after must be >= 1, got {self.recover_after}")
        if self.restart_limit < 0:
            raise ServiceError(
                f"restart_limit must be >= 0, got {self.restart_limit}")
        if self.restart_backoff_s < 0:
            raise ServiceError(
                f"restart_backoff_s must be >= 0, "
                f"got {self.restart_backoff_s}")


@dataclass(frozen=True)
class RestartDecision:
    """Supervisor verdict on replacing one engine.

    :param allowed: ``True`` when the budget still covers a restart.
    :param backoff_s: deterministic exponential delay to sleep before
        rebuilding (0.0 when not allowed).
    """

    allowed: bool
    backoff_s: float = 0.0


@dataclass(frozen=True)
class HealthReport:
    """Point-in-time snapshot returned by ``PricingService.health()``."""

    state: HealthState
    reason: str
    flushes: int
    failures: int
    consecutive_failures: int
    engine_restarts: int
    restart_budget_exhausted: bool
    transitions: int

    def as_dict(self) -> dict:
        """JSON-ready form (state collapsed to its string value)."""
        return {
            "state": self.state.value,
            "reason": self.reason,
            "flushes": self.flushes,
            "failures": self.failures,
            "consecutive_failures": self.consecutive_failures,
            "engine_restarts": self.engine_restarts,
            "restart_budget_exhausted": self.restart_budget_exhausted,
            "transitions": self.transitions,
        }


class HealthMonitor:
    """Thread-safe health state machine fed by flush outcomes.

    The coalescer thread records every flush; any thread may read the
    state or the report.  Transitions are monotone per event: a failed
    or degraded flush moves toward ``DEGRADED``/``UNHEALTHY``, a clean
    streak of :attr:`HealthPolicy.recover_after` flushes moves back to
    ``HEALTHY`` — unless an engine restart budget was exhausted, which
    pins ``UNHEALTHY`` for the rest of the service's life.
    """

    def __init__(self, policy: "HealthPolicy | None" = None):
        self.policy = policy or HealthPolicy()
        self._lock = threading.Lock()
        self._window: "deque[bool]" = deque(maxlen=self.policy.window)
        self._state = HealthState.HEALTHY
        self._reason = "no flushes yet"
        self._flushes = 0
        self._failures = 0
        self._consecutive_failures = 0
        self._clean_streak = 0
        self._restarts: "dict[tuple, int]" = {}
        self._exhausted = False
        self._transitions = 0

    @property
    def state(self) -> HealthState:
        with self._lock:
            return self._state

    @property
    def transitions(self) -> int:
        """State changes since construction (monotone counter)."""
        with self._lock:
            return self._transitions

    def record_flush(self, *, failed: bool,
                     degraded: bool = False) -> HealthState:
        """Feed one flush outcome; returns the (possibly new) state.

        :param failed: the flush raised at the batch level (its
            requests were retried individually).
        :param degraded: the flush succeeded but the engine gave up a
            chunk on timeout (``timeouts``).
        """
        with self._lock:
            self._flushes += 1
            self._window.append(bool(failed))
            if failed:
                self._failures += 1
                self._consecutive_failures += 1
                self._clean_streak = 0
            else:
                self._consecutive_failures = 0
                self._clean_streak += 1
            rate = sum(self._window) / len(self._window)
            policy = self.policy
            if self._exhausted:
                pass  # pinned UNHEALTHY; _set_state below is a no-op
            elif (self._consecutive_failures
                    >= policy.unhealthy_consecutive_failures):
                self._set_state(
                    HealthState.UNHEALTHY,
                    f"{self._consecutive_failures} consecutive flush "
                    f"failures")
            elif failed:
                self._set_state(HealthState.DEGRADED,
                                "flush failed; requests re-ran individually")
            elif degraded:
                self._set_state(HealthState.DEGRADED,
                                "engine gave up a chunk on timeout")
            elif rate >= policy.degraded_failure_rate:
                self._set_state(
                    HealthState.DEGRADED,
                    f"windowed failure rate {rate:.2f} >= "
                    f"{policy.degraded_failure_rate:g}")
            elif (self._state is not HealthState.HEALTHY
                    and self._clean_streak >= policy.recover_after):
                self._set_state(
                    HealthState.HEALTHY,
                    f"recovered after {self._clean_streak} clean flushes")
            elif self._state is HealthState.HEALTHY:
                self._reason = "recent flushes clean"
            return self._state

    def request_restart(self, key: tuple) -> RestartDecision:
        """May the engine behind ``key`` be replaced?

        Counts against a per-key budget; the decision carries the
        exponential backoff to sleep before the rebuild.  Exhausting
        the budget pins the monitor ``UNHEALTHY`` — the supervisor
        must then keep the wedged engine and let the operator decide.
        """
        with self._lock:
            used = self._restarts.get(key, 0)
            if used >= self.policy.restart_limit:
                self._exhausted = True
                self._set_state(
                    HealthState.UNHEALTHY,
                    f"engine {key!r} exhausted its restart budget "
                    f"({self.policy.restart_limit})")
                return RestartDecision(allowed=False)
            self._restarts[key] = used + 1
            return RestartDecision(
                allowed=True,
                backoff_s=self.policy.restart_backoff_s * (2.0 ** used))

    def report(self) -> HealthReport:
        """Consistent snapshot of the monitor's counters and state."""
        with self._lock:
            return HealthReport(
                state=self._state,
                reason=self._reason,
                flushes=self._flushes,
                failures=self._failures,
                consecutive_failures=self._consecutive_failures,
                engine_restarts=sum(self._restarts.values()),
                restart_budget_exhausted=self._exhausted,
                transitions=self._transitions,
            )

    def _set_state(self, state: HealthState, reason: str) -> None:
        # caller holds the lock
        if self._exhausted and state is not HealthState.UNHEALTHY:
            return
        if state is not self._state:
            self._state = state
            self._transitions += 1
        self._reason = reason
