"""`repro.service` — dynamic batching and caching over the engine.

See :mod:`repro.service.service` for the serving model (coalescing,
content-keyed caching, admission control, deadlines/priorities and
health supervision), :mod:`repro.service.chaos` for the deterministic
service-surface fault injector, and ``docs/service.md`` for the
user-facing contract.
"""

from .cache import CacheEntry, ResultCache, request_key
from .chaos import ChaosInjector, ChaosPlan
from .health import (
    HealthMonitor,
    HealthPolicy,
    HealthReport,
    HealthState,
    RestartDecision,
)
from .service import PricingService, ServiceConfig

__all__ = [
    "CacheEntry",
    "ChaosInjector",
    "ChaosPlan",
    "HealthMonitor",
    "HealthPolicy",
    "HealthReport",
    "HealthState",
    "PricingService",
    "RestartDecision",
    "ResultCache",
    "ServiceConfig",
    "request_key",
]
