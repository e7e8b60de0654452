"""Batched pricing engine: host-side scheduling for the kernel paths.

The paper scales by mapping one option to one work-group and packing
work-groups onto compute units; this subsystem applies the same idea
to the host reproduction — group, tile, fan out, reuse buffers —
without changing a single arithmetic operation:

* :mod:`~repro.engine.workspace` — preallocated, growable tile pool
  the backward-induction loop runs in;
* :mod:`~repro.engine.scheduler` — stream grouping, cache-budgeted
  chunk planning and the per-chunk pricing call;
* :mod:`~repro.engine.stats` — measured options/s, tree-nodes/s and
  scheduling counters, convertible to Table II rows;
* :mod:`~repro.engine.reliability` — retry/backoff policy and
  quarantine failure records;
* :mod:`~repro.engine.faults` — deterministic, seeded fault injection
  (chunk faults and simulated transport failures);
* :mod:`~repro.engine.engine` — the :class:`PricingEngine` facade.
"""

from .engine import (
    EngineConfig,
    EngineResult,
    GreeksEngineResult,
    PricingEngine,
)
from .faults import (
    ALWAYS,
    FaultKind,
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
    TransportFaultInjector,
)
from .reliability import (
    FailureRecord,
    RetryPolicy,
    retry_call,
)
from .scheduler import (
    KERNELS,
    TASKS,
    Chunk,
    greeks_chunk,
    group_stream,
    plan_chunks,
    price_chunk,
    split_chunk,
)
from .stats import EngineStats
from .workspace import Workspace, kernel_tile_bytes

__all__ = [
    "PricingEngine",
    "EngineConfig",
    "EngineResult",
    "GreeksEngineResult",
    "EngineStats",
    "Workspace",
    "kernel_tile_bytes",
    "Chunk",
    "KERNELS",
    "TASKS",
    "greeks_chunk",
    "group_stream",
    "plan_chunks",
    "price_chunk",
    "split_chunk",
    "ALWAYS",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "InjectedFaultError",
    "TransportFaultInjector",
    "FailureRecord",
    "RetryPolicy",
    "retry_call",
]
