"""Shared metric names and the stable engine-stats schema.

One place defines every observable name, so the metrics registry, the
``EngineStats`` snapshot, the bench-engine JSON document and the
Prometheus export can never drift apart.  ``docs/stats_schema.md``
documents the schema; ``tests/obs/test_schema.py`` asserts it.

Naming follows the Prometheus conventions: snake_case, a library
prefix, ``_total`` for counters, ``_seconds``/``_bytes`` units in the
name.
"""

from __future__ import annotations

__all__ = [
    "STATS_SCHEMA",
    "STATS_KEYS",
    "RELIABILITY_KEYS",
    "SERVICE_STATS_SCHEMA",
    "SERVICE_STATS_KEYS",
    "SERVICE_REQUESTS_TOTAL",
    "SERVICE_OPTIONS_TOTAL",
    "SERVICE_FLUSHES_TOTAL",
    "SERVICE_FLUSH_FULL_TOTAL",
    "SERVICE_FLUSH_DEADLINE_TOTAL",
    "SERVICE_FLUSH_DRAIN_TOTAL",
    "SERVICE_CACHE_HITS_TOTAL",
    "SERVICE_CACHE_MISSES_TOTAL",
    "SERVICE_CACHE_EVICTIONS_TOTAL",
    "SERVICE_CACHE_BYTES",
    "SERVICE_INFLIGHT_JOINS_TOTAL",
    "SERVICE_REJECTED_TOTAL",
    "SERVICE_DEADLINE_EXPIRED_TOTAL",
    "SERVICE_SHED_TOTAL",
    "SERVICE_CANCELLED_TOTAL",
    "SERVICE_ENGINE_RESTARTS_TOTAL",
    "SERVICE_HEALTH_TRANSITIONS_TOTAL",
    "SERVICE_HEALTH_STATE",
    "SERVICE_QUEUE_DEPTH",
    "SERVICE_WAIT_SECONDS",
    "SERVICE_FLUSH_OPTIONS",
    "SERVICE_STATS_TO_METRIC",
    "SERVE_STATS_SCHEMA",
    "SERVE_STATS_KEYS",
    "SERVE_REQUESTS_TOTAL",
    "SERVE_OPTIONS_TOTAL",
    "SERVE_RESPONSES_TOTAL",
    "SERVE_ERRORS_TOTAL",
    "SERVE_BAD_REQUESTS_TOTAL",
    "SERVE_CANCELLED_TOTAL",
    "SERVE_SHARD_RESTARTS_TOTAL",
    "SERVE_SHM_RESULTS_TOTAL",
    "SERVE_PICKLE_RESULTS_TOTAL",
    "SERVE_SHARDS",
    "SERVE_REQUEST_SECONDS",
    "SERVE_STATS_TO_METRIC",
    "STREAM_STATS_SCHEMA",
    "STREAM_STATS_KEYS",
    "STREAM_TICKS_TOTAL",
    "STREAM_SUPPRESSED_TICKS_TOTAL",
    "STREAM_DIRTY_MARKS_TOTAL",
    "STREAM_REVALUATIONS_TOTAL",
    "STREAM_REVAL_BATCHES_TOTAL",
    "STREAM_AGGREGATES_TOTAL",
    "STREAM_INSTRUMENTS",
    "STREAM_TICK_TO_RISK_SECONDS",
    "STREAM_STATS_TO_METRIC",
    "SWEEP_STATS_SCHEMA",
    "SWEEP_STATS_KEYS",
    "SWEEP_CELLS_TOTAL",
    "SWEEP_PRUNED_TOTAL",
    "SWEEP_EXECUTED_TOTAL",
    "SWEEP_DONE_TOTAL",
    "SWEEP_FAILED_TOTAL",
    "SWEEP_SKIPPED_TOTAL",
    "SWEEP_OPTIONS_TOTAL",
    "SWEEP_CELL_SECONDS",
    "SWEEP_STATS_TO_METRIC",
    "BACKEND_FALLBACK_TOTAL",
    "CHUNKS_TOTAL",
    "GROUPS_TOTAL",
    "OPTIONS_PRICED_TOTAL",
    "TREE_NODES_TOTAL",
    "GREEKS_OPTIONS_TOTAL",
    "BUMP_PASSES_TOTAL",
    "RETRIES_TOTAL",
    "TIMEOUTS_TOTAL",
    "POOL_REBUILDS_TOTAL",
    "DEGRADED_TO_SERIAL_TOTAL",
    "QUARANTINED_OPTIONS_TOTAL",
    "CHUNK_LATENCY_SECONDS",
    "RUN_WALL_SECONDS",
    "OPTIONS_PER_SECOND",
    "TREE_NODES_PER_SECOND",
    "PEAK_TILE_BYTES",
    "PCIE_BYTES_TOTAL",
    "PCIE_TRANSFERS_TOTAL",
    "QUEUE_COMMANDS_TOTAL",
    "QUEUE_SIMULATED_BUSY_SECONDS",
    "STATS_TO_METRIC",
]

#: Version tag of the engine statistics schema (bump on key changes).
#: v2 added the greeks-workload counters ``greeks_options`` and
#: ``bump_passes`` (zero on plain pricing runs).  v3 is the service
#: document (the two lines share one version counter).  v4 adds the
#: backend-attribution keys ``backend`` (which
#: :class:`~repro.backends.KernelBackend` priced the run),
#: ``backend_compile_seconds`` (one-time JIT/C compile cost this
#: process paid for it) and ``fused_greeks`` (1 when a greeks run took
#: the single-build fused path instead of five sibling passes).  v9
#: (the line continues after the sweep document's v8) drops the two
#: process-pool counters (pool rebuilds, degradation to serial): the
#: engine prices on threads and has no process pool any more.
STATS_SCHEMA = "repro-engine-stats/v9"

#: ``EngineStats.as_dict()`` keys, in their one canonical order.  The
#: bench-engine JSON ``runs`` entries use exactly these keys (plus the
#: harness-owned ``speedup_vs_baseline``).
STATS_KEYS = (
    "options",
    "tree_nodes",
    "groups",
    "chunks",
    "workers",
    "wall_time_s",
    "cpu_time_s",
    "peak_tile_bytes",
    "options_per_second",
    "tree_nodes_per_second",
    "retries",
    "timeouts",
    "quarantined_options",
    "greeks_options",
    "bump_passes",
    "backend",
    "backend_compile_seconds",
    "fused_greeks",
)

#: The subset of :data:`STATS_KEYS` that counts fault-tolerance events.
RELIABILITY_KEYS = (
    "retries",
    "timeouts",
    "quarantined_options",
)

# -- engine metrics --------------------------------------------------------

CHUNKS_TOTAL = "repro_engine_chunks_total"
GROUPS_TOTAL = "repro_engine_groups_total"
OPTIONS_PRICED_TOTAL = "repro_engine_options_priced_total"
TREE_NODES_TOTAL = "repro_engine_tree_nodes_total"
GREEKS_OPTIONS_TOTAL = "repro_engine_greeks_options_total"
BUMP_PASSES_TOTAL = "repro_engine_bump_passes_total"
RETRIES_TOTAL = "repro_engine_retries_total"
TIMEOUTS_TOTAL = "repro_engine_timeouts_total"
QUARANTINED_OPTIONS_TOTAL = "repro_engine_quarantined_options_total"
CHUNK_LATENCY_SECONDS = "repro_engine_chunk_latency_seconds"
RUN_WALL_SECONDS = "repro_engine_run_wall_seconds"
OPTIONS_PER_SECOND = "repro_engine_options_per_second"
TREE_NODES_PER_SECOND = "repro_engine_tree_nodes_per_second"
PEAK_TILE_BYTES = "repro_engine_peak_tile_bytes"

# -- pricing-service metrics -----------------------------------------------

#: Version tag of the *service* statistics schema.  The version counter
#: continues the engine schema's line (v1 engine, v2 greeks): v3 adds
#: the service/cache keys; v4 (backend attribution) touches only the
#: engine document, so the service line skips it — the two documents
#: share one version counter but are published under their own names.
#: v5 appends the robustness keys (``deadline_expired``, ``shed``,
#: ``cancelled``, ``engine_restarts``, ``health_transitions``,
#: ``health``) for per-request deadlines, priority load shedding and
#: the health/supervision state machine; every v3 key keeps its name,
#: type and position.
SERVICE_STATS_SCHEMA = "repro-service-stats/v5"

SERVICE_REQUESTS_TOTAL = "repro_service_requests_total"
SERVICE_OPTIONS_TOTAL = "repro_service_options_total"
SERVICE_FLUSHES_TOTAL = "repro_service_flushes_total"
SERVICE_FLUSH_FULL_TOTAL = "repro_service_flush_full_total"
SERVICE_FLUSH_DEADLINE_TOTAL = "repro_service_flush_deadline_total"
SERVICE_FLUSH_DRAIN_TOTAL = "repro_service_flush_drain_total"
SERVICE_CACHE_HITS_TOTAL = "repro_service_cache_hits_total"
SERVICE_CACHE_MISSES_TOTAL = "repro_service_cache_misses_total"
SERVICE_CACHE_EVICTIONS_TOTAL = "repro_service_cache_evictions_total"
SERVICE_CACHE_BYTES = "repro_service_cache_bytes"
SERVICE_INFLIGHT_JOINS_TOTAL = "repro_service_inflight_joins_total"
SERVICE_REJECTED_TOTAL = "repro_service_rejected_total"
SERVICE_DEADLINE_EXPIRED_TOTAL = "repro_service_deadline_expired_total"
SERVICE_SHED_TOTAL = "repro_service_shed_total"
SERVICE_CANCELLED_TOTAL = "repro_service_cancelled_total"
SERVICE_ENGINE_RESTARTS_TOTAL = "repro_service_engine_restarts_total"
SERVICE_HEALTH_TRANSITIONS_TOTAL = "repro_service_health_transitions_total"
SERVICE_HEALTH_STATE = "repro_service_health_state"
SERVICE_QUEUE_DEPTH = "repro_service_queue_depth"
SERVICE_WAIT_SECONDS = "repro_service_wait_seconds"
SERVICE_FLUSH_OPTIONS = "repro_service_flush_options"

#: ``ServiceStats.as_dict()`` keys, in their one canonical order
#: (mirrors :data:`STATS_KEYS` for the engine document).
SERVICE_STATS_KEYS = (
    "requests",
    "options",
    "flushes",
    "flush_full",
    "flush_deadline",
    "flush_drain",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "cache_bytes",
    "inflight_joins",
    "rejected",
    "mean_wait_s",
    "mean_flush_options",
    "deadline_expired",
    "shed",
    "cancelled",
    "engine_restarts",
    "health_transitions",
    "health",
)

#: Service stats-snapshot key -> the service metric it is derived from
#: (the counters; the two ``mean_*`` keys are histogram means and
#: ``health`` is snapshot-only, read from the health monitor).
SERVICE_STATS_TO_METRIC = {
    "requests": SERVICE_REQUESTS_TOTAL,
    "options": SERVICE_OPTIONS_TOTAL,
    "flushes": SERVICE_FLUSHES_TOTAL,
    "flush_full": SERVICE_FLUSH_FULL_TOTAL,
    "flush_deadline": SERVICE_FLUSH_DEADLINE_TOTAL,
    "flush_drain": SERVICE_FLUSH_DRAIN_TOTAL,
    "cache_hits": SERVICE_CACHE_HITS_TOTAL,
    "cache_misses": SERVICE_CACHE_MISSES_TOTAL,
    "cache_evictions": SERVICE_CACHE_EVICTIONS_TOTAL,
    "cache_bytes": SERVICE_CACHE_BYTES,
    "inflight_joins": SERVICE_INFLIGHT_JOINS_TOTAL,
    "rejected": SERVICE_REJECTED_TOTAL,
    "deadline_expired": SERVICE_DEADLINE_EXPIRED_TOTAL,
    "shed": SERVICE_SHED_TOTAL,
    "cancelled": SERVICE_CANCELLED_TOTAL,
    "engine_restarts": SERVICE_ENGINE_RESTARTS_TOTAL,
    "health_transitions": SERVICE_HEALTH_TRANSITIONS_TOTAL,
}

# -- serving-tier (network front-end) metrics ------------------------------

#: Version tag of the *serve* statistics document.  The version counter
#: continues the engine/service line (v4 engine, v5 service): v6 is the
#: sharded network front-end's own document — per-connection request
#: accounting, routed-shard distribution, the shared-memory vs pickle
#: result transport split, and supervisor shard restarts.  Published
#: under its own name; the engine and service documents are unchanged.
SERVE_STATS_SCHEMA = "repro-serve-stats/v6"

SERVE_REQUESTS_TOTAL = "repro_serve_requests_total"
SERVE_OPTIONS_TOTAL = "repro_serve_options_total"
SERVE_RESPONSES_TOTAL = "repro_serve_responses_total"
SERVE_ERRORS_TOTAL = "repro_serve_errors_total"
SERVE_BAD_REQUESTS_TOTAL = "repro_serve_bad_requests_total"
SERVE_CANCELLED_TOTAL = "repro_serve_cancelled_total"
SERVE_SHARD_RESTARTS_TOTAL = "repro_serve_shard_restarts_total"
SERVE_SHM_RESULTS_TOTAL = "repro_serve_shm_results_total"
SERVE_PICKLE_RESULTS_TOTAL = "repro_serve_pickle_results_total"
SERVE_SHARDS = "repro_serve_shards"
SERVE_REQUEST_SECONDS = "repro_serve_request_seconds"

#: ``ServeStats.as_dict()`` keys, in their one canonical order
#: (mirrors :data:`STATS_KEYS`/:data:`SERVICE_STATS_KEYS`).
SERVE_STATS_KEYS = (
    "requests",
    "options",
    "responses",
    "errors",
    "bad_requests",
    "cancelled",
    "shard_restarts",
    "shm_results",
    "pickle_results",
    "shards",
    "mean_request_s",
    "health",
)

#: Serve stats-snapshot key -> the serve metric it is derived from
#: (the counters; ``shards`` is a gauge, ``mean_request_s`` a histogram
#: mean and ``health`` is snapshot-only, read from the shard set).
SERVE_STATS_TO_METRIC = {
    "requests": SERVE_REQUESTS_TOTAL,
    "options": SERVE_OPTIONS_TOTAL,
    "responses": SERVE_RESPONSES_TOTAL,
    "errors": SERVE_ERRORS_TOTAL,
    "bad_requests": SERVE_BAD_REQUESTS_TOTAL,
    "cancelled": SERVE_CANCELLED_TOTAL,
    "shard_restarts": SERVE_SHARD_RESTARTS_TOTAL,
    "shm_results": SERVE_SHM_RESULTS_TOTAL,
    "pickle_results": SERVE_PICKLE_RESULTS_TOTAL,
}

# -- streaming-risk (incremental revaluation) metrics ----------------------

#: Version tag of the *stream* statistics document.  The version
#: counter continues the engine/service/serve line (v4/v5/v6): v7 is
#: the streaming risk loop's own document — tick ingestion, the
#: tolerance gate (dirty marks vs suppressed revaluations), coalesced
#: revaluation batches, published aggregates and the tick-to-risk
#: latency histogram.  Published by
#: :meth:`repro.stream.StreamStats.as_dict` under ``"schema"``.
STREAM_STATS_SCHEMA = "repro-stream-stats/v7"

STREAM_TICKS_TOTAL = "repro_stream_ticks_total"
STREAM_SUPPRESSED_TICKS_TOTAL = "repro_stream_suppressed_ticks_total"
STREAM_DIRTY_MARKS_TOTAL = "repro_stream_dirty_marks_total"
STREAM_REVALUATIONS_TOTAL = "repro_stream_revaluations_total"
STREAM_REVAL_BATCHES_TOTAL = "repro_stream_reval_batches_total"
STREAM_AGGREGATES_TOTAL = "repro_stream_aggregates_total"
STREAM_INSTRUMENTS = "repro_stream_instruments"
STREAM_TICK_TO_RISK_SECONDS = "repro_stream_tick_to_risk_seconds"

#: ``StreamStats.as_dict()`` keys, in their one canonical order
#: (mirrors :data:`STATS_KEYS`/:data:`SERVICE_STATS_KEYS`).
STREAM_STATS_KEYS = (
    "ticks",
    "suppressed_ticks",
    "dirty_marks",
    "revaluations",
    "reval_batches",
    "aggregates",
    "instruments",
    "mean_tick_to_risk_s",
)

#: Stream stats-snapshot key -> the stream metric it is derived from
#: (the counters; ``instruments`` is a gauge and
#: ``mean_tick_to_risk_s`` a histogram mean).
STREAM_STATS_TO_METRIC = {
    "ticks": STREAM_TICKS_TOTAL,
    "suppressed_ticks": STREAM_SUPPRESSED_TICKS_TOTAL,
    "dirty_marks": STREAM_DIRTY_MARKS_TOTAL,
    "revaluations": STREAM_REVALUATIONS_TOTAL,
    "reval_batches": STREAM_REVAL_BATCHES_TOTAL,
    "aggregates": STREAM_AGGREGATES_TOTAL,
}

# -- scenario-sweep (experiment grid) metrics ------------------------------

#: Version tag of the *sweep* statistics document.  The version
#: counter continues the engine/service/serve/stream line
#: (v4/v5/v6/v7): v8 is the scenario-sweep runner's own document —
#: grid size, constraint pruning, executed vs resumed-over cells, the
#: done/failed split, options priced through the service, and the
#: per-cell wall-clock histogram.  Published by
#: :meth:`repro.sweep.SweepStats.as_dict` under ``"schema"``.
SWEEP_STATS_SCHEMA = "repro-sweep-stats/v8"

SWEEP_CELLS_TOTAL = "repro_sweep_cells_total"
SWEEP_PRUNED_TOTAL = "repro_sweep_cells_pruned_total"
SWEEP_EXECUTED_TOTAL = "repro_sweep_cells_executed_total"
SWEEP_DONE_TOTAL = "repro_sweep_cells_done_total"
SWEEP_FAILED_TOTAL = "repro_sweep_cells_failed_total"
SWEEP_SKIPPED_TOTAL = "repro_sweep_cells_skipped_total"
SWEEP_OPTIONS_TOTAL = "repro_sweep_options_total"
SWEEP_CELL_SECONDS = "repro_sweep_cell_seconds"

#: ``SweepStats.as_dict()`` keys, in their one canonical order
#: (mirrors :data:`STATS_KEYS`/:data:`SERVICE_STATS_KEYS`).
SWEEP_STATS_KEYS = (
    "cells",
    "pruned",
    "executed",
    "done",
    "failed",
    "skipped",
    "options",
    "mean_cell_s",
)

#: Sweep stats-snapshot key -> the sweep metric it is derived from
#: (the counters; ``mean_cell_s`` is a histogram mean).
SWEEP_STATS_TO_METRIC = {
    "cells": SWEEP_CELLS_TOTAL,
    "pruned": SWEEP_PRUNED_TOTAL,
    "executed": SWEEP_EXECUTED_TOTAL,
    "done": SWEEP_DONE_TOTAL,
    "failed": SWEEP_FAILED_TOTAL,
    "skipped": SWEEP_SKIPPED_TOTAL,
    "options": SWEEP_OPTIONS_TOTAL,
}

# -- backend-resolution metrics --------------------------------------------

#: Counts ``auto`` backend resolutions that had to skip an unavailable
#: candidate (labelled by the skipped ``backend`` name), so a broken
#: toolchain that silently demotes every engine to the NumPy path is
#: visible in the process-wide export instead of only as a one-shot
#: warning.
BACKEND_FALLBACK_TOTAL = "repro_backend_fallback_total"

# -- simulated device-stack metrics ---------------------------------------

PCIE_BYTES_TOTAL = "repro_link_pcie_bytes_total"
PCIE_TRANSFERS_TOTAL = "repro_link_pcie_transfers_total"
QUEUE_COMMANDS_TOTAL = "repro_queue_commands_total"
QUEUE_SIMULATED_BUSY_SECONDS = "repro_queue_simulated_busy_seconds_total"

#: Stats-snapshot key -> the run-scoped metric it is derived from.
#: ``EngineStats``'s reliability fields are read straight out of the
#: run's metrics registry through this mapping (the registry is the
#: source of truth; the dataclass is its frozen snapshot).
STATS_TO_METRIC = {
    "groups": GROUPS_TOTAL,
    "chunks": CHUNKS_TOTAL,
    "options": OPTIONS_PRICED_TOTAL,
    "tree_nodes": TREE_NODES_TOTAL,
    "retries": RETRIES_TOTAL,
    "timeouts": TIMEOUTS_TOTAL,
    "quarantined_options": QUARANTINED_OPTIONS_TOTAL,
    "greeks_options": GREEKS_OPTIONS_TOTAL,
    "bump_passes": BUMP_PASSES_TOTAL,
}
