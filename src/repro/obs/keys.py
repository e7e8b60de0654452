"""One declaration of every layer's stats keys and metric families.

Each layer of the stack — ``engine``, ``service``, ``serve``,
``stream``, ``sweep`` — declares its stats-snapshot keys here once, in
their one canonical order.  A key is one of four kinds:

* ``counter`` — a Prometheus counter; the snapshot reads its total;
* ``gauge`` — a Prometheus gauge; the snapshot reads its value;
* ``histogram`` — a Prometheus histogram; the snapshot reads its mean;
* ``value`` — a run value the owner passes when it takes the snapshot
  (the engine's ``workers``/``wall_time_s``/``backend``, a service's
  ``health``); it has no metric family.

Metric families that back no snapshot key (the engine's chunk-latency
and run-wall histograms, the service's queue-depth and health-state
gauges) are declared beside the keys as the layer's ``export`` set.
:class:`repro.obs.metrics.LayerMetrics` builds a layer's scoped
registry from this declaration and :class:`repro.obs.metrics.Snapshot`
is the frozen snapshot every layer returns, so the registry, the
snapshot, the bench JSON, ``GET /stats`` and the Prometheus export
cannot drift apart.  ``docs/stats_schema.md`` documents the keys;
``tests/obs/test_schema.py`` asserts them.

Naming follows the Prometheus conventions: snake_case, a library
prefix, ``_total`` for counters, ``_seconds``/``_bytes`` units in the
name.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "STATS_SCHEMA",
    "COUNTER",
    "GAUGE",
    "HISTOGRAM",
    "VALUE",
    "DEFAULT_LATENCY_BUCKETS",
    "Key",
    "Layer",
    "ENGINE",
    "SERVICE",
    "SERVE",
    "STREAM",
    "SWEEP",
    "LAYERS",
    "BACKEND_FALLBACK_TOTAL",
    "PCIE_BYTES_TOTAL",
    "PCIE_TRANSFERS_TOTAL",
    "QUEUE_COMMANDS_TOTAL",
    "QUEUE_SIMULATED_BUSY_SECONDS",
]

#: Version tag of the one stats document (bump on any key change).
#: v11 replaced the five per-layer tags (engine v10, service v5, serve
#: v6, stream v7, sweep v8); v12 drops the serve layer's
#: ``shm_results``/``pickle_results`` with the shared-memory transport.
#: ``docs/stats_schema.md`` maps them.
STATS_SCHEMA = "repro-stats/v12"

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"
VALUE = "value"

#: Latency histogram buckets (seconds): sub-millisecond tiles up to
#: multi-second stragglers, then +Inf.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Key(NamedTuple):
    """One declared stats key (or export-only metric family).

    :param name: snapshot key, and the attribute name of the metric
        handle on :class:`~repro.obs.metrics.LayerMetrics`.
    :param kind: :data:`COUNTER`, :data:`GAUGE`, :data:`HISTOGRAM` or
        :data:`VALUE`.
    :param metric: Prometheus family name (empty for a value key).
    :param help: Prometheus help text.
    :param type: the snapshot value's type (``int``, ``float``,
        ``str``).
    :param default: the snapshot value before anything was counted.
    :param buckets: histogram bucket bounds.
    """

    name: str
    kind: str
    metric: str = ""
    help: str = ""
    type: type = int
    default: object = 0
    buckets: tuple = ()


class Layer(NamedTuple):
    """One layer's declaration: snapshot keys in order, then the
    metric families it exports without a snapshot key."""

    name: str
    keys: "tuple[Key, ...]"
    export: "tuple[Key, ...]" = ()

    @property
    def names(self) -> "tuple[str, ...]":
        """The snapshot keys, in ``as_dict`` order."""
        return tuple(key.name for key in self.keys)

    def metric(self, name: str) -> str:
        """The Prometheus family name behind key (or export) ``name``."""
        for key in self.keys + self.export:
            if key.name == name and key.metric:
                return key.metric
        raise KeyError(f"{self.name} layer has no metric {name!r}")


def _counter(name: str, metric: str, help: str) -> Key:
    return Key(name, COUNTER, metric, help)


def _gauge(name: str, metric: str, help: str, type: type = int) -> Key:
    return Key(name, GAUGE, metric, help, type, type())


def _histogram(name: str, metric: str, help: str,
               buckets: "tuple[float, ...]" = DEFAULT_LATENCY_BUCKETS) -> Key:
    return Key(name, HISTOGRAM, metric, help, float, 0.0, buckets)


def _value(name: str, type: type = int, default: object = None) -> Key:
    return Key(name, VALUE, type=type,
               default=type() if default is None else default)


#: One :meth:`repro.engine.PricingEngine.run` (or ``run_greeks``):
#: what was priced, how it was scheduled, how fast, which backend.
ENGINE = Layer("engine", keys=(
    _counter("options", "repro_engine_options_priced_total",
             "Options priced by the engine"),
    _counter("tree_nodes", "repro_engine_tree_nodes_total",
             "Tree-node updates performed (the paper's throughput unit)"),
    _counter("groups", "repro_engine_groups_total",
             "Homogeneous (steps, family, profile) groups"),
    _counter("chunks", "repro_engine_chunks_total",
             "Chunks planned by the scheduler"),
    _value("workers"),
    _value("wall_time_s", float),
    _value("cpu_time_s", float),
    _gauge("peak_tile_bytes", "repro_engine_peak_tile_bytes",
           "Workspace high-water mark of the largest thread"),
    _gauge("options_per_second", "repro_engine_options_per_second",
           "Throughput of the most recent engine run", float),
    _gauge("tree_nodes_per_second", "repro_engine_tree_nodes_per_second",
           "Node-update throughput of the most recent engine run", float),
    _counter("retries", "repro_engine_retries_total",
             "Chunk attempts re-dispatched after a failure"),
    _counter("timeouts", "repro_engine_timeouts_total",
             "Chunks given up after overrunning chunk_timeout_s"),
    _counter("quarantined_options", "repro_engine_quarantined_options_total",
             "Options isolated by quarantine bisection (NaN + FailureRecord)"),
    _counter("greeks_options", "repro_engine_greeks_options_total",
             "Options whose full greeks set was computed (run_greeks)"),
    _counter("bump_passes", "repro_engine_bump_passes_total",
             "Bump-and-reprice passes scheduled for vega/rho differences"),
    _value("backend", str, "numpy"),
    _value("backend_compile_seconds", float),
), export=(
    _histogram("chunk_latency", "repro_engine_chunk_latency_seconds",
               "Wall-clock latency of completed chunk pricing attempts"),
    _histogram("run_wall", "repro_engine_run_wall_seconds",
               "End-to-end wall time of engine runs",
               (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)),
))

#: One :class:`repro.service.PricingService` over its lifetime.
SERVICE = Layer("service", keys=(
    _counter("requests", "repro_service_requests_total",
             "Requests accepted by submit()"),
    _counter("options", "repro_service_options_total",
             "Options across accepted requests"),
    _counter("flushes", "repro_service_flushes_total",
             "Coalesced engine flushes executed"),
    _counter("flush_full", "repro_service_flush_full_total",
             "Flushes triggered by max_batch"),
    _counter("flush_deadline", "repro_service_flush_deadline_total",
             "Under-full flushes made once the admission queue was empty"),
    _counter("flush_drain", "repro_service_flush_drain_total",
             "Flushes triggered by close() or drain()"),
    _counter("cache_hits", "repro_service_cache_hits_total",
             "Requests answered from the result cache"),
    _counter("cache_misses", "repro_service_cache_misses_total",
             "Requests that had to be computed"),
    _counter("cache_evictions", "repro_service_cache_evictions_total",
             "Entries evicted to stay inside cache_bytes"),
    _gauge("cache_bytes", "repro_service_cache_bytes",
           "Result-cache payload bytes in use"),
    _counter("inflight_joins", "repro_service_inflight_joins_total",
             "Requests that joined an identical in-flight computation"),
    _counter("rejected", "repro_service_rejected_total",
             "Submits refused with ServiceOverloadedError"),
    _histogram("mean_wait_s", "repro_service_wait_seconds",
               "Per-request time from submit to flush start",
               (0.0005, 0.001, 0.002, 0.005, 0.01, 0.05, 0.1, 1.0)),
    _histogram("mean_flush_options", "repro_service_flush_options",
               "Merged batch size per flush, in options",
               (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)),
    _counter("deadline_expired", "repro_service_deadline_expired_total",
             "Futures failed with DeadlineExceededError"),
    _counter("shed", "repro_service_shed_total",
             "Queued normal-priority entries shed to admit high-priority "
             "work"),
    _counter("cancelled", "repro_service_cancelled_total",
             "Requests cancelled by their caller before flushing"),
    _counter("engine_restarts", "repro_service_engine_restarts_total",
             "Wedged shared engines replaced by the supervisor"),
    _counter("health_transitions", "repro_service_health_transitions_total",
             "Health state-machine transitions"),
    _value("health", str, "healthy"),
), export=(
    _gauge("queue_depth", "repro_service_queue_depth",
           "Admission-queue depth after the last enqueue/dequeue"),
    _gauge("health_state", "repro_service_health_state",
           "Service health (0 healthy, 1 degraded, 2 unhealthy)"),
))

#: One :class:`repro.serve.PricingServer` (the HTTP front-end).
SERVE = Layer("serve", keys=(
    _counter("requests", "repro_serve_requests_total",
             "Pricing requests received"),
    _counter("options", "repro_serve_options_total",
             "Options across received requests"),
    _counter("responses", "repro_serve_responses_total",
             "Successful pricing responses"),
    _counter("errors", "repro_serve_errors_total", "Typed error responses"),
    _counter("bad_requests", "repro_serve_bad_requests_total",
             "Requests rejected before routing (parse/schema)"),
    _counter("cancelled", "repro_serve_cancelled_total",
             "Requests cancelled by client disconnect"),
    _counter("shard_restarts", "repro_serve_shard_restarts_total",
             "Shard worker processes replaced by the supervisor"),
    _gauge("shards", "repro_serve_shards", "Configured shard slots"),
    _histogram("mean_request_s", "repro_serve_request_seconds",
               "End-to-end request latency at the server",
               (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)),
    _value("health", str, "healthy"),
))

#: One :class:`repro.stream.StreamRunner` (incremental revaluation).
STREAM = Layer("stream", keys=(
    _counter("ticks", "repro_stream_ticks_total",
             "Market-data ticks applied"),
    _counter("suppressed_ticks", "repro_stream_suppressed_ticks_total",
             "Ticks whose move stayed inside tolerance (revaluation "
             "suppressed)"),
    _counter("dirty_marks", "repro_stream_dirty_marks_total",
             "Clean->dirty transitions caused by material ticks"),
    _counter("revaluations", "repro_stream_revaluations_total",
             "Instruments repriced by the revaluation loop"),
    _counter("reval_batches", "repro_stream_reval_batches_total",
             "Coalesced revaluation batches submitted"),
    _counter("aggregates", "repro_stream_aggregates_total",
             "Portfolio aggregates published"),
    _gauge("instruments", "repro_stream_instruments",
           "Positions in the book"),
    _histogram("mean_tick_to_risk_s", "repro_stream_tick_to_risk_seconds",
               "Tick applied -> covering aggregate published",
               (0.0005, 0.001, 0.002, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                0.5, 1.0, 5.0)),
))

#: One :meth:`repro.sweep.SweepRunner.run` pass over a grid.
SWEEP = Layer("sweep", keys=(
    _counter("cells", "repro_sweep_cells_total",
             "Grid cells after constraint pruning"),
    _counter("pruned", "repro_sweep_cells_pruned_total",
             "Grid cells removed by constraints"),
    _counter("executed", "repro_sweep_cells_executed_total",
             "Cells run by this pass"),
    _counter("done", "repro_sweep_cells_done_total",
             "Cells committed as done"),
    _counter("failed", "repro_sweep_cells_failed_total",
             "Cells committed as failed"),
    _counter("skipped", "repro_sweep_cells_skipped_total",
             "Cells already terminal in the store (resumed over)"),
    _counter("options", "repro_sweep_options_total",
             "Options priced by done cells"),
    _histogram("mean_cell_s", "repro_sweep_cell_seconds",
               "Wall-clock time of one executed cell"),
))

#: Every layer's declaration by name.
LAYERS = {layer.name: layer for layer in (ENGINE, SERVICE, SERVE, STREAM,
                                          SWEEP)}

# -- metrics outside any stats snapshot ------------------------------------

#: Counts ``auto`` backend resolutions that had to skip an unavailable
#: candidate (labelled by the skipped ``backend`` name), so a broken
#: toolchain that silently demotes every engine to the NumPy path is
#: visible in the process-wide export instead of only as a one-shot
#: warning.
BACKEND_FALLBACK_TOTAL = "repro_backend_fallback_total"

#: The simulated device stack (PCIe link, command queues).
PCIE_BYTES_TOTAL = "repro_link_pcie_bytes_total"
PCIE_TRANSFERS_TOTAL = "repro_link_pcie_transfers_total"
QUEUE_COMMANDS_TOTAL = "repro_queue_commands_total"
QUEUE_SIMULATED_BUSY_SECONDS = "repro_queue_simulated_busy_seconds_total"
