"""Execution statistics of one engine run, derived from metrics.

The paper's Table II measures accelerators in options/s and tree
nodes/s; :class:`EngineStats` reports the same units for the *host*
engine (plus scheduling detail: chunk count, tile footprint, wall and
CPU time), and converts into the existing
:class:`~repro.core.metrics.PerformanceRow` machinery so engine
measurements can sit in the same tables as the modeled devices.

Since the observability layer (PR 3) the counters are no longer ad-hoc
attributes threaded through the engine: every run counts into a
run-scoped :class:`~repro.obs.metrics.MetricsRegistry`
(:class:`RunMetrics`), the frozen :class:`EngineStats` is a *snapshot
derived from that registry* (:meth:`EngineStats.from_run`), and the
run's registry is then merged into the process-wide registry
(:func:`repro.obs.metrics.get_registry`) for Prometheus export.  The
snapshot keys — :data:`repro.obs.keys.STATS_KEYS` — are the one stable
snake_case schema shared with the bench-engine JSON (see
``docs/stats_schema.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.metrics import PerformanceRow
from ..obs import keys
from ..obs.metrics import MetricsRegistry, get_registry

__all__ = ["EngineStats", "RunMetrics"]


class RunMetrics:
    """Run-scoped metrics the engine counts into while pricing.

    One is created per :meth:`PricingEngine.run`; the cached metric
    handles keep the hot path to one method call per event.  When the
    run completes, :meth:`publish` folds the registry into the
    process-wide one and :meth:`EngineStats.from_run` freezes the
    snapshot the caller receives.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        reg = self.registry
        self.options = reg.counter(
            keys.OPTIONS_PRICED_TOTAL, "Options priced by the engine")
        self.tree_nodes = reg.counter(
            keys.TREE_NODES_TOTAL,
            "Tree-node updates performed (the paper's throughput unit)")
        self.groups = reg.counter(
            keys.GROUPS_TOTAL, "Homogeneous (steps, family, profile) groups")
        self.chunks = reg.counter(
            keys.CHUNKS_TOTAL, "Chunks planned by the scheduler")
        self.retries = reg.counter(
            keys.RETRIES_TOTAL, "Chunk attempts re-dispatched after a failure")
        self.timeouts = reg.counter(
            keys.TIMEOUTS_TOTAL,
            "Chunks given up after overrunning chunk_timeout_s")
        self.quarantined_options = reg.counter(
            keys.QUARANTINED_OPTIONS_TOTAL,
            "Options isolated by quarantine bisection (NaN + FailureRecord)")
        self.greeks_options = reg.counter(
            keys.GREEKS_OPTIONS_TOTAL,
            "Options whose full greeks set was computed (run_greeks)")
        self.bump_passes = reg.counter(
            keys.BUMP_PASSES_TOTAL,
            "Bump-and-reprice passes scheduled for vega/rho differences")
        self.chunk_latency = reg.histogram(
            keys.CHUNK_LATENCY_SECONDS,
            "Wall-clock latency of completed chunk pricing attempts")
        self.run_wall = reg.histogram(
            keys.RUN_WALL_SECONDS,
            "End-to-end wall time of engine runs",
            buckets=(0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0))
        # Seed a zero sample in every counter so a clean run still
        # exposes retries_total/quarantined_options_total = 0 in the
        # Prometheus text (absent-vs-zero is ambiguous to scrapers).
        for handle in (self.options, self.tree_nodes, self.groups,
                       self.chunks, self.retries, self.timeouts,
                       self.quarantined_options, self.greeks_options,
                       self.bump_passes):
            handle.inc(0.0)

    def finalise(self, wall_time_s: float, options_per_second: float,
                 tree_nodes_per_second: float, peak_tile_bytes: int) -> None:
        """Record the run-level gauges once the clock has stopped."""
        reg = self.registry
        self.run_wall.observe(wall_time_s)
        reg.gauge(keys.OPTIONS_PER_SECOND,
                  "Throughput of the most recent engine run"
                  ).set(options_per_second)
        reg.gauge(keys.TREE_NODES_PER_SECOND,
                  "Node-update throughput of the most recent engine run"
                  ).set(tree_nodes_per_second)
        reg.gauge(keys.PEAK_TILE_BYTES,
                  "Workspace high-water mark of the largest thread"
                  ).set(peak_tile_bytes)

    def publish(self) -> None:
        """Merge this run's registry into the process-wide registry."""
        get_registry().merge(self.registry)


@dataclass(frozen=True)
class EngineStats:
    """What one :meth:`PricingEngine.run` call did and how fast.

    :param options: options priced.
    :param tree_nodes: total node updates (interior + leaves, the
        paper's throughput unit, summed over the possibly
        heterogeneous per-option depths).
    :param groups: homogeneous ``(steps, family, profile)`` groups the
        stream was split into.
    :param chunks: tiles dispatched across all groups.
    :param workers: pricing threads used (1 = inline on the caller).
    :param wall_time_s: end-to-end wall-clock time of the run.
    :param cpu_time_s: CPU time of the whole process, every pricing
        thread included.
    :param peak_tile_bytes: workspace high-water mark of the largest
        thread (preallocated S/V tiles + scratch).
    :param retries: chunk attempts re-dispatched after a failure
        (pricing exception, simulated crash or non-finite prices).
    :param timeouts: chunks given up after overrunning
        ``chunk_timeout_s`` (their options come back NaN with
        ``ChunkTimeoutError`` records).
    :param quarantined_options: options isolated by quarantine
        bisection and returned as NaN with a
        :class:`~repro.engine.reliability.FailureRecord`.
    :param greeks_options: options whose full greeks set was computed
        (``run_greeks`` only; ``options`` then counts every tree
        pricing including the bump passes).
    :param bump_passes: vega/rho bump-and-reprice passes scheduled as
        sibling chunk groups (4 per greeks run, 0 otherwise).
    :param backend: name of the :class:`~repro.backends.KernelBackend`
        that priced the run (``"numpy"`` or ``"cnative"``).
    :param backend_compile_seconds: one-time compile cost this process
        paid to make that backend runnable (0.0 for NumPy, or when a
        compiled backend was already warm/disk-cached).
    :param fused_greeks: 1 when a greeks run took the single-build
        fused path (lattice params + leaves built once, bump variants
        sharing the blocked workspace), 0 for five sibling passes and
        for plain pricing runs.
    """

    options: int
    tree_nodes: int
    groups: int
    chunks: int
    workers: int
    wall_time_s: float
    cpu_time_s: float
    peak_tile_bytes: int
    retries: int = 0
    timeouts: int = 0
    quarantined_options: int = 0
    greeks_options: int = 0
    bump_passes: int = 0
    backend: str = "numpy"
    backend_compile_seconds: float = 0.0
    fused_greeks: int = 0

    @classmethod
    def from_run(cls, metrics: RunMetrics, *, workers: int,
                 wall_time_s: float, cpu_time_s: float,
                 peak_tile_bytes: int, backend: str = "numpy",
                 backend_compile_seconds: float = 0.0,
                 fused_greeks: int = 0) -> "EngineStats":
        """Freeze a run's registry into the public snapshot.

        The count fields are read back through
        :data:`repro.obs.keys.STATS_TO_METRIC`, so a counter the
        engine forgot to wire shows up as a zero here and fails the
        schema test — the registry is the single source of truth.  The
        backend-attribution fields are run configuration, not counters,
        and arrive as explicit keyword arguments.
        """
        registry = metrics.registry
        counts = {
            stat: int(registry.value(metric))
            for stat, metric in keys.STATS_TO_METRIC.items()
        }
        return cls(workers=workers, wall_time_s=wall_time_s,
                   cpu_time_s=cpu_time_s, peak_tile_bytes=peak_tile_bytes,
                   backend=backend,
                   backend_compile_seconds=backend_compile_seconds,
                   fused_greeks=fused_greeks, **counts)

    @property
    def options_per_second(self) -> float:
        """Measured batch throughput (the paper's headline unit)."""
        if self.wall_time_s <= 0.0:
            return float("inf")
        return self.options / self.wall_time_s

    @property
    def tree_nodes_per_second(self) -> float:
        """Measured node-update throughput."""
        if self.wall_time_s <= 0.0:
            return float("inf")
        return self.tree_nodes / self.wall_time_s

    def performance_row(
        self,
        label: str = "Host engine",
        platform: str = "host CPU",
        precision: str = "double",
        rmse_display: str = "0",
    ) -> PerformanceRow:
        """This run as a Table II column (options/J is unmetered)."""
        return PerformanceRow(
            label=label,
            platform=platform,
            precision=precision,
            options_per_second=self.options_per_second,
            rmse_display=rmse_display,
            options_per_joule=None,
            tree_nodes_per_second=self.tree_nodes_per_second,
        )

    @property
    def reliability_counters(self) -> dict:
        """The fault-tolerance counters as a name->count mapping."""
        return {name: getattr(self, name) for name in keys.RELIABILITY_KEYS}

    def describe(self) -> str:
        """One-line ``key=value`` summary in the canonical schema order.

        Keys are exactly :data:`repro.obs.keys.STATS_KEYS` — the same
        names, in the same order, as :meth:`as_dict` and the
        bench-engine JSON.
        """
        snapshot = self.as_dict()
        parts = []
        for key in keys.STATS_KEYS:
            value = snapshot[key]
            if isinstance(value, float):
                parts.append(f"{key}={value:.6g}")
            else:
                parts.append(f"{key}={value}")
        return " ".join(parts)

    def as_dict(self) -> dict:
        """JSON-ready snapshot: :data:`~repro.obs.keys.STATS_KEYS`, in
        order (used by the benchmark harness and the trace exporter)."""
        return {key: getattr(self, key) for key in keys.STATS_KEYS}
