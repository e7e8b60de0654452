"""The one stats schema, asserted (see docs/stats_schema.md).

Every layer declares its keys once in ``repro.obs.keys``; every
reporting surface — a layer's ``Snapshot.as_dict``, the bench JSON,
``GET /stats``, the Prometheus export — must use exactly those keys.
Renaming or reordering a key is a schema version bump, and this file
is the tripwire.
"""

import pickle
import re

import pytest

from repro import generate_batch
from repro.bench.engine_bench import run_benchmark
from repro.engine import PricingEngine
from repro.engine.stats import EngineStats
from repro.errors import ReproError
from repro.obs import keys
from repro.obs.metrics import (
    LayerMetrics,
    MetricsRegistry,
    Snapshot,
    parse_prometheus,
    set_registry,
)

#: Each layer's keys under ``repro-stats/v11``, in order: the keys and
#: order of the five per-layer documents it replaced (stream and sweep
#: no longer embed a ``schema`` key).
V11_KEYS = {
    "engine": (
        "options", "tree_nodes", "groups", "chunks", "workers",
        "wall_time_s", "cpu_time_s", "peak_tile_bytes",
        "options_per_second", "tree_nodes_per_second", "retries",
        "timeouts", "quarantined_options", "greeks_options", "bump_passes",
        "backend", "backend_compile_seconds",
    ),
    "service": (
        "requests", "options", "flushes", "flush_full", "flush_deadline",
        "flush_drain", "cache_hits", "cache_misses", "cache_evictions",
        "cache_bytes", "inflight_joins", "rejected", "mean_wait_s",
        "mean_flush_options", "deadline_expired", "shed", "cancelled",
        "engine_restarts", "health_transitions", "health",
    ),
    "serve": (
        "requests", "options", "responses", "errors", "bad_requests",
        "cancelled", "shard_restarts", "shm_results", "pickle_results",
        "shards", "mean_request_s", "health",
    ),
    "stream": (
        "ticks", "suppressed_ticks", "dirty_marks", "revaluations",
        "reval_batches", "aggregates", "instruments", "mean_tick_to_risk_s",
    ),
    "sweep": (
        "cells", "pruned", "executed", "done", "failed", "skipped",
        "options", "mean_cell_s",
    ),
}

#: Keys v12 dropped from v11: the serve tier's result-transport
#: counters went with its shared-memory segment.
V12_DROPPED = {"serve": ("shm_results", "pickle_results")}

LAYERS = tuple(V11_KEYS)

METRIC_KINDS = (keys.COUNTER, keys.GAUGE, keys.HISTOGRAM)


def fresh_snapshot(layer: str) -> Snapshot:
    return Snapshot.from_metrics(LayerMetrics(layer))


@pytest.mark.parametrize("layer", LAYERS)
class TestLayerSchema:
    def test_declared_keys_are_the_v11_keys(self, layer):
        dropped = V12_DROPPED.get(layer, ())
        assert keys.LAYERS[layer].names == tuple(
            name for name in V11_KEYS[layer] if name not in dropped)

    def test_as_dict_keys_in_declared_order(self, layer):
        snapshot = fresh_snapshot(layer)
        assert tuple(snapshot.as_dict()) == keys.LAYERS[layer].names
        for key in keys.LAYERS[layer].keys:
            value = getattr(snapshot, key.name)
            assert value == key.default
            assert type(value) is key.type, key.name

    def test_metric_keys_have_handles(self, layer):
        metrics = LayerMetrics(layer)
        declared = keys.LAYERS[layer]
        for key in declared.keys + declared.export:
            if key.kind in METRIC_KINDS:
                handle = metrics.registry.get(key.metric)
                assert handle is not None, key.metric
                assert getattr(metrics, key.name) is handle
            else:
                assert key.kind == keys.VALUE and not key.metric
                assert not hasattr(metrics, key.name)

    def test_counters_render_zero(self, layer):
        text = LayerMetrics(layer).registry.render_prometheus()
        samples = parse_prometheus(text)
        counters = [key.metric for key in keys.LAYERS[layer].keys
                    if key.kind == keys.COUNTER]
        assert counters
        for metric in counters:
            assert samples[metric] == 0, metric

    def test_from_dict_drops_unknown_keys(self, layer):
        snapshot = fresh_snapshot(layer)
        data = dict(snapshot.as_dict(), fused_greeks=True,
                    schema="repro-old-stats/v1")
        rebuilt = Snapshot.from_dict(layer, data)
        assert rebuilt == snapshot
        assert tuple(rebuilt.as_dict()) == keys.LAYERS[layer].names


class TestStatsKeys:
    def test_schema_tag(self):
        assert keys.STATS_SCHEMA == "repro-stats/v12"
        tags = [value for value in vars(keys).values()
                if isinstance(value, str) and value.startswith("repro-")]
        assert tags == [keys.STATS_SCHEMA]
        # v9: the engine has no process pool to rebuild or degrade from;
        # v10: the fused task is the one greeks schedule, no flag for it
        for removed in ("pool_rebuilds", "degraded_to_serial",
                        "fused_greeks"):
            assert removed not in keys.ENGINE.names

    def test_v4_backend_keys_present(self):
        stats = EngineStats.from_metrics(
            LayerMetrics("engine"), backend="cnative",
            backend_compile_seconds=1.5)
        snapshot = stats.as_dict()
        assert snapshot["backend"] == "cnative"
        assert snapshot["backend_compile_seconds"] == 1.5

    def test_as_dict_keys_exact_order(self):
        with PricingEngine(kernel="iv_b") as engine:
            stats = engine.run(generate_batch(n_options=4).options,
                               steps=16).stats
        assert isinstance(stats, EngineStats)
        assert tuple(stats.as_dict()) == keys.ENGINE.names
        assert stats.options == 4 and stats.workers == 1
        assert stats.options_per_second == stats.options / stats.wall_time_s

    def test_all_keys_snake_case(self):
        for layer in keys.LAYERS.values():
            for key in layer.keys + layer.export:
                assert re.fullmatch(r"[a-z][a-z0-9_]*", key.name), key
                if key.metric:
                    assert key.metric.startswith(f"repro_{layer.name}_"), key


class TestSweepStatsKeys:
    def test_all_keys_snake_case(self):
        metrics = LayerMetrics("sweep")
        metrics.cells.inc(4)
        snapshot = Snapshot.from_metrics(metrics).as_dict()
        assert tuple(snapshot) == keys.SWEEP.names
        assert snapshot["cells"] == 4
        for key in keys.SWEEP.keys + keys.SWEEP.export:
            assert re.fullmatch(r"[a-z][a-z0-9_]*", key.name), key
            if key.metric:
                assert key.metric.startswith("repro_sweep_"), key


class TestStatsFromRegistry:
    def test_from_run_reads_metrics(self):
        metrics = LayerMetrics("engine")
        metrics.options.inc(8)
        metrics.tree_nodes.inc(100)
        metrics.groups.inc(1)
        metrics.chunks.inc(2)
        metrics.retries.inc(3)
        metrics.peak_tile_bytes.set(64)
        metrics.chunk_latency.observe(0.25)
        stats = EngineStats.from_metrics(metrics, workers=1,
                                         wall_time_s=0.5, cpu_time_s=0.4)
        assert stats.options == 8 and type(stats.options) is int
        assert stats.retries == 3
        assert stats.quarantined_options == 0
        assert stats.peak_tile_bytes == 64
        assert stats.wall_time_s == 0.5
        with pytest.raises(ReproError, match="fused_greeks"):
            EngineStats.from_metrics(metrics, fused_greeks=True)

    def test_histogram_keys_read_the_mean(self):
        metrics = LayerMetrics("service")
        metrics.mean_wait_s.observe(0.001)
        metrics.mean_wait_s.observe(0.003)
        stats = Snapshot.from_metrics(metrics, health="degraded")
        assert stats.mean_wait_s == pytest.approx(0.002)
        assert stats.mean_flush_options == 0.0
        assert stats.health == "degraded"


class TestSnapshot:
    def test_frozen(self):
        stats = fresh_snapshot("stream")
        with pytest.raises(AttributeError):
            stats.ticks = 3
        with pytest.raises(AttributeError):
            stats.no_such_key

    def test_pickle_round_trip_keeps_type(self):
        stats = EngineStats.from_metrics(LayerMetrics("engine"), workers=2)
        clone = pickle.loads(pickle.dumps(stats))
        assert type(clone) is EngineStats
        assert clone == stats and hash(clone) == hash(stats)

    def test_layers_do_not_compare_equal(self):
        assert fresh_snapshot("stream") != fresh_snapshot("sweep")


class TestBenchDocumentSchema:
    def test_runs_use_stats_keys(self):
        hermetic = MetricsRegistry()
        previous = set_registry(hermetic)
        try:
            document = run_benchmark(options_counts=(8,), steps=16,
                                     workers_settings=(1,))
        finally:
            set_registry(previous)
        assert document["stats_schema"] == keys.STATS_SCHEMA
        run = document["results"][0]["runs"][0]
        assert tuple(run) == keys.ENGINE.names + ("speedup_vs_baseline",)
