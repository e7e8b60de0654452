"""The stable engine-stats schema, asserted (see docs/stats_schema.md).

Every reporting surface — ``EngineStats.as_dict``/``describe``, the
bench-engine JSON, the Prometheus export — must use exactly the
``repro.obs.keys`` names.  Renaming or reordering a key is a schema
version bump, and this file is the tripwire.
"""

import re

from repro.bench.engine_bench import run_benchmark
from repro.engine.stats import EngineStats, RunMetrics
from repro.obs import keys
from repro.obs.metrics import MetricsRegistry, parse_prometheus, set_registry


def make_stats(**overrides) -> EngineStats:
    base = dict(options=8, tree_nodes=100, groups=1, chunks=2, workers=1,
                wall_time_s=0.5, cpu_time_s=0.4, peak_tile_bytes=1024)
    base.update(overrides)
    return EngineStats(**base)


class TestStatsKeys:
    def test_schema_tag(self):
        assert keys.STATS_SCHEMA == "repro-engine-stats/v10"
        # v9: the engine has no process pool to rebuild or degrade from;
        # v10: the fused task is the one greeks schedule, no flag for it
        for removed in ("pool_rebuilds", "degraded_to_serial",
                        "fused_greeks"):
            assert removed not in keys.STATS_KEYS
            assert removed not in keys.STATS_TO_METRIC

    def test_v4_backend_keys_present(self):
        assert "backend" in keys.STATS_KEYS
        assert "backend_compile_seconds" in keys.STATS_KEYS
        stats = make_stats(backend="cnative", backend_compile_seconds=1.5)
        snapshot = stats.as_dict()
        assert snapshot["backend"] == "cnative"
        assert snapshot["backend_compile_seconds"] == 1.5

    def test_as_dict_keys_exact_order(self):
        assert tuple(make_stats().as_dict()) == keys.STATS_KEYS

    def test_all_keys_snake_case(self):
        for key in keys.STATS_KEYS:
            assert re.fullmatch(r"[a-z][a-z0-9_]*", key), key

    def test_describe_uses_schema_order(self):
        described = make_stats(retries=3).describe()
        described_keys = tuple(part.split("=")[0]
                               for part in described.split())
        assert described_keys == keys.STATS_KEYS
        assert "retries=3" in described

    def test_reliability_keys_are_subset(self):
        assert set(keys.RELIABILITY_KEYS) <= set(keys.STATS_KEYS)
        counters = make_stats(timeouts=2).reliability_counters
        assert tuple(counters) == keys.RELIABILITY_KEYS
        assert counters["timeouts"] == 2


class TestStatsFromRegistry:
    def test_from_run_reads_metrics(self):
        metrics = RunMetrics()
        metrics.options.inc(8)
        metrics.tree_nodes.inc(100)
        metrics.groups.inc(1)
        metrics.chunks.inc(2)
        metrics.retries.inc(3)
        stats = EngineStats.from_run(metrics, workers=1, wall_time_s=0.5,
                                     cpu_time_s=0.4, peak_tile_bytes=64)
        assert stats.options == 8
        assert stats.retries == 3
        assert stats.quarantined_options == 0

    def test_stats_to_metric_targets_exist(self):
        metrics = RunMetrics()
        for stat, metric_name in keys.STATS_TO_METRIC.items():
            assert stat in keys.STATS_KEYS
            assert metrics.registry.get(metric_name) is not None, metric_name

    def test_counters_expose_zero_samples(self):
        """A clean run still renders retries/quarantine counters as 0."""
        text = RunMetrics().registry.render_prometheus()
        samples = parse_prometheus(text)
        assert samples[keys.RETRIES_TOTAL] == 0
        assert samples[keys.QUARANTINED_OPTIONS_TOTAL] == 0
        assert samples[keys.TIMEOUTS_TOTAL] == 0
        assert samples[keys.GREEKS_OPTIONS_TOTAL] == 0
        assert samples[keys.BUMP_PASSES_TOTAL] == 0


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
        assert tuple(run) == keys.STATS_KEYS + ("speedup_vs_baseline",)


class TestSweepStatsKeys:
    def test_schema_tag(self):
        assert keys.SWEEP_STATS_SCHEMA == "repro-sweep-stats/v8"

    def test_as_dict_schema_first_then_exact_key_order(self):
        from repro.sweep.runner import SweepStats

        snapshot = SweepStats(cells=4, executed=2, done=2).as_dict()
        assert tuple(snapshot) == ("schema",) + keys.SWEEP_STATS_KEYS
        assert snapshot["schema"] == keys.SWEEP_STATS_SCHEMA
        assert snapshot["cells"] == 4

    def test_all_keys_snake_case(self):
        for key in keys.SWEEP_STATS_KEYS:
            assert re.fullmatch(r"[a-z][a-z0-9_]*", key), key

    def test_stats_to_metric_targets_are_keys(self):
        assert set(keys.SWEEP_STATS_TO_METRIC) <= set(keys.SWEEP_STATS_KEYS)
        for metric_name in keys.SWEEP_STATS_TO_METRIC.values():
            assert metric_name.startswith("repro_sweep_"), metric_name
