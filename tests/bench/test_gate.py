"""The shared bench envelope (repro-bench/v2) and the regression gate."""

import json
from pathlib import Path

import pytest

from repro.bench.gate import (
    BENCH_ENVELOPE_SCHEMA,
    BENCH_ENVELOPE_V1,
    check_throughput_regression,
    git_revision,
    host_info,
    load_benchmark,
    make_envelope,
    write_benchmark,
)
from repro.errors import ReproError


def bench_document(rate=1000.0, **config):
    cfg = {"kernel": "iv_b", "steps": 64, "backend": "numpy"}
    cfg.update(config)
    return make_envelope(
        "repro-bench-engine/v4", "repro-stats/v5", cfg,
        results=[{"options": 16,
                  "runs": [{"workers": 1, "fused_greeks": 0,
                            "options_per_second": rate}]}])


class TestEnvelope:
    def test_make_envelope_shape(self):
        document = bench_document()
        assert document["schema"] == "repro-bench-engine/v4"
        assert document["envelope"] == BENCH_ENVELOPE_SCHEMA
        assert document["stats_schema"] == "repro-stats/v5"
        assert document["config"]["kernel"] == "iv_b"
        assert document["results"][0]["options"] == 16

    def test_extra_keys_land_top_level(self):
        document = make_envelope("s/v1", "st/v1", {}, [],
                                 scaling={"workers": 4})
        assert document["scaling"] == {"workers": 4}

    def test_host_block(self):
        host = host_info()
        assert set(host) == {"cpu_count", "platform", "python",
                             "numpy", "git"}
        assert host["cpu_count"] >= 1
        # inside this checkout the revision resolves to a hex SHA
        assert host["git"] is None or len(host["git"]) == 40

    def test_git_revision_degrades_to_none(self):
        revision = git_revision()
        assert revision is None or int(revision, 16) >= 0

    def test_harnesses_all_stamp_the_envelope(self):
        # the four harness modules must build documents through
        # make_envelope, not private copies of the scaffolding
        import repro.bench.engine_bench as engine_bench
        import repro.bench.greeks_bench as greeks_bench
        import repro.bench.service_bench as service_bench
        import repro.bench.stream_bench as stream_bench
        for module in (engine_bench, greeks_bench, service_bench,
                       stream_bench):
            assert module.make_envelope is make_envelope
            assert module.write_benchmark is write_benchmark


class TestLoad:
    def test_write_load_round_trip(self, tmp_path):
        document = bench_document()
        path = write_benchmark(document, tmp_path / "bench.json")
        assert load_benchmark(path) == document

    def test_pre_envelope_file_is_tagged_v1(self, tmp_path):
        legacy = {"schema": "repro-bench-engine/v3", "results": []}
        path = tmp_path / "old.json"
        path.write_text(json.dumps(legacy))
        loaded = load_benchmark(path)
        assert loaded["envelope"] == BENCH_ENVELOPE_V1
        assert loaded["schema"] == "repro-bench-engine/v3"

    def test_v2_file_keeps_its_envelope(self, tmp_path):
        path = write_benchmark(bench_document(), tmp_path / "new.json")
        assert load_benchmark(path)["envelope"] == BENCH_ENVELOPE_SCHEMA

    def test_non_object_document_refused(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ReproError, match="JSON object"):
            load_benchmark(path)

    def test_shipped_baselines_still_load(self):
        # the quick baselines in benchmarks/ predate the envelope; the
        # v1 shim must keep every one of them loadable
        from pathlib import Path
        baselines = sorted(
            Path(__file__).resolve().parents[2].glob(
                "benchmarks/BENCH_*.json"))
        for path in baselines:
            loaded = load_benchmark(path)
            assert loaded["envelope"] in (BENCH_ENVELOPE_V1,
                                          BENCH_ENVELOPE_SCHEMA)


BASELINES = Path(__file__).resolve().parents[2] / "benchmarks"


class TestShippedBaselinesAgreeWithThemselves:
    """A bench document must never contradict itself: the gates compare
    against these stored rates, so each must follow from the run's own
    numbers."""

    @pytest.mark.parametrize("name", ("BENCH_engine.quick.json",
                                      "BENCH_greeks.quick.json"))
    def test_run_rate_is_options_over_wall_time(self, name):
        document = load_benchmark(BASELINES / name)
        runs = [run for result in document["results"]
                for run in result["runs"]]
        assert runs
        for run in runs:
            assert run["options_per_second"] == pytest.approx(
                run["options"] / run["wall_time_s"], rel=1e-9), run

    def test_engine_speedup_is_rate_over_baseline_rate(self):
        document = load_benchmark(BASELINES / "BENCH_engine.quick.json")
        for result in document["results"]:
            baseline_rate = result["baseline"]["options_per_second"]
            for run in result["runs"]:
                assert run["speedup_vs_baseline"] == pytest.approx(
                    run["options_per_second"] / baseline_rate,
                    rel=1e-9), run


class TestRegressionGate:
    def test_equal_documents_pass(self):
        assert check_throughput_regression(bench_document(),
                                           bench_document()) == []

    def test_small_dip_passes(self):
        current = bench_document(rate=750.0)
        assert check_throughput_regression(current,
                                           bench_document(1000.0)) == []

    def test_large_regression_fails(self):
        current = bench_document(rate=500.0)
        failures = check_throughput_regression(current,
                                               bench_document(1000.0))
        assert len(failures) == 1
        assert "below" in failures[0]

    def test_config_mismatch_is_not_comparable(self):
        failures = check_throughput_regression(
            bench_document(), bench_document(steps=128))
        assert len(failures) == 1
        assert "not comparable" in failures[0]

    def test_unmatched_keys_are_skipped(self):
        baseline = bench_document()
        baseline["results"][0]["options"] = 9999  # different batch size
        assert check_throughput_regression(bench_document(),
                                           baseline) == []
