"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fourier"])

    def test_price_requires_spot_strike(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["price", "--spot", "100"])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "DSP (18-bit)" in out

    def test_ablation(self, capsys):
        assert main(["ablation"]) == 0
        out = capsys.readouterr().out
        assert "14" in out and "result only" in out

    def test_saturation(self, capsys):
        assert main(["saturation"]) == 0
        assert "IV.B FPGA" in capsys.readouterr().out

    def test_energy(self, capsys):
        assert main(["energy"]) == 0
        assert "10 W" in capsys.readouterr().out

    def test_portability(self, capsys):
        assert main(["portability"]) == 0
        out = capsys.readouterr().out
        assert "Mali" in out and "C6678" in out

    def test_clsource_iv_b(self, capsys):
        assert main(["clsource", "iv_b", "--steps", "64"]) == 0
        out = capsys.readouterr().out
        assert "__kernel void binomial_tree_iv_b" in out
        assert "#define N_STEPS 64" in out

    def test_clsource_iv_a_single(self, capsys):
        assert main(["clsource", "iv_a", "--precision", "sp"]) == 0
        out = capsys.readouterr().out
        assert "binomial_node_iv_a" in out
        assert "float" in out

    def test_price(self, capsys):
        code = main(["price", "--spot", "100", "--strike", "95",
                     "--type", "call", "--steps", "128",
                     "--platform", "cpu"])
        assert code == 0
        out = capsys.readouterr().out
        assert "price" in out and "reference" in out

    def test_price_fpga_shows_pow_error(self, capsys):
        main(["price", "--spot", "100", "--strike", "100",
              "--type", "put", "--steps", "128"])
        out = capsys.readouterr().out
        assert "altera-13.0-double" in out

    def test_bench_engine(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "bench.json"
        code = main(["bench-engine", "--options", "12", "--steps", "16",
                     "--workers", "1", "--out", str(out_path)])
        assert code == 0
        assert "options/s" in capsys.readouterr().out
        document = json.loads(out_path.read_text())
        assert document["schema"] == "repro-engine-bench/v1"

    def test_bench_greeks(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "greeks.json"
        code = main(["bench-greeks", "--options", "8", "--steps", "16",
                     "--workers", "1", "--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "options/s" in out and "bump passes" in out
        document = json.loads(out_path.read_text())
        assert document["schema"] == "repro-greeks-bench/v1"
        run = document["results"][0]["runs"][0]
        assert run["bump_passes"] == 4
        assert run["greeks_options"] == 8

    def test_bench_greeks_regression_gate(self, capsys, tmp_path):
        import json

        baseline = tmp_path / "baseline.json"
        assert main(["bench-greeks", "--options", "8", "--steps", "16",
                     "--workers", "1", "--out", str(baseline)]) == 0
        capsys.readouterr()

        document = json.loads(baseline.read_text())
        document["results"][0]["runs"][0]["options_per_second"] *= 100.0
        baseline.write_text(json.dumps(document))
        code = main(["bench-greeks", "--options", "8", "--steps", "16",
                     "--workers", "1", "--out", str(tmp_path / "g2.json"),
                     "--check-against", str(baseline)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_bench_engine_trace_and_metrics_artifacts(self, capsys,
                                                      tmp_path):
        import json

        from repro.obs.export import chunk_span_seconds
        from repro.obs.metrics import parse_prometheus
        from repro.obs.trace import max_depth

        from repro.obs.metrics import MetricsRegistry, set_registry

        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.prom"
        # hermetic process-wide registry: earlier tests (fault
        # injection) legitimately publish retries into the global one
        previous = set_registry(MetricsRegistry())
        try:
            code = main(["bench-engine", "--options", "12", "--steps", "16",
                         "--workers", "1", "--out", str(tmp_path / "b.json"),
                         "--trace-out", str(trace_path),
                         "--metrics-out", str(metrics_path)])
        finally:
            set_registry(previous)
        assert code == 0
        out = capsys.readouterr().out
        assert "trace" in out and "metrics" in out

        document = json.loads(trace_path.read_text())
        assert document["schema"] == "repro-trace/v1"
        root = document["spans"][0]
        assert root["name"] == "engine.run"
        assert max_depth(root) >= 4
        # serial run: chunk spans tile the run span's wall clock
        assert chunk_span_seconds(root) <= root["duration_ns"] * 1e-9

        samples = parse_prometheus(metrics_path.read_text())
        assert samples["repro_engine_retries_total"] == 0
        assert samples["repro_engine_quarantined_options_total"] == 0
        assert samples["repro_engine_options_priced_total"] >= 12

    def test_obs_session(self, capsys, tmp_path):
        import json

        from repro.obs.metrics import parse_prometheus
        from repro.obs.trace import max_depth

        trace_path = tmp_path / "obs.json"
        metrics_path = tmp_path / "obs.prom"
        code = main(["obs", "--options", "6", "--steps", "16",
                     "--chunk", "3", "--trace-out", str(trace_path),
                     "--metrics-out", str(metrics_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "run:obs.device-session" in out
        assert "queue-command" in out
        assert "timeline:" in out
        assert "repro_queue_commands_total" in out

        root = json.loads(trace_path.read_text())["spans"][0]
        assert max_depth(root) == 5  # run/group/chunk/attempt/command
        samples = parse_prometheus(metrics_path.read_text())
        assert any(name.startswith("repro_link_pcie_bytes_total")
                   for name in samples)

    def test_obs_rejects_bad_counts(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "--options", "not-a-number"])

    def test_bench_engine_regression_gate(self, capsys, tmp_path):
        import json

        baseline = tmp_path / "baseline.json"
        assert main(["bench-engine", "--options", "12", "--steps", "16",
                     "--workers", "1", "--out", str(baseline)]) == 0
        capsys.readouterr()

        # an impossibly fast stored baseline must trip the gate
        document = json.loads(baseline.read_text())
        document["results"][0]["runs"][0]["options_per_second"] *= 100.0
        baseline.write_text(json.dumps(document))
        code = main(["bench-engine", "--options", "12", "--steps", "16",
                     "--workers", "1", "--out", str(tmp_path / "b2.json"),
                     "--check-against", str(baseline)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_serve_bench(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "service.json"
        code = main(["serve-bench", "--options", "32", "--steps", "16",
                     "--clients", "8", "--fault-seed", "101",
                     "--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "coalesced" in out and "cache" in out
        assert "fault seed 101" in out
        document = json.loads(out_path.read_text())
        assert document["schema"] == "repro-service-bench/v2"
        assert document["stats_schema"] == "repro-stats/v12"
        entry = document["results"][0]
        assert entry["parity"]["bit_identical_to_direct"] is True
        assert entry["overload"]["loss_threshold"] == 0.01
        assert entry["overload"]["levels"]
        run = entry["runs"][0]
        assert run["cache_speedup"] > 1.0
        assert run["latency"]["p99_ms"] >= run["latency"]["p50_ms"] > 0.0
        assert run["service"]["requests"] == 32 + 2  # batch cold + hit

    def test_serve_bench_regression_gate(self, capsys, tmp_path):
        import json

        baseline = tmp_path / "baseline.json"
        assert main(["serve-bench", "--options", "32", "--steps", "16",
                     "--clients", "8", "--out", str(baseline)]) == 0
        capsys.readouterr()

        document = json.loads(baseline.read_text())
        document["results"][0]["runs"][0]["options_per_second"] *= 100.0
        baseline.write_text(json.dumps(document))
        code = main(["serve-bench", "--options", "32", "--steps", "16",
                     "--clients", "8", "--out", str(tmp_path / "s2.json"),
                     "--check-against", str(baseline)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_serve_bench_trace_artifact(self, capsys, tmp_path):
        import json

        trace_path = tmp_path / "service-trace.json"
        code = main(["serve-bench", "--options", "16", "--steps", "16",
                     "--clients", "4", "--out", str(tmp_path / "s.json"),
                     "--trace-out", str(trace_path)])
        assert code == 0
        assert "trace" in capsys.readouterr().out
        document = json.loads(trace_path.read_text())
        assert document["schema"] == "repro-trace/v1"
        names = {span["name"] for span in document["spans"]}
        assert "service.enqueue" in names
        assert any(name.startswith("service.flush[") for name in names)

    def test_stream_bench(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "stream.json"
        code = main(["stream-bench", "--instruments", "6",
                     "--tick-steps", "8", "--steps", "16",
                     "--fault-seeds", "101", "--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "tick-to-risk" in out
        assert "parity: bitwise vs oracle" in out
        assert "revaluations/s" in out
        document = json.loads(out_path.read_text())
        assert document["schema"] == "repro-stream-bench/v1"
        assert document["stats_schema"] == "repro-stats/v12"
        entry = document["results"][0]
        assert entry["parity"]["bitwise"] is True
        assert entry["parity"]["replay"] is True
        assert entry["parity"]["fault_seeds"] == [101]
        run = entry["runs"][0]
        assert run["options_per_second"] > 0.0
        assert run["latency"]["p999_ms"] >= run["latency"]["p99_ms"] \
            >= run["latency"]["p50_ms"] > 0.0
        assert "schema" not in run["stream"]
        assert run["stream"]["revaluations"] > 0
        assert entry["tolerance"]["suppressed_ticks"] >= 0

    def test_stream_bench_regression_gate(self, capsys, tmp_path):
        import json

        baseline = tmp_path / "baseline.json"
        assert main(["stream-bench", "--instruments", "6",
                     "--tick-steps", "8", "--steps", "16",
                     "--fault-seeds", "--out", str(baseline)]) == 0
        capsys.readouterr()

        document = json.loads(baseline.read_text())
        document["results"][0]["runs"][0]["options_per_second"] *= 100.0
        baseline.write_text(json.dumps(document))
        code = main(["stream-bench", "--instruments", "6",
                     "--tick-steps", "8", "--steps", "16",
                     "--fault-seeds", "--out", str(tmp_path / "s2.json"),
                     "--check-against", str(baseline)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out


class TestSweepCommand:
    SPEC = {
        "schema": "repro-sweep-spec/v1",
        "name": "cli-tiny",
        "axes": {"steps": [8, 16]},
        "base": {"n_options": 4, "kernel": "iv_b", "reference_steps": 32},
    }

    def write_spec(self, tmp_path):
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPEC))
        return path

    def test_run_and_noop_rerun(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path)
        store = tmp_path / "run.jsonl"
        assert main(["sweep", "run", "--spec", str(spec),
                     "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "2 cells" in out
        assert "2 done" in out
        assert "grid complete; store fingerprint" in out
        assert main(["sweep", "run", "--spec", str(spec),
                     "--store", str(store)]) == 0
        assert "executed 0" in capsys.readouterr().out

    def test_limit_then_resume_matches_one_shot(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path)
        killed, one_shot = tmp_path / "killed.jsonl", tmp_path / "one.jsonl"
        assert main(["sweep", "run", "--spec", str(spec),
                     "--store", str(killed), "--limit", "1"]) == 0
        assert "resume with: repro sweep resume" in capsys.readouterr().out
        assert main(["sweep", "resume", "--spec", str(spec),
                     "--store", str(killed)]) == 0
        assert main(["sweep", "run", "--spec", str(spec),
                     "--store", str(one_shot)]) == 0
        capsys.readouterr()

        fingerprints = []
        for store in (killed, one_shot):
            assert main(["sweep", "status", "--store", str(store),
                         "--fingerprint"]) == 0
            fingerprints.append(capsys.readouterr().out.strip())
        assert fingerprints[0] == fingerprints[1]

    def test_builtin_spec_by_name(self, capsys, tmp_path):
        store = tmp_path / "run.jsonl"
        assert main(["sweep", "run", "--spec", "steps-precision-quick",
                     "--store", str(store), "--limit", "1"]) == 0
        assert "already committed" in capsys.readouterr().out

    def test_status_counts(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path)
        store = tmp_path / "run.jsonl"
        assert main(["sweep", "run", "--spec", str(spec),
                     "--store", str(store), "--limit", "1"]) == 0
        capsys.readouterr()
        assert main(["sweep", "status", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "done     1" in out
        assert "pending  1" in out
        assert "fingerprint" in out

    def test_report_is_a_pure_read(self, capsys, tmp_path):
        import json

        spec = self.write_spec(tmp_path)
        store = tmp_path / "run.jsonl"
        out_path = tmp_path / "frontier.json"
        assert main(["sweep", "run", "--spec", str(spec),
                     "--store", str(store)]) == 0
        capsys.readouterr()
        before = store.read_bytes()
        assert main(["sweep", "report", "--store", str(store),
                     "--out", str(out_path)]) == 0
        assert store.read_bytes() == before
        out = capsys.readouterr().out
        assert "pareto" in out.lower() or "*" in out
        document = json.loads(out_path.read_text())
        assert document["schema"] == "repro-sweep-frontier/v1"
        assert len(document["entries"]) == 2
        assert document["pareto_cells"]

    def test_zero_workers_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "run", "--spec", "steps-precision",
                  "--store", str(tmp_path / "s.jsonl"), "--workers", "0"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --workers: must be >= 1, got 0" in err
        assert "Traceback" not in err
        assert not (tmp_path / "s.jsonl").exists()

    def test_unknown_spec_is_a_sweep_error(self, capsys, tmp_path):
        code = main(["sweep", "run", "--spec", "no-such-spec",
                     "--store", str(tmp_path / "run.jsonl")])
        assert code == 2
        assert "sweep error" in capsys.readouterr().err

    def test_mixed_store_is_refused(self, capsys, tmp_path):
        import json

        spec = self.write_spec(tmp_path)
        store = tmp_path / "run.jsonl"
        assert main(["sweep", "run", "--spec", str(spec),
                     "--store", str(store), "--limit", "1"]) == 0
        other = dict(self.SPEC, name="other",
                     base={"n_options": 5, "kernel": "iv_b",
                           "reference_steps": 32})
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other))
        capsys.readouterr()
        code = main(["sweep", "run", "--spec", str(other_path),
                     "--store", str(store)])
        assert code == 2
        assert "refusing to mix" in capsys.readouterr().err
