"""``--out -``: the bench commands as machine-readable producers.

With ``--out -`` the benchmark document must be the *only* bytes on
stdout — narration moves to stderr — so ``python -m repro bench-engine
--out - | jq`` works without scraping.  These tests parse stdout with
a plain ``json.loads``; any stray narration line fails them.
"""

import json

import pytest

from repro.cli import main


class TestStdoutDocuments:
    def test_bench_engine_stdout_is_pure_json(self, capsys):
        code = main(["bench-engine", "--options", "12", "--steps", "16",
                     "--workers", "1", "--out", "-"])
        assert code == 0
        captured = capsys.readouterr()
        document = json.loads(captured.out)  # whole stream, not a slice
        assert document["schema"] == "repro-engine-bench/v1"
        assert document["config"]["backend"] == "numpy"
        run = document["results"][0]["runs"][0]
        assert run["backend"] == "numpy"
        assert run["backend_compile_seconds"] == 0.0
        # narration still happens, on the other stream
        assert "options/s" in captured.err
        assert "<stdout>" in captured.err

    def test_bench_greeks_stdout_is_pure_json(self, capsys):
        code = main(["bench-greeks", "--options", "8", "--steps", "16",
                     "--workers", "1", "--out", "-"])
        assert code == 0
        captured = capsys.readouterr()
        document = json.loads(captured.out)
        assert document["schema"] == "repro-greeks-bench/v1"
        (run,) = document["results"][0]["runs"]
        assert run["bump_passes"] == 4
        assert "workers=1:" in captured.err

    def test_serve_bench_stdout_is_pure_json(self, capsys):
        code = main(["serve-bench", "--options", "16", "--steps", "16",
                     "--clients", "4", "--out", "-"])
        assert code == 0
        captured = capsys.readouterr()
        document = json.loads(captured.out)
        assert document["schema"] == "repro-service-bench/v2"
        assert document["config"]["backend"] == "numpy"
        assert document["results"][0]["runs"][0]["backend"] == "numpy"
        assert "coalesced" in captured.err

    def test_regression_gate_messages_stay_off_stdout(self, capsys,
                                                      tmp_path):
        baseline = tmp_path / "baseline.json"
        assert main(["bench-engine", "--options", "12", "--steps", "16",
                     "--workers", "1", "--out", str(baseline)]) == 0
        capsys.readouterr()

        document = json.loads(baseline.read_text())
        document["results"][0]["runs"][0]["options_per_second"] *= 100.0
        baseline.write_text(json.dumps(document))
        code = main(["bench-engine", "--options", "12", "--steps", "16",
                     "--workers", "1", "--out", "-",
                     "--check-against", str(baseline)])
        assert code == 1
        captured = capsys.readouterr()
        json.loads(captured.out)  # still parses despite the failure
        assert "REGRESSION" in captured.err


class TestBackendFlag:
    def test_unknown_backend_rejected_by_argparse(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench-engine", "--backend", "fpga"])

    def test_backend_flag_reaches_the_document(self, capsys):
        from repro.backends.cnative import CNativeBackend

        if not CNativeBackend.available():
            pytest.skip("no C toolchain for the cnative backend")
        code = main(["bench-engine", "--options", "12", "--steps", "16",
                     "--workers", "1", "--backend", "cnative",
                     "--out", "-"])
        assert code == 0
        captured = capsys.readouterr()
        document = json.loads(captured.out)
        assert document["config"]["backend"] == "cnative"
        assert document["results"][0]["runs"][0]["backend"] == "cnative"
