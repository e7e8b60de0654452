"""The entry point refuses to measure anything but the compiled backend."""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(os.path.dirname(HERE), "run.py")
ROOT = os.path.dirname(os.path.dirname(HERE))


def test_a_numpy_backend_stops_the_run_without_numbers():
    env = dict(os.environ, REPRO_BACKEND="numpy")
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "batch-book", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "cnative" in proc.stderr
