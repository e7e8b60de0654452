"""Shared helpers for the benchmark harness.

Every bench regenerates one table/figure/in-text result of the paper
(see DESIGN.md's experiment index) and writes its paper-vs-reproduced
table to ``benchmarks/results/latest/<experiment>.txt``, a git-ignored
directory, so the artifacts survive the pytest-benchmark run without
touching the tracked reference copies in ``benchmarks/results/``
(compare with ``diff benchmarks/results/latest/<experiment>.txt
benchmarks/results/<experiment>.txt``; some tables move at the ULP
level between NumPy releases).
"""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results" / "latest"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_result(results_dir):
    """Write a rendered experiment table to the results directory."""

    def _save(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _save
