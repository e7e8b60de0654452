"""The shared bench-report envelope and the CI regression gate.

Every benchmark harness (engine, greeks, service, serve, stream) used
to build its own copy of the same document scaffolding — the host
block, the schema tags, the JSON writer, the throughput gate.  This
module owns all of it once:

* :func:`make_envelope` stamps the unified ``repro-bench/v2`` envelope
  on a harness document: the harness keeps its own ``schema`` (which
  external consumers switch on, unchanged), and gains an ``envelope``
  tag plus the shared ``host`` block — now including the git revision,
  so a stored baseline says what code produced it.
* :func:`load_benchmark` reads a stored document and normalises the
  envelope: a pre-v2 file (no ``envelope`` key — every
  ``benchmarks/BENCH_*.quick.json`` baseline shipped before this
  module) is tagged ``repro-bench/v1`` so downstream code can branch
  on one field instead of sniffing keys.
* :func:`check_throughput_regression` is the CI gate shared by every
  ``--check-against`` code path: configurations matched on
  ``(options, workers)``, equal ``config`` required, >30% throughput
  regression fails.
* :func:`latency_summary` is the one per-request latency block the
  service, serve and stream harnesses report.
"""

from __future__ import annotations

import json
import os
import platform as _platform
import subprocess
from pathlib import Path

import numpy as np

from ..errors import ReproError

__all__ = [
    "BENCH_ENVELOPE_SCHEMA",
    "BENCH_ENVELOPE_V1",
    "check_throughput_regression",
    "git_revision",
    "host_info",
    "latency_summary",
    "load_benchmark",
    "make_envelope",
    "write_benchmark",
]

#: Envelope tag of documents produced by this build.
BENCH_ENVELOPE_SCHEMA = "repro-bench/v2"

#: Envelope tag :func:`load_benchmark` assigns to pre-envelope files.
BENCH_ENVELOPE_V1 = "repro-bench/v1"


def git_revision() -> "str | None":
    """The repo's HEAD commit, or ``None`` outside a checkout.

    Best-effort provenance only: a missing ``git`` binary, a source
    tarball or a timeout all degrade to ``None`` rather than failing
    the benchmark that asked.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=5.0)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    revision = out.stdout.strip()
    return revision or None


def host_info() -> dict:
    """The shared ``host`` block of every benchmark document."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": _platform.platform(),
        "python": _platform.python_version(),
        "numpy": np.__version__,
        "git": git_revision(),
    }


def make_envelope(schema: str, stats_schema: str, config: dict,
                  results, **extra) -> dict:
    """Assemble one benchmark document under the unified envelope.

    ``schema`` stays the harness's own document tag (stable, external
    consumers switch on it); ``envelope`` tags the shared scaffolding
    version.  ``extra`` keys land top-level (e.g. the serve bench's
    ``scaling`` block).
    """
    document = {
        "schema": schema,
        "envelope": BENCH_ENVELOPE_SCHEMA,
        "stats_schema": stats_schema,
        "host": host_info(),
        "config": config,
        "results": results,
    }
    document.update(extra)
    return document


def write_benchmark(document: dict, path: "str | Path") -> Path:
    """Serialise a benchmark document to ``path`` (pretty-printed)."""
    path = Path(path)
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def load_benchmark(path: "str | Path") -> dict:
    """Read a stored benchmark document, normalising the envelope.

    Pre-envelope files (every baseline written before ``repro-bench/
    v2``) carry no ``envelope`` key; they are tagged
    :data:`BENCH_ENVELOPE_V1` on load so callers can branch on the one
    field.  Anything that is not a JSON object is refused.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict):
        raise ReproError(
            f"{path}: benchmark document must be a JSON object, "
            f"got {type(document).__name__}")
    document.setdefault("envelope", BENCH_ENVELOPE_V1)
    return document


def check_throughput_regression(
    current: dict,
    baseline: dict,
    max_regression: float = 0.30,
) -> "list[str]":
    """CI regression gate: compare two benchmark documents.

    Configurations are matched on ``(options, workers)`` and the
    global kernel/steps/backend config must agree; a configuration
    fails when its options/s fell more than ``max_regression`` below
    the stored baseline.  Returns the list of failure messages (empty
    = pass).
    """
    failures: "list[str]" = []
    if current["config"] != baseline["config"]:
        return [
            f"benchmark configs differ (current {current['config']} vs "
            f"baseline {baseline['config']}); not comparable"
        ]
    baseline_rates = {
        (entry["options"], run["workers"]): run["options_per_second"]
        for entry in baseline["results"]
        for run in entry["runs"]
    }
    for entry in current["results"]:
        for run in entry["runs"]:
            key = (entry["options"], run["workers"])
            if key not in baseline_rates:
                continue
            floor = baseline_rates[key] * (1.0 - max_regression)
            if run["options_per_second"] < floor:
                failures.append(
                    f"options={key[0]} workers={key[1]}: "
                    f"{run['options_per_second']:.1f} options/s is below "
                    f"{floor:.1f} ({1 - max_regression:.0%} of stored "
                    f"baseline {baseline_rates[key]:.1f})"
                )
    return failures


def latency_summary(latencies) -> dict:
    """Count, p50/p99/p99.9, mean and max of per-request latency.

    ``latencies`` are seconds (any sequence or array); the summary is
    in milliseconds, and an empty input gives zeros throughout.
    """
    array = np.asarray(latencies, dtype=np.float64)
    if not array.size:
        return {"count": 0, "p50_ms": 0.0, "p99_ms": 0.0, "p999_ms": 0.0,
                "mean_ms": 0.0, "max_ms": 0.0}
    return {
        "count": int(array.size),
        "p50_ms": float(np.percentile(array, 50) * 1e3),
        "p99_ms": float(np.percentile(array, 99) * 1e3),
        "p999_ms": float(np.percentile(array, 99.9) * 1e3),
        "mean_ms": float(array.mean() * 1e3),
        "max_ms": float(array.max() * 1e3),
    }
