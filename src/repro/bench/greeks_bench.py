"""Throughput benchmark harness for the batched greeks workload.

Measures :meth:`repro.engine.PricingEngine.run_greeks` — five tree
pricings per option (the level-captured base contract plus four bump
variants, rolled together in one fused task per chunk) — against the
scalar baseline it supersedes:
a Python loop calling :func:`repro.finance.greeks.lattice_greeks` once
per option.  The scalar oracle re-prices five trees per option too, so
the speedup isolates what the engine adds (vectorised batch kernels,
chunking, worker fan-out) rather than comparing different amounts of
work.

Every run cross-checks correctness: every engine greek must agree with
the scalar oracle to ``PARITY_TOL``, and the document records the
worst per-greek deviation.  ``check_throughput_regression`` from
:mod:`~repro.bench.gate` implements the CI gate for the resulting
document — both benchmarks share the document shape.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..core.faithful_math import EXACT_DOUBLE, MathProfile
from ..core.metrics import nodes_per_option
from ..engine import EngineConfig, PricingEngine
from ..errors import ReproError
from ..finance.greeks import lattice_greeks
from ..finance.lattice import LatticeFamily
from ..finance.market import generate_batch
from ..obs import keys as obs_keys
from .gate import make_envelope, median_run
from .gate import write_benchmark  # noqa: F401  (re-export)

__all__ = [
    "GREEKS_BENCH_SCHEMA",
    "PARITY_TOL",
    "baseline_scalar_greeks",
    "run_greeks_benchmark",
]

#: Schema tag written into every BENCH_greeks.json.
GREEKS_BENCH_SCHEMA = "repro-greeks-bench/v1"

#: Engine-vs-scalar-oracle agreement asserted on every benchmark run.
PARITY_TOL = 1e-9

_GREEK_FIELDS = ("price", "delta", "gamma", "theta", "vega", "rho")


def baseline_scalar_greeks(
    options,
    steps: int,
    family: LatticeFamily = LatticeFamily.CRR,
    bump_vol: float = 1e-3,
    bump_rate: float = 1e-4,
) -> "dict[str, np.ndarray]":
    """The pre-engine greeks path: one scalar lattice run per option.

    Returns one float64 array per field of
    :class:`~repro.finance.greeks.LatticeGreeks`, in input order.
    """
    rows = [lattice_greeks(option, steps, family,
                           bump_vol=bump_vol, bump_rate=bump_rate)
            for option in options]
    return {field: np.array([getattr(row, field) for row in rows])
            for field in _GREEK_FIELDS}


def run_greeks_benchmark(
    options_counts: Sequence[int] = (256, 1024),
    steps: int = 256,
    workers_settings: Sequence[int] = (1, 4),
    kernel: str = "iv_b",
    profile: MathProfile = EXACT_DOUBLE,
    family: LatticeFamily = LatticeFamily.CRR,
    seed: int = 20140324,
    bump_vol: float = 1e-3,
    bump_rate: float = 1e-4,
    backend: str = "numpy",
    tracer=None,
) -> dict:
    """Measure batched-greeks throughput against the scalar oracle.

    For each batch size and ``workers`` setting the harness times the
    median of :data:`~repro.bench.gate.TIMED_RUNS` engine greeks runs
    after a warm-up (:func:`~repro.bench.gate.median_run`), asserting
    per-greek agreement with the oracle to :data:`PARITY_TOL`.  Returns
    a JSON-ready document with the same shape as
    :func:`~repro.bench.engine_bench.run_benchmark` (``config`` /
    ``results[*].runs`` with ``engine`` stats rows plus
    ``speedup_vs_baseline``), so
    :func:`~repro.bench.gate.check_throughput_regression` gates both
    benchmarks.
    """
    if kernel not in ("iv_a", "iv_b", "reference"):
        raise ReproError(f"unknown kernel {kernel!r}")
    results = []
    for n_options in options_counts:
        batch = list(generate_batch(n_options=n_options, seed=seed).options)

        start = time.perf_counter()
        oracle = baseline_scalar_greeks(batch, steps, family,
                                        bump_vol=bump_vol,
                                        bump_rate=bump_rate)
        baseline_wall = time.perf_counter() - start
        # five tree pricings per option, leaves included
        tree_nodes = 5 * n_options * (nodes_per_option(steps) + steps + 1)

        runs = []
        parity: "dict[str, float]" = {}
        for workers in workers_settings:
            config = EngineConfig(workers=workers, backend=backend)
            with PricingEngine(kernel=kernel, profile=profile,
                               family=family, config=config,
                               tracer=tracer) as engine:
                result = median_run(lambda: engine.run_greeks(
                    batch, steps, bump_vol=bump_vol, bump_rate=bump_rate))
            engine_fields = {
                "price": result.prices, "delta": result.delta,
                "gamma": result.gamma, "theta": result.theta,
                "vega": result.vega, "rho": result.rho,
            }
            for field in _GREEK_FIELDS:
                diff = float(np.max(np.abs(engine_fields[field]
                                           - oracle[field])))
                parity[field] = max(parity.get(field, 0.0), diff)
                if diff > PARITY_TOL:
                    raise ReproError(
                        f"engine greeks (workers={workers}) disagree "
                        f"with the scalar lattice_greeks oracle on "
                        f"{field}: max abs diff {diff:.3e} > "
                        f"{PARITY_TOL:g}")
            stats = result.stats.as_dict()
            stats["speedup_vs_baseline"] = (
                baseline_wall / stats["wall_time_s"]
            )
            runs.append(stats)

        results.append({
            "options": n_options,
            "baseline": {
                "label": "scalar lattice_greeks loop",
                "wall_time_s": baseline_wall,
                "options_per_second": n_options / baseline_wall,
                "tree_nodes_per_second": tree_nodes / baseline_wall,
            },
            "parity": {
                "tolerance": PARITY_TOL,
                "max_abs_diff": parity,
            },
            "runs": runs,
        })

    return make_envelope(
        GREEKS_BENCH_SCHEMA,
        obs_keys.STATS_SCHEMA,
        config={
            "kernel": kernel,
            "profile": profile.name,
            "family": family.value,
            "steps": steps,
            "seed": seed,
            "bump_vol": bump_vol,
            "bump_rate": bump_rate,
            "backend": backend,
        },
        results=results,
    )
