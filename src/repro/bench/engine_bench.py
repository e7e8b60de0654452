"""Throughput benchmark harness for the batched pricing engine.

Measures the engine against its own arithmetic run bare: one
single-threaded call of the NumPy-path kernel simulator
(``simulate_kernel_{a,b}_batch``) over the whole batch, with no
chunking, threads, retries or instrumentation.  The result is written
to ``BENCH_engine.json`` so future changes have a perf trajectory to
regress against.

The same timed call is the correctness reference: engine prices must
be bit-identical to it on every run, whatever the backend.

``check_throughput_regression`` implements the CI gate: it compares a
fresh run against a stored baseline file and reports every
configuration whose throughput dropped more than the allowed fraction.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..core.batch_sim import simulate_kernel_a_batch, simulate_kernel_b_batch
from ..core.faithful_math import EXACT_DOUBLE, MathProfile
from ..core.metrics import nodes_per_option
from ..engine import EngineConfig, PricingEngine
from ..errors import ReproError
from ..finance.lattice import LatticeFamily
from ..finance.market import generate_batch
from ..obs import keys as obs_keys
from .gate import check_throughput_regression, make_envelope, write_benchmark

__all__ = [
    "BENCH_SCHEMA",
    "run_benchmark",
    "write_benchmark",
    "check_throughput_regression",
]

#: Schema tag written into every BENCH_engine.json (see docs/paper_mapping.md).
BENCH_SCHEMA = "repro-engine-bench/v1"


_SIMULATORS = {
    "iv_a": simulate_kernel_a_batch,
    "iv_b": simulate_kernel_b_batch,
}


# --------------------------------------------------------------------------
# Benchmark driver
# --------------------------------------------------------------------------


def run_benchmark(
    options_counts: Sequence[int] = (1024, 4096),
    steps: int = 1024,
    workers_settings: Sequence[int] = (1, 4),
    kernel: str = "iv_b",
    profile: MathProfile = EXACT_DOUBLE,
    family: LatticeFamily = LatticeFamily.CRR,
    seed: int = 20140324,
    backend: str = "numpy",
    tracer=None,
) -> dict:
    """Measure engine throughput against the bare simulator call.

    For each batch size: time one single-threaded NumPy-path simulator
    call over the batch (the baseline), then one engine run per
    ``workers`` setting, asserting bit-identity with the baseline's
    prices.
    Returns the JSON-ready result document (see ``BENCH_SCHEMA``); the
    per-run stats use exactly the :data:`repro.obs.keys.STATS_KEYS`
    schema, declared in the document's ``stats_schema`` field.

    ``backend`` selects the engine's roll-loop backend (see
    :mod:`repro.backends`).  The simulator reference is always priced
    on the NumPy path, so the bit-identity assertion doubles as the
    in-run cross-backend parity gate: a compiled backend that drifts
    by a single ULP fails the benchmark.

    Pass a :class:`repro.obs.trace.Tracer` to record every engine run
    as its own root span tree (one root per measured configuration;
    the baseline call is not an engine run and is never traced).
    """
    if kernel not in _SIMULATORS:
        raise ReproError(f"benchmark supports kernels "
                         f"{tuple(_SIMULATORS)}, got {kernel!r}")
    results = []
    for n_options in options_counts:
        batch = list(generate_batch(n_options=n_options, seed=seed).options)

        start = time.perf_counter()
        simulator_prices = _SIMULATORS[kernel](batch, steps, profile, family)
        baseline_wall = time.perf_counter() - start
        tree_nodes = n_options * (nodes_per_option(steps) + steps + 1)

        runs = []
        for workers in workers_settings:
            with PricingEngine(kernel=kernel, profile=profile, family=family,
                               config=EngineConfig(workers=workers,
                                                   backend=backend),
                               tracer=tracer) as engine:
                result = engine.run(batch, steps)
            if not np.array_equal(result.prices, simulator_prices):
                raise ReproError(
                    f"engine (workers={workers}, backend="
                    f"{result.stats.backend}) is not bit-identical to "
                    f"the NumPy-path simulator"
                )
            stats = result.stats.as_dict()
            stats["speedup_vs_baseline"] = (
                result.stats.options_per_second * baseline_wall / n_options
            )
            runs.append(stats)

        results.append({
            "options": n_options,
            "baseline": {
                "label": "single-threaded numpy simulator call",
                "wall_time_s": baseline_wall,
                "options_per_second": n_options / baseline_wall,
                "tree_nodes_per_second": tree_nodes / baseline_wall,
            },
            "parity": {"bit_identical_to_simulator": True},
            "runs": runs,
        })

    return make_envelope(
        BENCH_SCHEMA,
        obs_keys.STATS_SCHEMA,
        config={
            "kernel": kernel,
            "profile": profile.name,
            "family": family.value,
            "steps": steps,
            "seed": seed,
            "backend": backend,
        },
        results=results,
    )
