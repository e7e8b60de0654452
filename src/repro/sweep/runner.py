"""`SweepRunner` — execute a grid as heavy traffic through the service.

Every condition becomes two :class:`~repro.api.PricingRequest`\\ s
submitted to a shared :class:`~repro.service.PricingService`: the
cell's own configuration plus its double-precision reference (the
accuracy yardstick).  Driving the grid through the service buys the
serving stack's machinery for free — coalescing merges compatible
cells into engine-sized flushes, and the content-keyed cache dedups
the reference pricing across every cell that shares ``(steps,
options)``.

Crash-safe resume
-----------------

The runner's only mutable state is the :class:`~repro.sweep.store.
RunStore` file.  Cells run in the spec's enumeration order; each one
appends a ``running`` row, executes, then atomically commits a
``done``/``failed`` row (one fsynced line).  Killing the process at
any point therefore loses at most the in-flight cell; a restart
skips exactly the terminal cells and re-runs the rest.  Because every
result field is a pure function of the spec (prices are bitwise
deterministic — the service asserts as much under coalescing and
healed fault injection), the resumed store's canonical fingerprint
equals an uninterrupted run's, which ``tests/sweep`` and the
``sweep-smoke`` CI job assert.

Conditions that differ in ``fault_seed`` or ``workers`` cannot share
a service (both knobs live in :class:`~repro.service.ServiceConfig`),
so the runner keeps one lazily-built service per ``(fault_seed,
workers)`` group and routes each cell to its group's service.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import replace as dc_replace

import numpy as np

from ..api import PricingRequest
from ..errors import SweepError, wire_error
from ..obs.metrics import LayerMetrics, Snapshot
from .spec import SweepSpec
from .store import RunStore, SweepRow

__all__ = ["SweepRunner"]


def _cell_seed(base_seed: int, cell: str) -> int:
    """Stable per-cell RNG seed (base seed folded with the cell id)."""
    digest = hashlib.blake2b(cell.encode(), digest_size=4).hexdigest()
    return (int(base_seed) ^ int(digest, 16)) & 0x7FFFFFFF


def _cell_options(condition: dict):
    """The deterministic option batch of one condition."""
    from dataclasses import replace

    from ..finance.market import generate_batch
    from ..finance.options import ExerciseStyle, OptionType

    batch = list(generate_batch(
        n_options=condition["n_options"],
        seed=_cell_seed(condition["seed"], condition["cell"]),
    ).options)
    option_type = condition.get("option_type", "mixed")
    exercise = condition.get("exercise", "american")
    if option_type == "mixed":
        batch = [replace(o, option_type=(OptionType.CALL if i % 2 == 0
                                         else OptionType.PUT))
                 for i, o in enumerate(batch)]
    elif option_type in ("call", "put"):
        batch = [replace(o, option_type=OptionType(option_type))
                 for o in batch]
    else:
        raise SweepError(f"option_type must be call/put/mixed, "
                         f"got {option_type!r}")
    if exercise == "mixed":
        batch = [replace(o, exercise=(ExerciseStyle.AMERICAN if i % 2 == 0
                                      else ExerciseStyle.EUROPEAN))
                 for i, o in enumerate(batch)]
    elif exercise in ("american", "european"):
        batch = [replace(o, exercise=ExerciseStyle(exercise))
                 for o in batch]
    else:
        raise SweepError(f"exercise must be american/european/mixed, "
                         f"got {exercise!r}")
    return batch


def _modeled_estimate(kernel: str, precision: str, steps: int) -> dict:
    """The calibrated device model's view of one configuration.

    FPGA kernels map onto the paper's DE4 operating points, the
    software reference onto the Xeon model — the same models the E2/E9
    experiments report, so the frontier's energy axis matches the
    paper's tables.
    """
    from ..core.perf_model import (
        kernel_a_estimate,
        kernel_b_estimate,
        reference_estimate,
    )
    from ..devices import cpu_compute_model, fpga_compute_model

    if kernel == "iv_a":
        estimate = kernel_a_estimate(
            fpga_compute_model("iv_a", precision=precision), steps)
    elif kernel == "iv_b":
        estimate = kernel_b_estimate(
            fpga_compute_model("iv_b", precision=precision), steps)
    else:
        estimate = reference_estimate(cpu_compute_model(precision), steps)
    return {
        "options_per_second": float(estimate.options_per_second),
        "options_per_joule": float(estimate.options_per_joule),
        "power_w": float(estimate.power_w),
    }


def _digest_result(result) -> str:
    """Bitwise digest of a cell's numeric payload (prices + greeks)."""
    digest = hashlib.blake2b(digest_size=8)
    digest.update(np.asarray(result.prices, dtype=np.float64).tobytes())
    for column in ("delta", "gamma", "theta", "vega", "rho"):
        value = getattr(result, column, None)
        if value is not None:
            digest.update(np.asarray(value, dtype=np.float64).tobytes())
    return digest.hexdigest()


class SweepRunner:
    """Execute (or resume) one :class:`SweepSpec` grid into a store.

    :param spec: the grid to run.
    :param store: a :class:`RunStore` or a path to one.
    :param service_config: base :class:`~repro.service.ServiceConfig`
        for the shared services; per-group ``faults``/``workers`` are
        overlaid from each cell's condition.
    :param tracer: optional :class:`repro.obs.Tracer`; each pass
        records a ``sweep.run`` root span with one ``cell`` child per
        executed condition.
    :param clock: timestamp source for the volatile ``meta`` envelope
        (injectable for tests; never part of the canonical rows).
    """

    def __init__(self, spec: SweepSpec, store, service_config=None,
                 tracer=None, clock=time.time):
        from ..service import ServiceConfig

        self.spec = spec
        self.store = store if isinstance(store, RunStore) else RunStore(store)
        self.service_config = service_config or ServiceConfig()
        self.tracer = tracer
        self._clock = clock
        self._services: dict = {}

    # -- service pool ----------------------------------------------------

    def _service_for(self, condition: dict):
        from ..engine import EngineConfig
        from ..engine.faults import FaultPlan
        from ..service import PricingService

        key = (condition.get("fault_seed"), condition.get("workers"))
        service = self._services.get(key)
        if service is None:
            fault_seed, workers = key
            config = self.service_config
            if fault_seed is not None:
                config = dc_replace(config, faults=FaultPlan.random(
                    fault_seed, max(condition["n_options"], 64)))
            if workers is not None:
                config = dc_replace(config, engine_config=dc_replace(
                    config.engine_config or EngineConfig(), workers=workers))
            service = PricingService(config, tracer=self.tracer)
            self._services[key] = service
        return service

    def _close_services(self) -> None:
        while self._services:
            _key, service = self._services.popitem()
            service.close()

    # -- execution -------------------------------------------------------

    def _execute(self, condition: dict) -> "tuple[dict, dict]":
        """Price one cell; returns ``(result fields, meta fields)``."""
        batch = _cell_options(condition)
        service = self._service_for(condition)
        request = PricingRequest(
            options=batch,
            steps=condition["steps"],
            kernel=condition["kernel"],
            precision=condition["precision"],
            family=condition["family"],
            task=condition["task"],
            strict=False,
            backend=condition["backend"],
            bump_vol=condition.get("bump_vol", 1e-3),
            bump_rate=condition.get("bump_rate", 1e-4),
        )
        reference_request = PricingRequest(
            options=batch,
            steps=condition["reference_steps"] or condition["steps"],
            kernel="reference",
            precision="double",
            family=condition["family"],
            task="price",
            strict=False,
            backend="numpy",
        )
        future = service.submit(request)
        reference_future = service.submit(reference_request)
        result = future.result()
        reference = reference_future.result()

        prices = np.asarray(result.prices, dtype=np.float64)
        reference_prices = np.asarray(reference.prices, dtype=np.float64)
        mask = np.isfinite(prices) & np.isfinite(reference_prices)
        if mask.any():
            errors = prices[mask] - reference_prices[mask]
            rmse = float(np.sqrt(np.mean(errors * errors)))
            max_abs_err = float(np.max(np.abs(errors)))
        else:
            rmse = float("nan")
            max_abs_err = float("nan")

        failures = [
            dict(record.as_dict(),
                 code=(wire_error(record.exception)[0]
                       if record.exception is not None else "engine_error"))
            for record in (result.failures or ())
        ]
        fields = {
            "options": len(batch),
            "rmse": rmse,
            "max_abs_err": max_abs_err,
            "prices_blake2b": _digest_result(result),
            "failures": failures,
            "modeled": _modeled_estimate(condition["kernel"],
                                         condition["precision"],
                                         condition["steps"]),
        }
        meta = {
            "cache_hit": bool(result.cache_hit),
            "reference_cache_hit": bool(reference.cache_hit),
            "batch_options": int(result.batch_options),
        }
        return fields, meta

    def _host_meta(self) -> dict:
        from ..bench.gate import host_info

        return host_info()

    def run(self, limit: "int | None" = None) -> Snapshot:
        """Run every not-yet-terminal cell (at most ``limit`` of them).

        Returns the pass's ``sweep`` stats snapshot, taken from the
        pass's own metrics, which are then published into the
        process-wide registry.  Safe to call on a
        completed store: it appends nothing and executes nothing — a
        finished grid re-runs as a no-op.
        """
        conditions = self.spec.conditions()
        if not conditions:
            raise SweepError(
                f"spec {self.spec.name!r} has no cells after constraint "
                f"pruning ({self.spec.pruned_count()} pruned)")
        self.store.check_spec(self.spec)
        fingerprint = self.spec.fingerprint()
        latest = self.store.latest()

        unregistered = [c for c in conditions if c["cell"] not in latest]
        self.store.append_all(
            SweepRow(cell=c["cell"], status="pending", spec=fingerprint,
                     condition={k: v for k, v in c.items() if k != "cell"})
            for c in unregistered)

        terminal = {cell for cell, row in latest.items() if row.terminal}
        to_run = [c for c in conditions if c["cell"] not in terminal]
        if limit is not None:
            to_run = to_run[:max(int(limit), 0)]

        metrics = LayerMetrics("sweep")
        metrics.cells.inc(len(conditions))
        metrics.pruned.inc(self.spec.pruned_count())
        metrics.skipped.inc(len(terminal))

        run_span = None
        if self.tracer is not None:
            run_span = self.tracer.start_span(
                f"sweep.run[{self.spec.name}]", "sweep",
                spec=fingerprint, cells=len(conditions),
                resumed_over=len(terminal))

        try:
            for condition in to_run:
                cell = condition["cell"]
                bare = {k: v for k, v in condition.items() if k != "cell"}
                started_at = self._clock()
                self.store.append(SweepRow(
                    cell=cell, status="running", spec=fingerprint,
                    condition=bare, meta={"started_at": started_at}))
                cell_span = (run_span.child(f"cell[{cell}]", "cell")
                             if run_span is not None else None)
                wall_start = time.perf_counter()
                try:
                    fields, run_meta = self._execute(condition)
                except Exception as exc:  # typed per-cell failure scoping
                    wall = time.perf_counter() - wall_start
                    code, _status = wire_error(exc)
                    metrics.failed.inc()
                    self.store.append(SweepRow(
                        cell=cell, status="failed", spec=fingerprint,
                        condition=bare,
                        error={"code": code, "message": str(exc)},
                        meta={"started_at": started_at,
                              "finished_at": self._clock(),
                              "wall_s": wall, "host": self._host_meta()}))
                else:
                    wall = time.perf_counter() - wall_start
                    metrics.done.inc()
                    metrics.options.inc(fields["options"])
                    self.store.append(SweepRow(
                        cell=cell, status="done", spec=fingerprint,
                        condition=bare, result=fields,
                        meta=dict(run_meta, started_at=started_at,
                                  finished_at=self._clock(),
                                  wall_s=wall, host=self._host_meta())))
                metrics.executed.inc()
                metrics.mean_cell_s.observe(wall)
                if cell_span is not None:
                    cell_span.set(wall_s=wall).end()
        finally:
            stats = Snapshot.from_metrics(metrics)
            metrics.publish()
            if run_span is not None:
                run_span.set(executed=stats.executed, done=stats.done,
                             failed=stats.failed).end()
            self._close_services()
        return stats

    def status(self) -> "dict[str, int]":
        """Latest-status histogram of the store (see ``RunStore.counts``)."""
        return self.store.counts()
