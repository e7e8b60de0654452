"""Resumable scenario sweeps: declarative grids over the pricing service.

The experiment layer of the repo.  A :class:`SweepSpec` declares the
independent variables of a study (named axes crossed full-factorial,
invalid cells pruned by named constraints); a :class:`SweepRunner`
executes the grid as traffic through the shared
:class:`~repro.service.PricingService`, committing every condition to
an append-only :class:`RunStore` as it completes; a killed run resumes
exactly the cells that never reached a terminal state, and the
resulting store is bitwise identical to an uninterrupted run
(:meth:`RunStore.fingerprint` is the contract).  Frontier reports
(:func:`frontier_report`) are computed from the store alone — no
re-execution.

CLI: ``repro sweep run | resume | status | report``.  Wire schemas:
``repro-sweep-spec/v1``, ``repro-sweep-row/v1``,
``repro-sweep-frontier/v1``; stats are the ``sweep`` section of
``repro-stats/v12`` — see
``docs/sweeps.md``.
"""

from .frontier import FRONTIER_SCHEMA, frontier_report, render_frontier
from .runner import SweepRunner
from .spec import (
    AXIS_NAMES,
    CONSTRAINTS,
    DEFAULT_CONSTRAINTS,
    SPEC_SCHEMA,
    SweepSpec,
    cell_id,
    decode_value,
    encode_value,
)
from .store import ROW_SCHEMA, ROW_STATUSES, TERMINAL_STATUSES, RunStore, SweepRow
from .studies import BUILTIN_SPECS, builtin_spec, steps_precision_spec

__all__ = [
    "AXIS_NAMES",
    "BUILTIN_SPECS",
    "CONSTRAINTS",
    "DEFAULT_CONSTRAINTS",
    "FRONTIER_SCHEMA",
    "ROW_SCHEMA",
    "ROW_STATUSES",
    "SPEC_SCHEMA",
    "TERMINAL_STATUSES",
    "RunStore",
    "SweepRunner",
    "SweepSpec",
    "SweepRow",
    "builtin_spec",
    "cell_id",
    "decode_value",
    "encode_value",
    "frontier_report",
    "render_frontier",
    "steps_precision_spec",
]
