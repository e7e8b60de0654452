"""The live position book: tolerance-gated dirty marking.

A :class:`PositionBook` holds quantities of priced instruments and two
views of each instrument's market inputs:

* the **live** inputs — whatever the tick feed last said;
* the **effective** inputs — the inputs of the last revaluation, i.e.
  what the currently published risk numbers were computed *from*.

A tick moves the live view and marks the instrument dirty only when
the move exceeds its per-field :class:`Tolerance` **relative to the
effective view** — small moves accumulate until they matter, so drift
cannot hide below the gate forever.  The revaluation loop drains the
dirty set into pricing batches and commits results back, which
promotes the drained live inputs to effective.

The book is columnar: inputs and results live in arrays with one
column per position in insertion order, a drain hands the runner one
:class:`DirtyBatch` of contract columns and a commit writes result
columns back.  Aggregation is deliberately shape-stable — the same dot
products over the same book order every time — so two books that
priced the same inputs publish **bitwise-identical** aggregates, the
property the full-repricing oracle checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..api import GREEKS_COLUMNS
from ..errors import StreamError
from ..finance.options import OPTION_ROWS, Option, OptionArrays
from .ticks import TICK_FIELDS, Tick

__all__ = [
    "AGGREGATE_COLUMNS",
    "DirtyBatch",
    "PositionBook",
    "Position",
    "RiskAggregate",
    "Tolerance",
]

#: Value column plus the five greeks, in aggregate order.
AGGREGATE_COLUMNS = ("value",) + GREEKS_COLUMNS

#: Row of each tick field in an :class:`~repro.finance.OptionArrays` block.
_FIELD_ROWS = {field: OPTION_ROWS.index(field) for field in TICK_FIELDS}


@dataclass(frozen=True)
class Tolerance:
    """Dead-band for one market-data field.

    A new value is *material* when ``|new - reference| >
    abs_tol + rel_tol * |reference|`` — the usual combined
    absolute/relative test, with the **effective** (last-repriced)
    value as the reference.  The default (both zero) makes every move
    material, i.e. tolerance gating off.
    """

    abs_tol: float = 0.0
    rel_tol: float = 0.0

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise StreamError(
                    f"{name} must be finite and >= 0, got {value}")

    def material(self, reference: float, value: float) -> bool:
        return abs(value - reference) > (self.abs_tol
                                         + self.rel_tol * abs(reference))


@dataclass(frozen=True)
class Position:
    """One holding: an instrument id, its contract, size and depth.

    :param instrument_id: unique key ticks address the position by.
    :param option: the contract; its ``spot``/``volatility``/``rate``
        seed the initial live and effective inputs.
    :param quantity: signed holding size (negative = short).
    :param steps: binomial tree depth this instrument is priced at.
    """

    instrument_id: str
    option: Option
    quantity: float = 1.0
    steps: int = 512

    def __post_init__(self):
        if not self.instrument_id:
            raise StreamError("instrument_id must be non-empty")
        if not math.isfinite(self.quantity):
            raise StreamError(
                f"quantity must be finite, got {self.quantity}")
        if self.steps < 1:
            raise StreamError(f"steps must be >= 1, got {self.steps}")


class RiskAggregate(dict):
    """``{column: float}`` over :data:`AGGREGATE_COLUMNS` (qty-weighted)."""

    __slots__ = ()


@dataclass(frozen=True, eq=False)
class DirtyBatch:
    """The instruments one revaluation owes, as columns.

    :param ids: instrument ids, in book order.
    :param rows: their book rows (ascending).
    :param columns: their contracts at the live inputs the drain
        snapshotted — the inputs that become effective on commit.
    :param steps: the request's tree depth: one ``int`` when every
        drained position shares it, else one per instrument.
    """

    ids: "tuple[str, ...]"
    rows: np.ndarray
    columns: OptionArrays
    steps: "int | tuple[int, ...]"

    def __len__(self) -> int:
        return len(self.ids)


class PositionBook:
    """Positions keyed by instrument id, with tolerance dirty marking.

    :param tolerances: per-field :class:`Tolerance` map (missing
        fields default to zero tolerance, i.e. every move is
        material).  One map applies book-wide.

    State is columnar, one column per position in insertion order:
    the live and effective inputs are two
    :class:`~repro.finance.OptionArrays`-shaped ``(8, n)`` blocks (a
    tick writes one element, a drain takes the dirty columns of the
    live block, a commit writes them into the effective one), and the
    revaluation results are one ``(6, n)`` value block beside a
    quantity vector, so :meth:`aggregate` is six dot products.

    Not thread-safe by design: the revaluation loop is the single
    writer, exactly like the engine's scheduler owns its queues.
    """

    def __init__(self, tolerances: "dict[str, Tolerance] | None" = None):
        tolerances = dict(tolerances or {})
        for field in tolerances:
            if field not in TICK_FIELDS:
                raise StreamError(
                    f"tolerance for unknown field {field!r} "
                    f"(expected one of {TICK_FIELDS})")
        zero = Tolerance()
        self._tolerances = {field: tolerances.get(field, zero)
                            for field in TICK_FIELDS}
        self._rows: "dict[str, int]" = {}
        self._ids: "list[str]" = []
        self._positions: "list[Position]" = []
        self._steps: "list[int]" = []
        self._dirty: "set[int]" = set()  # rows owed a revaluation
        self._unpriced: "set[int]" = set()  # rows never committed
        # columns [0, len) are in use; capacity doubles on demand
        self._live = np.empty((len(OPTION_ROWS), 0))
        self._effective = np.empty((len(OPTION_ROWS), 0))
        self._values = np.empty((len(AGGREGATE_COLUMNS), 0))
        self._quantity = np.empty(0)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, instrument_id: str) -> bool:
        return instrument_id in self._rows

    @property
    def instruments(self) -> "tuple[str, ...]":
        return tuple(self._ids)

    def positions(self) -> "tuple[Position, ...]":
        return tuple(self._positions)

    def add(self, position: Position) -> None:
        if position.instrument_id in self._rows:
            raise StreamError(
                f"instrument {position.instrument_id!r} is already in "
                f"the book")
        row = len(self)
        if row == self._quantity.shape[0]:
            self._grow(max(16, 2 * row))
        contract = OptionArrays.from_options([position.option]).block[:, 0]
        self._live[:, row] = contract
        self._effective[:, row] = contract
        self._quantity[row] = position.quantity
        self._steps.append(position.steps)
        self._dirty.add(row)  # never priced yet
        self._unpriced.add(row)
        self._rows[position.instrument_id] = row
        self._ids.append(position.instrument_id)
        self._positions.append(position)

    def _grow(self, capacity: int) -> None:
        for name in ("_live", "_effective", "_values", "_quantity"):
            old = getattr(self, name)
            new = np.zeros(old.shape[:-1] + (capacity,), dtype=old.dtype)
            new[..., :old.shape[-1]] = old
            setattr(self, name, new)

    def _row(self, instrument_id: str, action: str) -> int:
        row = self._rows.get(instrument_id)
        if row is None:
            raise StreamError(
                f"{action} for unknown instrument {instrument_id!r}")
        return row

    # -- tick ingestion -------------------------------------------------

    def apply(self, tick: Tick) -> str:
        """Apply one tick to the live view; returns its disposition.

        ``"marked"`` — the move was material and flipped the
        instrument clean→dirty; ``"pending"`` — the instrument was
        already dirty (the next drain picks up the newest live inputs
        regardless of this move's size); ``"suppressed"`` — the move
        stayed inside tolerance of the effective value and no
        revaluation is owed.
        """
        row = self._row(tick.instrument_id, "tick")
        field = _FIELD_ROWS[tick.field]
        value = float(tick.value)
        self._live[field, row] = value
        if row in self._dirty:
            return "pending"
        reference = float(self._effective[field, row])
        if self._tolerances[tick.field].material(reference, value):
            self._dirty.add(row)
            return "marked"
        return "suppressed"

    # -- revaluation handshake -----------------------------------------

    def dirty_ids(self) -> "tuple[str, ...]":
        return tuple(self._ids[row] for row in sorted(self._dirty))

    def drain_dirty(self) -> DirtyBatch:
        """Snapshot and clear the dirty set.

        Returns the dirty instruments in book order as one
        :class:`DirtyBatch` (empty when nothing is owed): their live
        contract columns, ready to become one
        ``PricingRequest(columns=...)``.  The caller prices them and
        hands the batch back to :meth:`commit` with the results; the
        snapshot columns are the exact inputs that become effective.
        """
        rows = sorted(self._dirty)
        self._dirty.clear()
        depths = [self._steps[row] for row in rows]
        steps: "int | tuple[int, ...]" = (
            depths[0] if depths and depths.count(depths[0]) == len(depths)
            else tuple(depths))
        index = np.array(rows, dtype=np.intp)
        # every column was vetted on its way in (Option construction,
        # Tick validation), so the block is handed out read-only and a
        # request shares it as is
        block = self._live.take(index, axis=1)  # compact, C-ordered
        block.setflags(write=False)
        return DirtyBatch(ids=tuple(self._ids[row] for row in rows),
                          rows=index, columns=OptionArrays(block),
                          steps=steps)

    def commit(self, batch: DirtyBatch, values) -> None:
        """Record the revaluation of a drained batch.

        ``batch`` must be what :meth:`drain_dirty` returned — its
        columns become the new effective inputs.  ``values`` holds the
        results as rows over the batch in :data:`AGGREGATE_COLUMNS`
        order: one row (value only, a price task; the greeks are
        recorded as 0.0) or all six (a greeks result's ``block``).
        """
        for row, name in zip(batch.rows.tolist(), batch.ids):
            if row >= len(self) or self._ids[row] != name:
                raise StreamError(
                    f"commit for unknown instrument {name!r}")
        values = np.asarray(values, dtype=np.float64).reshape(
            -1, len(batch))
        rows = batch.rows
        self._effective[:, rows] = batch.columns.block
        self._values[:len(values), rows] = values
        if len(values) < len(AGGREGATE_COLUMNS):
            self._values[len(values):, rows] = 0.0
        if self._unpriced:
            self._unpriced.difference_update(rows.tolist())

    # -- aggregation ----------------------------------------------------

    def _inputs(self, block: np.ndarray, instrument_id: str
                ) -> "dict[str, float]":
        row = self._row(instrument_id, "lookup")
        return {field: float(block[_FIELD_ROWS[field], row])
                for field in TICK_FIELDS}

    def effective_inputs(self, instrument_id: str) -> "dict[str, float]":
        return self._inputs(self._effective, instrument_id)

    def live_inputs(self, instrument_id: str) -> "dict[str, float]":
        return self._inputs(self._live, instrument_id)

    def values(self, instrument_id: str) -> "dict[str, float]":
        """The last committed value and greeks of one instrument."""
        row = self._row(instrument_id, "lookup")
        return {column: float(self._values[index, row])
                for index, column in enumerate(AGGREGATE_COLUMNS)}

    def effective_option(self, instrument_id: str) -> Option:
        """The contract at its as-of-last-revaluation inputs."""
        row = self._row(instrument_id, "lookup")
        return OptionArrays(self._effective[:, [row]]).to_options()[0]

    def aggregate(self) -> RiskAggregate:
        """Quantity-weighted portfolio totals over every position.

        Each column is one dot product of the quantity vector with one
        contiguous row of the value block, in book insertion order —
        six ``quantity @ values[c]`` products, not one matrix-vector
        product, whose summation order would differ — so identical
        per-instrument values always aggregate bitwise-identically.

        :raises StreamError: some position has never been priced.
        """
        if self._unpriced:
            first = self._ids[min(self._unpriced)]
            raise StreamError(
                f"cannot aggregate: {len(self._unpriced)} position(s) "
                f"never priced (first: {first!r})")
        n = len(self)
        quantity = self._quantity[:n]
        return RiskAggregate(zip(AGGREGATE_COLUMNS, map(
            float, map(quantity.dot, self._values[:, :n]))))
