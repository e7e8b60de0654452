"""The incremental revaluation loop and its full-repricing oracle.

:class:`StreamRunner` connects a tick source, a
:class:`~repro.stream.PositionBook` and the in-process
:class:`~repro.service.PricingService`: ticks move the book's live
inputs, the tolerance gate marks instruments dirty, and every
``batch_ticks`` ticks the runner drains the dirty set's contract
columns into **one** greeks/price :class:`~repro.api.PricingRequest`
(no per-option object on the way), commits the result rows, and
publishes a sequence-numbered portfolio aggregate
(:class:`AggregateUpdate`).  The service's content-keyed cache
invalidates moved instruments for free — a moved input is a new
request key — while unmoved neighbours that re-enter a batch hit it.

Correctness is anchored by :func:`full_repricing_oracle`: pricing the
whole book from scratch at its *effective* (as-of-last-revaluation)
inputs must reproduce the streamed aggregate **bitwise**, because the
engine's per-option math is row-independent (batch composition cannot
move a ULP — the engine determinism contract) and both paths reduce
columns with the same dot product over the same book order.

Latency is measured tick-to-risk: from the moment a materialised tick
is applied to the moment the aggregate covering it is published.
Suppressed ticks never produce an aggregate, so they carry no
latency sample — they are counted separately.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..api import GREEKS_COLUMNS, PricingRequest, greeks as api_greeks, \
    price as api_price
from ..devices.base import Precision
from ..errors import StreamError
from ..finance.lattice import LatticeFamily
from ..obs.metrics import LayerMetrics, Snapshot
from .book import AGGREGATE_COLUMNS, PositionBook, RiskAggregate

__all__ = [
    "AggregateUpdate",
    "StreamConfig",
    "StreamRunner",
    "full_repricing_oracle",
]

@dataclass(frozen=True)
class StreamConfig:
    """Pricing knobs of one streaming run (mirrors the request fields).

    :param task: ``"greeks"`` publishes all six aggregate columns;
        ``"price"`` publishes portfolio value only (greeks columns
        aggregate to 0.0).
    :param batch_ticks: revalue after this many applied ticks (and
        always once more at end of stream).  The wait for the batch to
        fill is most of the tick-to-risk latency, and each revaluation
        pays a fixed cost (request, service hop, engine run, aggregate)
        on top of its per-instrument work; the default of 3 is the
        smallest batch whose instruments/s stays near what eight-tick
        batches reached before requests were columnar
        (``docs/streaming.md`` has the measured trade).
    :param reval_timeout_s: how long to wait on one revaluation batch.
    """

    kernel: str = "iv_b"
    precision: str = Precision.DOUBLE
    family: LatticeFamily = LatticeFamily.CRR
    backend: str = "auto"
    task: str = "greeks"
    batch_ticks: int = 3
    reval_timeout_s: float = 60.0

    def __post_init__(self):
        if self.task not in ("price", "greeks"):
            raise StreamError(
                f"task must be 'price' or 'greeks', got {self.task!r}")
        if self.batch_ticks < 1:
            raise StreamError(
                f"batch_ticks must be >= 1, got {self.batch_ticks}")
        if not self.reval_timeout_s > 0:
            raise StreamError(
                f"reval_timeout_s must be > 0, got {self.reval_timeout_s}")


@dataclass(frozen=True)
class AggregateUpdate:
    """One published portfolio-risk snapshot.

    :param seq: 1-based publication sequence number.
    :param ts: stream time of the last tick folded in (0.0 for the
        initial whole-book valuation).
    :param columns: quantity-weighted totals over
        :data:`~repro.stream.AGGREGATE_COLUMNS`.
    :param pnl: change of ``columns["value"]`` since the previous
        update (0.0 on the first).
    :param repriced: instruments revalued for this update.
    :param instruments: book size at publication.
    """

    seq: int
    ts: float
    columns: RiskAggregate
    pnl: float
    repriced: int
    instruments: int

    @property
    def value(self) -> float:
        return self.columns["value"]

    def as_dict(self) -> dict:
        """JSON-ready form; column floats as hex for bitwise fidelity."""
        return {
            "seq": self.seq,
            "ts": self.ts,
            "columns": {name: float(value).hex()
                        for name, value in self.columns.items()},
            "pnl": float(self.pnl).hex(),
            "repriced": self.repriced,
            "instruments": self.instruments,
        }


@dataclass
class _PendingLatency:
    """Arrival times of ticks awaiting their covering aggregate."""

    arrivals: "list[float]" = field(default_factory=list)


class StreamRunner:
    """Drive a position book through a tick stream incrementally.

    :param book: the positions and their tolerance gate.
    :param service: an open :class:`~repro.service.PricingService`
        (caller keeps ownership) that executes revaluation batches.
    :param config: pricing/batching knobs.
    :param on_aggregate: optional callback invoked with each published
        :class:`AggregateUpdate` (after it became :attr:`published`).

    The runner keeps only the latest update, so a long-running stream
    holds constant state: callers collect history from the return
    value of :meth:`process` or from ``on_aggregate``, and tick-to-risk
    latencies land in the ``mean_tick_to_risk_s`` histogram.
    """

    def __init__(self, book: PositionBook, service, *,
                 config: StreamConfig = StreamConfig(),
                 on_aggregate=None):
        if len(book) == 0:
            raise StreamError("the position book is empty")
        self.book = book
        self.service = service
        self.config = config
        self.on_aggregate = on_aggregate
        self.metrics = LayerMetrics("stream")
        self.metrics.instruments.set(float(len(book)))
        #: the latest published update (``published[-1]``), once any
        self.published: "deque[AggregateUpdate]" = deque(maxlen=1)
        self._seq = 0
        self._pending = _PendingLatency()
        self._ticks_since_reval = 0
        self._last_ts = 0.0
        self._last_value: "float | None" = None

    # -- tick ingestion -------------------------------------------------

    def apply(self, tick) -> str:
        """Apply one tick; returns the book's disposition
        (``"marked"``/``"pending"``/``"suppressed"``)."""
        arrival = time.monotonic()
        state = self.book.apply(tick)
        self.metrics.ticks.inc()
        self._last_ts = max(self._last_ts, tick.ts)
        if state == "suppressed":
            self.metrics.suppressed_ticks.inc()
            return state
        if state == "marked":
            self.metrics.dirty_marks.inc()
        self._pending.arrivals.append(arrival)
        self._ticks_since_reval += 1
        return state

    def process(self, ticks) -> "list[AggregateUpdate]":
        """Run a whole tick stream; returns the updates it published.

        Revalues every ``config.batch_ticks`` materialised ticks and
        once more at end of stream (so the final aggregate always
        reflects every material tick).  The book's initial whole-book
        valuation happens on the first revaluation.
        """
        updates = []
        for tick in ticks:
            self.apply(tick)
            if self._ticks_since_reval >= self.config.batch_ticks:
                updates.append(self.revalue())
        updates.append(self.revalue())
        return [update for update in updates if update is not None]

    # -- revaluation ----------------------------------------------------

    def revalue(self) -> "AggregateUpdate | None":
        """Drain the dirty set, reprice it, publish one aggregate.

        Returns ``None`` (and publishes nothing) when nothing is
        dirty — a no-op heartbeat, not an error.
        """
        batch = self.book.drain_dirty()
        if not batch:
            return None
        request = PricingRequest(
            columns=batch.columns, steps=batch.steps,
            kernel=self.config.kernel, precision=self.config.precision,
            family=self.config.family, task=self.config.task,
            strict=True, backend=self.config.backend)
        result = self.service.submit(request).result(
            timeout=self.config.reval_timeout_s)
        self.book.commit(batch, result.block)
        self.metrics.revaluations.inc(float(len(batch)))
        self.metrics.reval_batches.inc()
        return self._publish(len(batch))

    def _publish(self, repriced: int) -> AggregateUpdate:
        columns = self.book.aggregate()
        value = columns["value"]
        pnl = 0.0 if self._last_value is None else value - self._last_value
        self._last_value = value
        self._seq += 1
        update = AggregateUpdate(
            seq=self._seq, ts=self._last_ts,
            columns=columns, pnl=pnl, repriced=repriced,
            instruments=len(self.book))
        self.published.append(update)
        self.metrics.aggregates.inc()
        published_at = time.monotonic()
        for arrival in self._pending.arrivals:
            self.metrics.mean_tick_to_risk_s.observe(
                max(0.0, published_at - arrival))
        self._pending.arrivals.clear()
        self._ticks_since_reval = 0
        if self.on_aggregate is not None:
            self.on_aggregate(update)
        return update

    def stats(self) -> Snapshot:
        """A live ``stream`` stats snapshot."""
        return Snapshot.from_metrics(self.metrics)


def full_repricing_oracle(book: PositionBook,
                          config: StreamConfig = StreamConfig(),
                          ) -> RiskAggregate:
    """Portfolio aggregate by pricing the whole book from scratch.

    Every position is repriced at its **effective** inputs through the
    plain :func:`repro.api.price`/:func:`repro.api.greeks` façade — no
    service, no cache, no incremental state — and reduced with the
    same dot product the book uses.  Because the engine's per-option
    math is row-independent and backends are bit-identical, the result
    must equal the streamed aggregate **bitwise**; any divergence
    means the incremental path lost or corrupted state.
    """
    positions = book.positions()
    if not positions:
        raise StreamError("the position book is empty")
    options = tuple(book.effective_option(p.instrument_id)
                    for p in positions)
    steps = tuple(p.steps for p in positions)
    steps_spec = steps[0] if len(set(steps)) == 1 else steps
    common = dict(steps=steps_spec, kernel=config.kernel,
                  precision=config.precision, family=config.family,
                  backend=config.backend, strict=True)
    quantity = np.array([p.quantity for p in positions], dtype=np.float64)
    out = RiskAggregate()
    if config.task == "greeks":
        result = api_greeks(options, **common)
        out["value"] = float(
            quantity @ np.asarray(result.prices, dtype=np.float64))
        for column in GREEKS_COLUMNS:
            out[column] = float(quantity @ np.asarray(
                getattr(result, column), dtype=np.float64))
    else:
        result = api_price(options, **common)
        out["value"] = float(
            quantity @ np.asarray(result.prices, dtype=np.float64))
        for column in GREEKS_COLUMNS:
            out[column] = float(
                quantity @ np.zeros(len(positions), dtype=np.float64))
    assert tuple(out) == AGGREGATE_COLUMNS
    return out
