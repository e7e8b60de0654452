"""``repro.stream`` — streaming portfolio risk on ticking market data.

The paper's end goal is continuous low-latency risk evaluation; this
package is that workload shape on top of the batch engine: tick
sources (recorded replay and seeded synthetic markets), a
tolerance-gated :class:`PositionBook`, and a :class:`StreamRunner`
that drains dirty instruments into coalesced
:class:`~repro.api.PricingRequest` batches through the in-process
:class:`~repro.service.PricingService`, publishing sequence-numbered
portfolio greeks/P&L aggregates.  ``docs/streaming.md`` documents the
tick model, tolerance semantics and the bitwise-parity contract
against :func:`full_repricing_oracle`.
"""

from .book import (
    AGGREGATE_COLUMNS,
    DirtyBatch,
    Position,
    PositionBook,
    RiskAggregate,
    Tolerance,
)
from .loop import (
    AggregateUpdate,
    StreamConfig,
    StreamRunner,
    full_repricing_oracle,
)
from .ticks import (
    TICK_FIELDS,
    TICKS_SCHEMA,
    ReplayTickSource,
    SyntheticTickSource,
    Tick,
    read_ticks,
    write_ticks,
)

__all__ = [
    "AGGREGATE_COLUMNS",
    "AggregateUpdate",
    "DirtyBatch",
    "Position",
    "PositionBook",
    "ReplayTickSource",
    "RiskAggregate",
    "StreamConfig",
    "StreamRunner",
    "SyntheticTickSource",
    "TICKS_SCHEMA",
    "TICK_FIELDS",
    "Tick",
    "Tolerance",
    "full_repricing_oracle",
    "read_ticks",
    "write_ticks",
]
