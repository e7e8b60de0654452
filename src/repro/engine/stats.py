"""Execution statistics of one engine run, derived from metrics.

The paper's Table II measures accelerators in options/s and tree
nodes/s; :class:`EngineStats` reports the same units for the *host*
engine (plus scheduling detail: chunk count, tile footprint, wall and
CPU time), and converts into the existing
:class:`~repro.core.metrics.PerformanceRow` machinery so engine
measurements can sit in the same tables as the modeled devices.

Every run counts into its own ``LayerMetrics("engine")`` registry and
freezes an :class:`EngineStats` from it
(:meth:`~repro.obs.metrics.Snapshot.from_metrics`); the keys are the
``engine`` layer of :mod:`repro.obs.keys` (see
``docs/stats_schema.md``).
"""

from __future__ import annotations

from ..core.metrics import PerformanceRow
from ..obs.metrics import Snapshot

__all__ = ["EngineStats"]


class EngineStats(Snapshot):
    """What one :meth:`PricingEngine.run` call did and how fast.

    The ``engine`` layer's snapshot: ``options``/``tree_nodes`` (every
    priced tree, bump variants included), ``groups``/``chunks``
    (scheduling), ``workers``, ``wall_time_s``/``cpu_time_s``,
    ``peak_tile_bytes``, the ``options_per_second``/
    ``tree_nodes_per_second`` rates, the reliability counters
    ``retries``/``timeouts``/``quarantined_options``, the greeks
    counters ``greeks_options``/``bump_passes`` and the
    ``backend``/``backend_compile_seconds`` attribution.
    """

    __slots__ = ()

    def performance_row(
        self,
        label: str = "Host engine",
        platform: str = "host CPU",
        precision: str = "double",
        rmse_display: str = "0",
    ) -> PerformanceRow:
        """This run as a Table II column (options/J is unmetered)."""
        return PerformanceRow(
            label=label,
            platform=platform,
            precision=precision,
            options_per_second=self.options_per_second,
            rmse_display=rmse_display,
            options_per_joule=None,
            tree_nodes_per_second=self.tree_nodes_per_second,
        )
