"""repro.obs — structured tracing, metrics and profiling export.

The observability layer of the engine and the simulated device stack:

* :mod:`repro.obs.trace` — hierarchical spans (run -> group -> chunk
  -> attempt -> simulated queue command) with monotonic timings,
  structured attributes and a zero-overhead disabled mode;
* :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges and histograms (chunks, retries, chunk latency, simulated
  PCIe bytes, queue commands) with Prometheus text rendering, plus the
  one stats model: :class:`LayerMetrics` (a layer's scoped registry)
  and :class:`Snapshot` (its frozen stats);
* :mod:`repro.obs.export` — JSON span dumps, Prometheus files and the
  rendered text timeline of the simulated queue lanes;
* :mod:`repro.obs.keys` — each layer's stats keys and metric families,
  declared once under the one ``repro-stats/v12`` schema.

Quick start::

    from repro import generate_batch
    from repro.engine import PricingEngine
    from repro.obs import Tracer, get_registry, render_span_tree

    tracer = Tracer()
    with PricingEngine(kernel="iv_b", tracer=tracer) as engine:
        engine.run(generate_batch(n_options=256).options, steps=512)
    print(render_span_tree(tracer.as_dicts()[0]))
    print(get_registry().render_prometheus())
"""

from . import keys
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    LayerMetrics,
    MetricsRegistry,
    Snapshot,
    get_registry,
    parse_prometheus,
    set_registry,
)
from .trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullSpan,
    NullTracer,
    Span,
    Tracer,
    as_tracer,
    max_depth,
)

#: Names served lazily from :mod:`repro.obs.export` — the exporter
#: pulls in the OpenCL profiling types, and the simulated queue itself
#: imports :mod:`repro.obs.trace`, so loading it eagerly here would
#: cycle.  PEP 562 module ``__getattr__`` defers it until first use.
_EXPORT_NAMES = (
    "TRACE_SCHEMA",
    "trace_document",
    "write_trace",
    "write_metrics",
    "render_span_tree",
    "render_queue_timeline",
    "queue_spans_to_events",
    "chunk_span_seconds",
)


def __getattr__(name: str):
    if name in _EXPORT_NAMES:
        from . import export

        return getattr(export, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "keys",
    # trace
    "Span",
    "Tracer",
    "NullSpan",
    "NullTracer",
    "NULL_SPAN",
    "NULL_TRACER",
    "as_tracer",
    "max_depth",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "LayerMetrics",
    "MetricsRegistry",
    "Snapshot",
    "get_registry",
    "set_registry",
    "parse_prometheus",
    # export
    "TRACE_SCHEMA",
    "trace_document",
    "write_trace",
    "write_metrics",
    "render_span_tree",
    "render_queue_timeline",
    "queue_spans_to_events",
    "chunk_span_seconds",
]
