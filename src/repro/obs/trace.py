"""Hierarchical span tracing with a zero-overhead disabled mode.

A :class:`Span` is one timed piece of work with structured attributes,
timestamped annotations and child spans; a :class:`Tracer` owns a
forest of root spans (one per engine run or device session).  The
hierarchy mirrors the execution model end to end::

    run                      one PricingEngine.run / device session
    └─ group                 homogeneous (steps, family, profile) group
       └─ chunk              one scheduled tile
          └─ attempt         one pricing attempt (retries add siblings)
             └─ worker       the pricing call on its thread
             └─ queue:*      simulated OpenCL queue commands

Timestamps come from ``time.perf_counter_ns`` (CLOCK_MONOTONIC).  The
engine's pricing threads record their ``attempt``/``worker`` spans
straight into the tree: each thread owns the subtree of the chunk it
prices.

When tracing is off, every instrumentation site talks to the module
singletons :data:`NULL_TRACER` / :data:`NULL_SPAN`, whose methods are
empty and allocation-free — the quick-bench regression gate holds with
the instrumentation compiled in.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Iterator

__all__ = [
    "Span",
    "Tracer",
    "NullSpan",
    "NullTracer",
    "NULL_SPAN",
    "NULL_TRACER",
    "as_tracer",
    "max_depth",
]

_now_ns = time.perf_counter_ns
_trace_ids = itertools.count(1)


class Span:
    """One timed, attributed node of the trace tree."""

    __slots__ = ("name", "kind", "start_ns", "end_ns", "attrs",
                 "annotations", "children", "status")

    def __init__(self, name: str, kind: str = "span", **attrs):
        self.name = name
        self.kind = kind
        self.start_ns = _now_ns()
        self.end_ns: "int | None" = None
        self.attrs: dict = dict(attrs)
        #: timestamped events: ``(t_ns, message, attrs)``
        self.annotations: "list[tuple[int, str, dict]]" = []
        self.children: "list[Span]" = []
        self.status = "ok"

    # -- lifecycle ---------------------------------------------------------

    def child(self, name: str, kind: str = "span", **attrs) -> "Span":
        """Start a child span (use as a context manager or end() it)."""
        span = Span(name, kind, **attrs)
        self.children.append(span)
        return span

    def end(self) -> "Span":
        """Close the span; idempotent (the first end time wins)."""
        if self.end_ns is None:
            self.end_ns = _now_ns()
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self.status = "error"
            self.attrs.setdefault("error", type(exc).__name__)
        self.end()

    # -- structure ---------------------------------------------------------

    def set(self, **attrs) -> "Span":
        """Attach (or overwrite) structured attributes.

        ``status`` is not an attribute but the span's top-level status
        field — ``set(status="error")`` routes there.
        """
        status = attrs.pop("status", None)
        if status is not None:
            self.status = status
        self.attrs.update(attrs)
        return self

    def annotate(self, message: str, **attrs) -> "Span":
        """Record a timestamped event on the span (retry, quarantine, ...)."""
        self.annotations.append((_now_ns(), message, attrs))
        return self

    # -- time --------------------------------------------------------------

    @property
    def duration_ns(self) -> int:
        end = self.end_ns if self.end_ns is not None else _now_ns()
        return end - self.start_ns

    @property
    def duration_s(self) -> float:
        return self.duration_ns * 1e-9

    # -- (de)serialisation -------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-ready form (stable key order, recursive)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns if self.end_ns is not None else self.start_ns,
            "duration_ns": self.duration_ns,
            "status": self.status,
            "attrs": dict(self.attrs),
            "annotations": [
                {"t_ns": t, "message": message, "attrs": dict(attrs)}
                for t, message, attrs in self.annotations
            ],
            "children": [child.as_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        span = cls.__new__(cls)
        span.name = payload["name"]
        span.kind = payload.get("kind", "span")
        span.start_ns = payload["start_ns"]
        span.end_ns = payload.get("end_ns", payload["start_ns"])
        span.attrs = dict(payload.get("attrs", {}))
        span.annotations = [
            (entry["t_ns"], entry["message"], dict(entry.get("attrs", {})))
            for entry in payload.get("annotations", ())
        ]
        span.status = payload.get("status", "ok")
        span.children = [cls.from_dict(child)
                         for child in payload.get("children", ())]
        return span

    def walk(self) -> "Iterator[Span]":
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (f"Span({self.kind}:{self.name}, "
                f"{self.duration_ns / 1e6:.3f} ms, "
                f"{len(self.children)} children)")


class NullSpan:
    """The do-nothing span every disabled-tracing call site receives."""

    __slots__ = ()

    enabled = False
    name = ""
    kind = "null"
    attrs: dict = {}
    annotations: list = []
    children: list = []
    status = "ok"
    start_ns = 0
    end_ns = 0
    duration_ns = 0
    duration_s = 0.0

    def child(self, name: str, kind: str = "span", **attrs) -> "NullSpan":
        return self

    def end(self) -> "NullSpan":
        return self

    def set(self, **attrs) -> "NullSpan":
        return self

    def annotate(self, message: str, **attrs) -> "NullSpan":
        return self

    def as_dict(self) -> dict:
        return {}

    def walk(self):
        return iter(())

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


#: Shared no-op span — one instance serves every disabled call site.
NULL_SPAN = NullSpan()


class Tracer:
    """Collects the root spans of one observed process.

    ``Tracer()`` is enabled; pass the :data:`NULL_TRACER` singleton (or
    ``None`` to APIs that accept it) to run with tracing compiled out.
    """

    enabled = True

    def __init__(self) -> None:
        self.trace_id = f"trace-{os.getpid()}-{next(_trace_ids)}"
        self.roots: "list[Span]" = []

    def start_span(self, name: str, kind: str = "run", **attrs) -> Span:
        """Open a new root span (an engine run, a device session...)."""
        span = Span(name, kind, **attrs)
        self.roots.append(span)
        return span

    def as_dicts(self) -> "list[dict]":
        """Every root span, serialised."""
        return [span.as_dict() for span in self.roots]

    def iter_spans(self) -> "Iterator[Span]":
        for root in self.roots:
            yield from root.walk()

    def clear(self) -> None:
        self.roots.clear()

    def __len__(self) -> int:
        return len(self.roots)


class NullTracer:
    """Disabled tracer: every span it hands out is :data:`NULL_SPAN`."""

    enabled = False
    trace_id = "trace-null"
    roots: list = []

    def start_span(self, name: str, kind: str = "run", **attrs) -> NullSpan:
        return NULL_SPAN

    def as_dicts(self) -> list:
        return []

    def iter_spans(self):
        return iter(())

    def clear(self) -> None:
        return None

    def __len__(self) -> int:
        return 0


#: Shared disabled tracer (the default of every instrumented API).
NULL_TRACER = NullTracer()


def as_tracer(tracer: "Tracer | NullTracer | None"):
    """Normalise an optional tracer argument (``None`` -> disabled)."""
    return NULL_TRACER if tracer is None else tracer


def max_depth(span_dict: dict) -> int:
    """Nesting depth of a serialised span tree (a leaf has depth 1)."""
    children = span_dict.get("children", ())
    if not children:
        return 1
    return 1 + max(max_depth(child) for child in children)
