"""Outside-in span recorder for the traced run.

Spans are taken around the benchmark's own calls into each layer of
the program, kept in memory, and written out once at the end.  A
layer's self time is its spans' total duration minus the part of each
span's interval that its child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

__all__ = ["SpanRecorder", "self_times"]


class SpanRecorder:
    """In-memory spans: ``(id, name, start, end, parent, request_id)``.

    A traced run (``tracing=True``) records every second operation:
    :meth:`trace_op` switches recording per operation and per thread,
    so one run interleaves traced and untraced operations and can
    measure what the recording itself costs.
    """

    def __init__(self, tracing: bool = False) -> None:
        self.tracing = tracing
        self.spans: "list[tuple]" = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def enabled(self) -> bool:
        return getattr(self._local, "enabled", False)

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._local.enabled = value

    def trace_op(self, index: int) -> bool:
        """Record the calling thread's next operation if ``index`` is odd."""
        self.enabled = self.tracing and index % 2 == 1
        return self.enabled

    @contextmanager
    def span(self, name: str, parent: "int | None" = None,
             request_id: "int | None" = None):
        """Time the body as one span; yields its id (or None if off)."""
        if not self.enabled:
            yield None
            return
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(None)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.spans[span_id] = (span_id, name, start, time.perf_counter(),
                                   parent, request_id)

    def add(self, name: str, start: float, end: float,
            parent: "int | None" = None,
            request_id: "int | None" = None) -> None:
        """Record a span whose interval was measured elsewhere."""
        if self.enabled:
            with self._lock:
                self.spans.append((len(self.spans), name, start, end,
                                   parent, request_id))

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "request_id")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total, cursor = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans) -> "dict[str, dict]":
    """Per span name: ``{"count", "total_s", "self_s"}``."""
    children: "dict[int, list]" = {}
    for _id, _name, start, end, parent, _rid in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: "dict[str, dict]" = {}
    for span_id, name, start, end, _parent, _rid in spans:
        entry = out.setdefault(name, {"count": 0, "total_s": 0.0,
                                      "self_s": 0.0})
        duration = end - start
        entry["count"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - _covered(children.get(span_id, ()),
                                               start, end)
    return out
