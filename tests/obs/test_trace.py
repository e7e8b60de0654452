"""Unit tests for the span tracer (repro.obs.trace)."""

import pytest

from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullSpan,
    NullTracer,
    Span,
    Tracer,
    as_tracer,
    max_depth,
)


class TestSpanLifecycle:
    def test_start_end_duration(self):
        tracer = Tracer()
        span = tracer.start_span("run", "run")
        assert span.end_ns is None
        span.end()
        assert span.end_ns is not None
        assert span.duration_ns >= 0

    def test_end_is_idempotent_and_chains(self):
        span = Tracer().start_span("x", "run")
        first = span.end().end_ns
        assert span.end() is span
        assert span.end_ns == first

    def test_children_nest(self):
        tracer = Tracer()
        run = tracer.start_span("run", "run")
        group = run.child("group", "group")
        chunk = group.child("chunk", "chunk")
        assert chunk in group.children and group in run.children
        assert len(tracer) == 1
        assert sum(1 for _ in tracer.iter_spans()) == 3

    def test_set_and_annotate(self):
        span = Tracer().start_span("run", "run", kernel="iv_b")
        span.set(status="error", workers=4)
        span.annotate("retry", attempt=1)
        d = span.end().as_dict()
        assert d["attrs"]["kernel"] == "iv_b"
        assert d["attrs"]["workers"] == 4
        assert d["status"] == "error"
        assert d["annotations"][0]["message"] == "retry"
        assert d["annotations"][0]["attrs"] == {"attempt": 1}

    def test_context_manager_marks_errors(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.start_span("run", "run"):
                raise ValueError("boom")
        d = tracer.as_dicts()[0]
        assert d["status"] == "error"
        assert d["end_ns"] is not None


class TestSerialisation:
    def test_round_trip(self):
        tracer = Tracer()
        run = tracer.start_span("run", "run", kernel="iv_b")
        run.child("group", "group", steps=64).end()
        run.annotate("note", detail="x")
        run.end()
        restored = Span.from_dict(run.as_dict())
        assert restored.as_dict() == run.as_dict()

    def test_walk_covers_all(self):
        tracer = Tracer()
        run = tracer.start_span("run", "run")
        for i in range(3):
            run.child(f"c{i}", "chunk").end()
        assert sum(1 for _ in run.walk()) == 4

    def test_max_depth(self):
        tracer = Tracer()
        run = tracer.start_span("run", "run")
        run.child("g", "group").child("c", "chunk").child("a", "attempt")
        assert max_depth(run.as_dict()) == 4
        assert max_depth(tracer.start_span("solo", "run").as_dict()) == 1


class TestNullObjects:
    def test_as_tracer(self):
        assert as_tracer(None) is NULL_TRACER
        real = Tracer()
        assert as_tracer(real) is real

    def test_null_tracer_is_disabled_and_empty(self):
        assert not NULL_TRACER.enabled
        assert Tracer().enabled
        span = NULL_TRACER.start_span("run", "run")
        assert span is NULL_SPAN
        assert len(NULL_TRACER) == 0

    def test_null_span_absorbs_everything(self):
        span = NULL_SPAN
        assert span.child("x", "chunk") is NULL_SPAN
        assert span.set(a=1) is NULL_SPAN
        assert span.end() is NULL_SPAN
        span.annotate("whatever")
        with span:
            pass

    def test_singletons(self):
        assert isinstance(NULL_SPAN, NullSpan)
        assert isinstance(NULL_TRACER, NullTracer)


class TestSpanContext:
    def test_tracer_ids_are_unique(self):
        assert Tracer().trace_id != Tracer().trace_id
