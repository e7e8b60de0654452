"""Observability threading through the engine.

Asserts the PR 3 acceptance properties: traced runs emit a span tree
at least four levels deep whose chunk spans account for the (serial)
run's wall time, reliability events annotate the spans where they
happened, the metrics registry agrees with ``EngineStats`` and
``EngineResult.failures``, and — critically — tracing is opt-in:
with no tracer the engine produces bit-identical prices and records
no spans.
"""

import sys

import numpy as np
import pytest

from repro.core.batch_sim import simulate_kernel_b_batch
from repro.engine import (
    ALWAYS,
    EngineConfig,
    FaultKind,
    FaultPlan,
    PricingEngine,
)
from repro.finance import generate_batch
from repro.obs import keys
from repro.obs.export import chunk_span_seconds
from repro.obs.metrics import MetricsRegistry, parse_prometheus, set_registry
from repro.obs.trace import NULL_TRACER, Tracer, max_depth

OPTIONS_PRICED_TOTAL = keys.ENGINE.metric("options")
CHUNKS_TOTAL = keys.ENGINE.metric("chunks")
RETRIES_TOTAL = keys.ENGINE.metric("retries")
QUARANTINED_OPTIONS_TOTAL = keys.ENGINE.metric("quarantined_options")
CHUNK_LATENCY_SECONDS = keys.ENGINE.metric("chunk_latency")

STEPS = 8
CONFIG = dict(backoff_base_s=0.0, chunk_options=8)


@pytest.fixture(scope="module")
def batch():
    return list(generate_batch(n_options=32, seed=321).options)


@pytest.fixture(scope="module")
def expected(batch):
    return simulate_kernel_b_batch(batch, STEPS)


def run_traced(batch, tracer, *, workers=1, faults=None, **config):
    with PricingEngine(kernel="iv_b",
                       config=EngineConfig(workers=workers,
                                           **{**CONFIG, **config}),
                       faults=faults, tracer=tracer) as engine:
        return engine.run(batch, STEPS)


def spans_of_kind(root: dict, kind: str) -> list:
    found = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node["kind"] == kind:
            found.append(node)
        stack.extend(node.get("children", ()))
    return found


class TestSpanTree:
    def test_serial_run_has_four_levels(self, batch, expected):
        tracer = Tracer()
        result = run_traced(batch, tracer)
        assert np.array_equal(result.prices, expected)
        root = tracer.as_dicts()[0]
        assert root["kind"] == "run" and root["name"] == "engine.run"
        assert max_depth(root) >= 4
        assert len(spans_of_kind(root, "group")) == result.stats.groups
        assert len(spans_of_kind(root, "chunk")) == result.stats.chunks
        assert len(spans_of_kind(root, "attempt")) == result.stats.chunks

    def test_serial_chunk_spans_cover_wall_time(self, batch):
        # deep enough that pricing dominates the fixed planning
        # overhead (about 0.15 ms a run, more in a cold process); the
        # acceptance bound is 10% on serial runs
        tracer = Tracer()
        with PricingEngine(kernel="iv_b",
                           config=EngineConfig(chunk_options=8),
                           tracer=tracer) as engine:
            result = engine.run(batch, 1024)
        covered = chunk_span_seconds(tracer.as_dicts()[0])
        assert covered == pytest.approx(result.stats.wall_time_s, rel=0.10)

    def test_threaded_run_nests_worker_spans(self, batch, expected):
        tracer = Tracer()
        result = run_traced(batch, tracer, workers=2)
        assert np.array_equal(result.prices, expected)
        root = tracer.as_dicts()[0]
        # run -> group -> chunk -> attempt -> worker, recorded in place
        assert max_depth(root) == 5
        groups = spans_of_kind(root, "group")
        chunks = [c for g in groups for c in g["children"]]
        assert [c["kind"] for c in chunks] == ["chunk"] * result.stats.chunks
        # chunk spans open in plan order, whatever the thread timing
        firsts = [c["attrs"]["first_index"] for c in chunks]
        assert firsts == sorted(firsts)
        for chunk in chunks:
            (attempt,) = chunk["children"]
            assert attempt["kind"] == "attempt"
            (worker,) = attempt["children"]
            assert worker["kind"] == "worker"
            assert worker["attrs"]["thread"].startswith("repro-engine")
            assert (attempt["start_ns"] <= worker["start_ns"]
                    <= worker["end_ns"] <= attempt["end_ns"])
            assert root["start_ns"] <= chunk["start_ns"]
            assert chunk["end_ns"] <= root["end_ns"]

    def test_run_span_carries_stats_attrs(self, batch):
        tracer = Tracer()
        result = run_traced(batch, tracer)
        attrs = tracer.as_dicts()[0]["attrs"]
        assert attrs["kernel"] == "iv_b"
        assert attrs["options"] == len(batch)
        assert attrs["chunks"] == result.stats.chunks
        assert attrs["options_per_second"] > 0


class TestDisabledTracer:
    def test_no_tracer_records_nothing(self, batch, expected):
        result = run_traced(batch, None)
        assert np.array_equal(result.prices, expected)

    def test_traced_and_untraced_prices_bit_identical(self, batch):
        untraced = run_traced(batch, None).prices
        traced = run_traced(batch, Tracer()).prices
        assert np.array_equal(untraced, traced)

    def test_null_tracer_is_the_default(self):
        with PricingEngine(kernel="iv_b") as engine:
            assert engine.tracer is NULL_TRACER

    def test_describe_marks_traced_engines(self):
        with PricingEngine(kernel="iv_b", tracer=Tracer()) as engine:
            assert "traced" in engine.describe()
        with PricingEngine(kernel="iv_b") as engine:
            assert "traced" not in engine.describe()


class TestReliabilityAnnotations:
    def annotations(self, root):
        out = []
        stack = [root]
        while stack:
            node = stack.pop()
            out.extend(a["message"] for a in node.get("annotations", ()))
            stack.extend(node.get("children", ()))
        return out

    @pytest.mark.parametrize("workers", (1, 2))
    def test_retry_annotates_the_failed_chunk(self, batch, expected, workers):
        plan = FaultPlan.single(3, FaultKind.RAISE, attempts=1, seed=0)
        tracer = Tracer()
        result = run_traced(batch, tracer, workers=workers, faults=plan)
        assert np.array_equal(result.prices, expected)
        assert result.stats.retries >= 1
        assert "retry" in self.annotations(tracer.as_dicts()[0])

    def test_quarantine_annotates_and_counts(self, batch):
        plan = FaultPlan.single(5, FaultKind.RAISE, attempts=ALWAYS, seed=0)
        tracer = Tracer()
        result = run_traced(batch, tracer, faults=plan, max_retries=1)
        assert len(result.failures) == 1
        assert result.stats.quarantined_options == 1
        messages = self.annotations(tracer.as_dicts()[0])
        assert "quarantined" in messages
        assert "quarantine-split" in messages


class TestMetricsAgreement:
    def test_run_publishes_into_process_registry(self, batch):
        hermetic = MetricsRegistry()
        previous = set_registry(hermetic)
        try:
            result = run_traced(batch, None)
            text = hermetic.render_prometheus()
        finally:
            set_registry(previous)
        samples = parse_prometheus(text)
        assert samples[OPTIONS_PRICED_TOTAL] == len(batch)
        assert samples[CHUNKS_TOTAL] == result.stats.chunks
        assert samples[RETRIES_TOTAL] == result.stats.retries == 0
        assert (samples[QUARANTINED_OPTIONS_TOTAL]
                == len(result.failures) == 0)
        assert samples[f"{CHUNK_LATENCY_SECONDS}_count"] \
            == result.stats.chunks

    def test_failure_counters_match_engine_result(self, batch):
        plan = FaultPlan.single(2, FaultKind.RAISE, attempts=ALWAYS, seed=0)
        hermetic = MetricsRegistry()
        previous = set_registry(hermetic)
        try:
            result = run_traced(batch, None, faults=plan, max_retries=1)
            text = hermetic.render_prometheus()
        finally:
            set_registry(previous)
        samples = parse_prometheus(text)
        assert samples[QUARANTINED_OPTIONS_TOTAL] == len(result.failures)
        assert samples[RETRIES_TOTAL] == result.stats.retries > 0


    def test_threaded_counts_survive_thread_switches(self, batch, expected):
        # more threads than cores and a tiny switch interval: a count
        # the pricing threads updated themselves would lose increments
        plan = FaultPlan.random(seed=7, n_options=len(batch), n_faults=8,
                                kinds=(FaultKind.RAISE,), attempts=1)
        tracer = Tracer()
        hermetic = MetricsRegistry()
        previous = set_registry(hermetic)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = run_traced(batch, tracer, workers=8, faults=plan,
                                chunk_options=1)
            text = hermetic.render_prometheus()
        finally:
            sys.setswitchinterval(interval)
            set_registry(previous)
        assert np.array_equal(result.prices, expected)
        samples = parse_prometheus(text)
        assert result.stats.retries == samples[RETRIES_TOTAL] == 8
        assert samples[f"{CHUNK_LATENCY_SECONDS}_count"] == len(batch)
        root = tracer.as_dicts()[0]
        assert len(spans_of_kind(root, "attempt")) == len(batch) + 8


class TestCloseSemantics:
    def test_double_close_is_a_noop(self):
        engine = PricingEngine(kernel="iv_b")
        engine.close()
        assert engine.closed
        engine.close()  # must not raise
        assert engine.closed

    def test_context_manager_closes(self):
        with PricingEngine(kernel="iv_b") as engine:
            assert not engine.closed
        assert engine.closed
        engine.close()  # idempotent after __exit__ too


class TestGreeksTracing:
    def test_traced_fused_greeks_run_collapses_groups(self, batch):
        tracer = Tracer()
        with PricingEngine(kernel="iv_b", tracer=tracer) as engine:
            traced = engine.run_greeks(batch, STEPS)
        with PricingEngine(kernel="iv_b") as engine:
            untraced = engine.run_greeks(batch, STEPS)
        assert np.array_equal(traced.prices, untraced.prices)
        root = tracer.as_dicts()[0]
        assert root["name"] == "engine.greeks"
        assert root["attrs"]["backend"]
        groups = spans_of_kind(root, "group")
        labels = {span["name"].split("[")[1].split(":")[0]
                  for span in groups}
        assert labels == {"fused"}
        assert all(span["attrs"]["task"] == "greeks_fused"
                   for span in groups)
