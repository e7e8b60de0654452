"""StreamRunner: replay determinism, oracle parity, fault healing."""

from collections.abc import Sized
from dataclasses import replace

import pytest

from repro.engine import EngineConfig
from repro.errors import StreamError
from repro.finance import generate_batch
from repro.service import PricingService, ServiceConfig
from repro.stream import (
    AGGREGATE_COLUMNS,
    Position,
    PositionBook,
    StreamConfig,
    StreamRunner,
    SyntheticTickSource,
    Tolerance,
    full_repricing_oracle,
)

STEPS = 16
N_INSTRUMENTS = 5
TICK_STEPS = 10
WAIT = 10.0

CONFIG = StreamConfig(kernel="iv_b", backend="numpy", batch_ticks=6)


def _book(tolerances=None):
    options = generate_batch(n_options=N_INSTRUMENTS, seed=77).options
    book = PositionBook(tolerances)
    for index, option in enumerate(options):
        quantity = (index + 1) * (-1.0 if index % 3 == 2 else 1.0)
        book.add(Position(f"ins-{index}", option, quantity=quantity,
                          steps=STEPS))
    return book


def _source(book, n_steps=TICK_STEPS, seed=5):
    initial = {p.instrument_id: (p.option.spot, p.option.volatility,
                                 p.option.rate)
               for p in book.positions()}
    return SyntheticTickSource(initial, seed=seed, n_steps=n_steps)


def _service_config(**overrides):
    kwargs = dict(max_batch=N_INSTRUMENTS,
                  engine_config=EngineConfig(workers=1))
    kwargs.update(overrides)
    return ServiceConfig(**kwargs)


def _run(tolerances=None, config=CONFIG, service_config=None, seed=5,
         on_aggregate=None):
    book = _book(tolerances)
    with PricingService(service_config or _service_config()) as service:
        runner = StreamRunner(book, service, config=config,
                              on_aggregate=on_aggregate)
        updates = runner.process(_source(book, seed=seed))
    return book, runner, updates


def _fingerprints(updates):
    return [(u.seq, u.ts.hex(), u.repriced,
             {k: v.hex() for k, v in u.columns.items()}, u.pnl.hex())
            for u in updates]


class TestRunnerBasics:
    def test_empty_book_rejected(self):
        with PricingService(_service_config()) as service:
            with pytest.raises(StreamError, match="empty"):
                StreamRunner(PositionBook(), service)

    def test_config_validation(self):
        with pytest.raises(StreamError, match="task"):
            StreamConfig(task="vega-only")
        with pytest.raises(StreamError, match="batch_ticks"):
            StreamConfig(batch_ticks=0)
        with pytest.raises(StreamError, match="reval_timeout_s"):
            StreamConfig(reval_timeout_s=0.0)

    def test_publishes_sequenced_aggregates(self):
        _book_, runner, updates = _run()
        seqs = [u.seq for u in updates]
        assert seqs == list(range(1, len(seqs) + 1))
        assert updates  # at least the end-of-stream revaluation
        assert list(runner.published) == [updates[-1]]

    def test_pnl_chains_value_deltas(self):
        _book_, _runner, updates = _run()
        assert updates[0].pnl == 0.0
        for prev, cur in zip(updates, updates[1:]):
            assert cur.pnl == cur.value - prev.value

    def test_revalue_with_nothing_dirty_is_noop(self):
        book = _book()
        with PricingService(_service_config()) as service:
            runner = StreamRunner(book, service, config=CONFIG)
            initial = runner.revalue()  # initial whole-book valuation
            assert runner.revalue() is None
            assert list(runner.published) == [initial]

    def test_latency_samples_cover_materialised_ticks(self):
        _book_, runner, _updates = _run()
        stats = runner.stats()
        covered = stats.ticks - stats.suppressed_ticks
        assert runner.metrics.mean_tick_to_risk_s.count == covered
        assert runner.metrics.mean_tick_to_risk_s.sum >= 0.0

    def test_retained_state_stays_constant_over_revaluations(self):
        # a long-running stream must not grow the runner: history is
        # the caller's (process() return value, on_aggregate)
        book = _book()
        ticks = list(_source(book, n_steps=60))
        cut = len(ticks) // 10

        def sizes(runner):
            return {name: len(value) for name, value in vars(runner).items()
                    if isinstance(value, Sized)}

        with PricingService(_service_config()) as service:
            runner = StreamRunner(book, service, config=CONFIG)
            runner.process(ticks[:cut])
            before, batches = sizes(runner), runner.stats().reval_batches
            runner.process(ticks[cut:])
            assert runner.stats().reval_batches >= batches + 20
            assert sizes(runner) == before
            assert len(runner.published) == 1


class TestReplayDeterminism:
    def test_two_fresh_runs_are_bitwise_identical(self):
        *_, first = _run()
        *_, second = _run()
        assert _fingerprints(first) == _fingerprints(second)

    def test_different_seed_changes_the_stream(self):
        *_, first = _run(seed=5)
        *_, second = _run(seed=6)
        assert _fingerprints(first) != _fingerprints(second)


class TestOracleParity:
    # greeks-task parity against the oracle, with and without fault
    # seeds, is tests/test_differential.py::test_stream_aggregates_match_the_oracle

    def test_price_task_publishes_value_only(self):
        config = StreamConfig(kernel="iv_b", backend="numpy",
                              batch_ticks=6, task="price")
        book, _runner, updates = _run(config=config)
        final = updates[-1]
        oracle = full_repricing_oracle(book, config)
        assert final.columns["value"].hex() == oracle["value"].hex()
        assert all(final.columns[c] == 0.0
                   for c in AGGREGATE_COLUMNS if c != "value")


class TestToleranceGating:
    TOLERANCES = {field: Tolerance(rel_tol=5e-3)
                  for field in ("spot", "volatility", "rate")}

    def test_suppression_saves_revaluations_and_keeps_parity(self):
        _ungated_book, ungated, _updates = _run()
        book = _book(self.TOLERANCES)

        def verify(update):
            # gated aggregates still match the oracle at EFFECTIVE
            # inputs bitwise: suppression defers work, never corrupts
            oracle = full_repricing_oracle(book, CONFIG)
            for column in AGGREGATE_COLUMNS:
                assert oracle[column].hex() == update.columns[column].hex()

        with PricingService(_service_config()) as service:
            runner = StreamRunner(book, service, config=CONFIG,
                                  on_aggregate=verify)
            runner.process(_source(book))
        stats = runner.stats()
        assert stats.suppressed_ticks > 0
        assert stats.revaluations < ungated.stats().revaluations

    def test_published_risk_stays_within_first_order_drift_bound(self):
        # the gate can leave live inputs ahead of the published risk,
        # but only by sub-tolerance moves — so the gap to a live-input
        # oracle is bounded by a greeks-derived first-order estimate
        book = _book(self.TOLERANCES)
        with PricingService(_service_config()) as service:
            runner = StreamRunner(book, service, config=CONFIG)
            runner.process(_source(book))
        published = runner.published[-1].columns["value"]

        for position in book.positions():
            name = position.instrument_id
            live, eff = book.live_inputs(name), book.effective_inputs(name)
            for field in ("spot", "volatility", "rate"):
                gap = abs(live[field] - eff[field])
                assert gap <= self.TOLERANCES[field].rel_tol * \
                    abs(eff[field]) + 1e-12

        # price the live view from scratch and bound the value gap by
        # sum(|q| * (|delta|*dS + |vega|*dVol + |rho|*dRate)) with 4x
        # slack for curvature
        live_book = PositionBook()
        for position in book.positions():
            live_option = replace(position.option,
                                  **book.live_inputs(position.instrument_id))
            live_book.add(replace(position, option=live_option))
        live_oracle = full_repricing_oracle(live_book, CONFIG)

        bound = 0.0
        for position in book.positions():
            name = position.instrument_id
            live, eff = book.live_inputs(name), book.effective_inputs(name)
            values = book.values(name)  # per-instrument greeks
            bound += abs(position.quantity) * (
                abs(values["delta"]) * abs(live["spot"] - eff["spot"])
                + abs(values["vega"]) * abs(live["volatility"]
                                            - eff["volatility"])
                + abs(values["rho"]) * abs(live["rate"] - eff["rate"]))
        assert abs(published - live_oracle["value"]) <= 4.0 * bound + 1e-9


class TestStreamStats:
    def test_counters_reconcile(self):
        _book_, runner, updates = _run()
        stats = runner.stats()
        assert stats.instruments == N_INSTRUMENTS
        assert stats.aggregates == len(updates)
        assert stats.ticks == (stats.suppressed_ticks
                               + runner.metrics.mean_tick_to_risk_s.count)
        assert stats.revaluations >= stats.reval_batches >= 1
        assert stats.mean_tick_to_risk_s >= 0.0
