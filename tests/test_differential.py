"""One request through every front end, the same bits at rtol=0.

The same seeded :class:`~repro.api.PricingRequest`s — price and greeks
tasks on kernels IV.A, IV.B and the reference pricer — go through the
library façade (:func:`repro.price` / :func:`repro.greeks`), an
in-process :class:`~repro.service.PricingService` and a one-shard
:class:`~repro.serve.PricingServer` over HTTP.  Every column of every
result must equal a plain NumPy-backend :class:`PricingEngine` run of
the request bit for bit, with and without a seeded fault plan whose
transient faults heal on retry.  A one-cell sweep is held to the same
contract through the digest its store records, and a ticking position
book through the same service: every aggregate the
:class:`~repro.stream.StreamRunner` publishes must equal
:func:`~repro.stream.full_repricing_oracle` of the book bit for bit.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.api import PricingRequest
from repro.engine import EngineConfig, PricingEngine
from repro.engine.faults import FaultPlan
from repro.finance import generate_batch
from repro.obs import keys
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.serve import PricingServer, ServeClient, ServeConfig
from repro.service import PricingService, ServiceConfig
from repro.stream import (AGGREGATE_COLUMNS, Position, PositionBook,
                          StreamConfig, StreamRunner, SyntheticTickSource,
                          full_repricing_oracle)
from repro.sweep import SweepRunner, SweepSpec
from repro.sweep.runner import _cell_options, _digest_result

STEPS = 32
OPTIONS_PER_REQUEST = 6
FAULT_SEEDS = (None, 101, 202, 303)
KERNELS = ("iv_a", "iv_b", "reference")
TASKS = ("price", "greeks")
COLUMNS = {"price": ("prices",),
           "greeks": ("prices", "delta", "gamma", "theta", "vega", "rho")}


def make_request(kernel: str, task: str) -> PricingRequest:
    seed = 500 + 10 * KERNELS.index(kernel) + TASKS.index(task)
    options = tuple(generate_batch(n_options=OPTIONS_PER_REQUEST,
                                   seed=seed).options)
    return PricingRequest(options=options, steps=STEPS, kernel=kernel,
                          task=task, strict=False)


def fault_plan(seed):
    if seed is None:
        return None
    return FaultPlan.random(seed, OPTIONS_PER_REQUEST)


@pytest.fixture(scope="module", params=FAULT_SEEDS,
                ids=lambda seed: f"faults-{seed}")
def fronts(request):
    """The service and the one-shard server, under one fault plan."""
    seed = request.param
    config = ServiceConfig(faults=fault_plan(seed))
    with PricingService(config) as service, \
            PricingServer(ServeConfig(shards=1, service=config)) as server, \
            ServeClient(server.host, server.port) as client:
        yield seed, service, client


def reference(request: PricingRequest) -> dict:
    """A plain NumPy-backend engine run of ``request``."""
    with PricingEngine(kernel=request.kernel,
                       config=EngineConfig(backend="numpy")) as engine:
        if request.task == "greeks":
            result = engine.run_greeks(list(request.options), request.steps,
                                       bump_vol=request.bump_vol,
                                       bump_rate=request.bump_rate)
        else:
            result = engine.run(list(request.options), request.steps)
    assert result.failures == ()
    assert result.stats.backend == "numpy"
    return {column: getattr(result, column)
            for column in COLUMNS[request.task]}


def via_facade(request: PricingRequest, seed):
    """``repro.price``/``repro.greeks``; a fault plan needs an engine of
    its own, otherwise the façade's shared engine prices the call."""
    engine = None
    if seed is not None:
        engine = PricingEngine(kernel=request.kernel,
                               config=EngineConfig(backoff_base_s=0.0),
                               faults=fault_plan(seed))
    try:
        options = list(request.options)
        if request.task == "greeks":
            return repro.greeks(options, steps=request.steps,
                                kernel=request.kernel, strict=False,
                                bump_vol=request.bump_vol,
                                bump_rate=request.bump_rate, engine=engine)
        return repro.price(options, steps=request.steps,
                           kernel=request.kernel, strict=False,
                           engine=engine)
    finally:
        if engine is not None:
            engine.close()


@pytest.fixture
def numpy_reference(monkeypatch):
    # an ambient REPRO_BACKEND would rewrite the reference's numpy pin
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    return reference


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_every_front_end_matches_the_engine(fronts, numpy_reference,
                                            kernel, task):
    seed, service, client = fronts
    request = make_request(kernel, task)
    expected = numpy_reference(request)
    results = {
        "facade": via_facade(request, seed),
        "service": service.submit(request).result(timeout=60.0),
        "serve": client.price(request),
    }
    if seed is not None:  # the plan fired and healed
        assert results["facade"].stats.retries > 0
    for front, result in results.items():
        assert result.failures == (), front
        for column, values in expected.items():
            np.testing.assert_array_equal(
                getattr(result, column), values,
                err_msg=f"{front}/{kernel}/{task}/{column}")


#: Sweep cells draw their fault plan over 64 option slots; seed 101
#: puts its one-attempt faults at indices 14 and 33, so the cell needs
#: more options than that for them to fire.
SWEEP_CELL_OPTIONS = 40


@pytest.mark.parametrize("fault_seed", (None, 101),
                         ids=lambda seed: f"faults-{seed}")
def test_sweep_cell_matches_the_engine(tmp_path, numpy_reference,
                                       fault_seed):
    spec = SweepSpec(name="differential-cell",
                     axes={"kernel": ("iv_a",)},
                     base={"steps": STEPS, "task": "greeks",
                           "n_options": SWEEP_CELL_OPTIONS,
                           "fault_seed": fault_seed})
    (condition,) = spec.conditions()
    runner = SweepRunner(spec, tmp_path / "run.jsonl")
    published = MetricsRegistry()
    previous = set_registry(published)
    try:
        stats = runner.run()
    finally:
        set_registry(previous)
    assert (stats.cells, stats.executed, stats.done, stats.failed) == (
        1, 1, 1, 0)
    assert published.value(keys.SWEEP.metric("done")) == 1
    retries = published.value(keys.ENGINE.metric("retries"))
    assert (retries > 0) == (fault_seed is not None)

    (row,) = runner.store.latest().values()
    assert row.status == "done" and not row.result["failures"]
    expected = numpy_reference(PricingRequest(
        options=tuple(_cell_options(condition)), steps=condition["steps"],
        kernel=condition["kernel"], task=condition["task"], strict=False))
    assert row.result["prices_blake2b"] == _digest_result(
        SimpleNamespace(**expected))


#: Books of one position, a handful, the stream-risk workload's 256
#: and one past it; revaluations every tick, every few and every eight.
STREAM_BOOK_SIZES = (1, 7, 256, 257)
STREAM_BATCH_TICKS = (1, 4, 8)
#: Ticks streamed per case: enough for several revaluations at every
#: batch size while the oracle reprices the whole book after each one.
STREAM_TICKS = 24


def stream_book(positions: int) -> PositionBook:
    options = generate_batch(n_options=positions, seed=900 + positions).options
    rng = np.random.default_rng(positions)
    book = PositionBook()
    for index, option in enumerate(options):
        quantity = rng.uniform(1.0, 10.0) * (-1.0 if index % 4 == 3 else 1.0)
        # mixed depths exercise the per-option steps path end to end
        book.add(Position(f"pos-{index:04d}", option, quantity=quantity,
                          steps=STEPS + index % 3))
    return book


@pytest.mark.parametrize("batch_ticks", STREAM_BATCH_TICKS,
                         ids=lambda ticks: f"batch-{ticks}")
@pytest.mark.parametrize("positions", STREAM_BOOK_SIZES,
                         ids=lambda n: f"book-{n}")
def test_stream_aggregates_match_the_oracle(fronts, positions, batch_ticks):
    _seed, service, _client = fronts
    book = stream_book(positions)
    config = StreamConfig(batch_ticks=batch_ticks)
    initial = {p.instrument_id: (p.option.spot, p.option.volatility,
                                 p.option.rate) for p in book.positions()}
    source = SyntheticTickSource(initial, seed=positions + batch_ticks,
                                 n_steps=STREAM_TICKS // positions + 1)
    checked = []

    def verify(update):
        oracle = full_repricing_oracle(book, config)
        for column in AGGREGATE_COLUMNS:
            assert update.columns[column].hex() == oracle[column].hex(), (
                f"aggregate {update.seq} column {column}")
        checked.append(update.seq)

    runner = StreamRunner(book, service, config=config, on_aggregate=verify)
    updates = runner.process(list(source)[:STREAM_TICKS])
    assert checked == [update.seq for update in updates]
    assert len(updates) >= STREAM_TICKS // (batch_ticks + 1)

