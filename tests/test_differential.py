"""One request through every front end, the same bits at rtol=0.

The same seeded :class:`~repro.api.PricingRequest`s — price and greeks
tasks on kernels IV.A, IV.B and the reference pricer — go through the
library façade (:func:`repro.price` / :func:`repro.greeks`), an
in-process :class:`~repro.service.PricingService` and a one-shard
:class:`~repro.serve.PricingServer` over HTTP.  Every column of every
result must equal a plain NumPy-backend :class:`PricingEngine` run of
the request bit for bit, with and without a seeded fault plan whose
transient faults heal on retry.
"""

import numpy as np
import pytest

import repro
from repro.api import PricingRequest
from repro.engine import EngineConfig, PricingEngine
from repro.engine.faults import FaultPlan
from repro.finance import generate_batch
from repro.serve import PricingServer, ServeClient, ServeConfig
from repro.service import PricingService, ServiceConfig

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
    config = ServiceConfig(faults=fault_plan(seed), max_wait_ms=0.0)
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
