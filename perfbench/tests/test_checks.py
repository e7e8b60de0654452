"""Every correctness check rejects an output perturbed by 1e-6 relative."""

import numpy as np
import pytest

import checks
import oracle

STEPS = 128


@pytest.fixture(scope="module")
def book():
    """American puts from deep in to far out of the money."""
    spot = np.array([60.0, 90.0, 100.0, 110.0, 140.0])
    n = len(spot)
    cols = {"spot": spot, "strike": np.full(n, 100.0),
            "rate": np.full(n, 0.04), "vol": np.full(n, 0.25),
            "maturity": np.full(n, 1.0), "div": np.zeros(n),
            "sign": np.full(n, -1.0), "american": np.full(n, True)}
    return cols, oracle.lattice_greeks(cols, STEPS)


def _perturbed(values, index, rel=1e-6):
    values = np.array(values, dtype=float)
    values[index] *= 1.0 + rel
    return values


def test_prices_accept_the_oracle_and_reject_a_perturbed_price(book):
    _cols, want = book
    assert checks.check_prices(want["prices"], want["prices"]) == []
    assert checks.check_prices(_perturbed(want["prices"], 2),
                               want["prices"])


def test_bounds_reject_a_put_nudged_below_intrinsic(book):
    cols, want = book
    prices = want["prices"]
    assert checks.check_put_bounds(prices, cols) == []
    deep = 0  # spot 60 against strike 100: exercised, worth intrinsic
    assert prices[deep] == pytest.approx(40.0, rel=1e-12)
    assert checks.check_put_bounds(_perturbed(prices, deep, -1e-6), cols)
    assert checks.check_put_bounds(np.where(np.arange(5) == 1, np.nan,
                                            prices), cols)


@pytest.mark.parametrize("name", checks.GREEKS)
def test_greeks_reject_each_perturbed_column(book, name):
    cols, want = book
    tolerances = checks.greek_tolerances(cols, STEPS)
    assert checks.check_greeks(want, want, tolerances) == []
    got = dict(want, **{name: _perturbed(want[name], 2)})
    problems = checks.check_greeks(got, want, tolerances)
    assert len(problems) == 1 and name in problems[0]


def test_greek_signs_reject_values_pushed_past_their_bounds(book):
    cols, want = book
    tolerances = checks.greek_tolerances(cols, STEPS)
    assert checks.check_greek_signs(want, tolerances) == []
    deep = 0
    assert want["delta"][deep] == pytest.approx(-1.0, abs=1e-12)
    delta = np.array(want["delta"])
    delta[deep] = -1.0 * (1.0 + 1e-6)
    assert checks.check_greek_signs(dict(want, delta=delta), tolerances)
    vega = np.array(want["vega"])
    vega[2] = -1e-6 * vega[2]
    assert checks.check_greek_signs(dict(want, vega=vega), tolerances)
    rho = np.array(want["rho"])
    rho[2] = -1e-6 * rho[2]
    assert checks.check_greek_signs(dict(want, rho=rho), tolerances)


@pytest.mark.parametrize("column", ("value",) + checks.GREEKS)
def test_aggregate_rejects_each_perturbed_column(book, column):
    cols, want = book
    tolerances = checks.greek_tolerances(cols, STEPS)
    quantity = np.array([3.0, 1.5, 2.0, 4.0, 2.5])
    exact = {("value" if name == "prices" else name): float(quantity @ values)
             for name, values in want.items()}
    assert checks.check_aggregate(exact, want, quantity, tolerances) == []
    nudged = dict(exact, **{column: exact[column] * (1.0 + 1e-6)})
    problems = checks.check_aggregate(nudged, want, quantity, tolerances)
    assert len(problems) == 1 and column in problems[0]
