"""Self-tests of the benchmark's own pricer."""

import math

import numpy as np
import pytest

import oracle


def _cols(spot, strike, rate, vol, maturity, call=False, american=False,
          div=0.0):
    n = len(np.atleast_1d(spot))

    def col(value):
        return np.broadcast_to(np.asarray(value, dtype=float), (n,)).copy()

    return {"spot": col(spot), "strike": col(strike), "rate": col(rate),
            "vol": col(vol), "maturity": col(maturity), "div": col(div),
            "sign": col(1.0 if call else -1.0),
            "american": np.full(n, american)}


def test_black_scholes_put_reference_value():
    assert oracle.bs_price(100, 100, 0.05, 0.2, 1.0, call=False) == \
        pytest.approx(5.5735, abs=5e-5)


@pytest.mark.parametrize("family", oracle.FAMILIES)
def test_european_lattice_converges_to_black_scholes(family):
    cols = _cols([90.0, 100.0, 110.0], 100.0, 0.05, 0.2, 1.0)
    exact = np.array([oracle.bs_price(s, 100, 0.05, 0.2, 1.0, call=False)
                      for s in cols["spot"]])
    errors = [np.max(np.abs(oracle.lattice_price(cols, steps, family)
                            - exact)) for steps in (32, 256, 2048)]
    assert errors[2] < errors[0]
    assert errors[2] < 2e-3


@pytest.mark.parametrize("family", oracle.FAMILIES)
def test_european_put_call_parity(family):
    spot, strike, rate, div, maturity = 95.0, 100.0, 0.04, 0.01, 0.75
    put = oracle.lattice_price(
        _cols(spot, strike, rate, 0.3, maturity, div=div), 512, family)
    call = oracle.lattice_price(
        _cols(spot, strike, rate, 0.3, maturity, call=True, div=div), 512,
        family)
    forward = (spot * math.exp(-div * maturity)
               - strike * math.exp(-rate * maturity))
    assert call[0] - put[0] == pytest.approx(forward, abs=1e-10)


def test_american_put_is_worth_at_least_the_european():
    european = oracle.lattice_price(_cols(90.0, 100.0, 0.05, 0.2, 1.0), 256)
    american = oracle.lattice_price(
        _cols(90.0, 100.0, 0.05, 0.2, 1.0, american=True), 256)
    assert american[0] > european[0]
    assert american[0] >= 10.0


def test_lattice_greeks_match_black_scholes_for_a_european_put():
    cols = _cols(100.0, 100.0, 0.05, 0.2, 1.0)
    greeks = oracle.lattice_greeks(cols, 1024)
    root_t = 1.0
    d1 = (0.05 + 0.02) / 0.2
    nd1 = 0.5 * math.erfc(-d1 / math.sqrt(2))
    assert greeks["delta"][0] == pytest.approx(nd1 - 1.0, abs=2e-3)
    vega = 100 * math.exp(-0.5 * d1 * d1) / math.sqrt(2 * math.pi) * root_t
    assert greeks["vega"][0] == pytest.approx(vega, rel=5e-3)
