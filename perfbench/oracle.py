"""The benchmark's own pricer: independent of the program under test.

Nothing here imports ``repro``.  Contracts are passed as plain NumPy
columns (spot, strike, rate, volatility, maturity, dividend yield), so
the oracle cannot share a bug with the program's lattice builders.

* :func:`lattice_price` — backward induction vectorised over options,
  on the CRR, Jarrow-Rudd (risk-neutral probability) and Tian trees,
  for American or European exercise.  Node spots are computed directly
  as ``S0 * u**(t-k) * d**k`` (``k`` = down moves), not rolled level
  to level, so the oracle's rounding differs from the program's by a
  few ulps and nothing more.
* :func:`lattice_greeks` — Hull's tree-level delta/gamma/theta from
  levels 1 and 2 of the same pass, central bump-and-reprice vega/rho.
* :func:`bs_price` — closed-form Black-Scholes with dividend yield.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["FAMILIES", "bs_price", "lattice_greeks", "lattice_price",
           "option_columns", "tree_constants"]

FAMILIES = ("crr", "jarrow-rudd", "tian")


def option_columns(options) -> dict:
    """Contract columns from any objects with the usual attributes.

    Puts carry ``sign = -1``, calls ``+1``; ``american`` is a bool
    column.  Reads plain attributes only, so the oracle stays
    independent of the program's classes.
    """
    def column(name):
        return np.array([float(getattr(o, name)) for o in options])

    def enum_value(value):
        return str(getattr(value, "value", value)).lower()

    return {
        "spot": column("spot"), "strike": column("strike"),
        "rate": column("rate"), "vol": column("volatility"),
        "maturity": column("maturity"),
        "div": column("dividend_yield"),
        "sign": np.array([1.0 if enum_value(o.option_type) == "call"
                          else -1.0 for o in options]),
        "american": np.array([enum_value(o.exercise) == "american"
                              for o in options]),
    }


def tree_constants(family: str, rate, div, vol, maturity, steps: int):
    """Per-option ``(dt, u, d, p, discount)`` from the textbook formulas."""
    dt = maturity / steps
    growth = np.exp((rate - div) * dt)
    if family == "crr":
        up = np.exp(vol * np.sqrt(dt))
        down = 1.0 / up
    elif family == "jarrow-rudd":
        drift = (rate - div - 0.5 * vol * vol) * dt
        up = np.exp(drift + vol * np.sqrt(dt))
        down = np.exp(drift - vol * np.sqrt(dt))
    elif family == "tian":
        v = np.exp(vol * vol * dt)
        root = np.sqrt(v * v + 2.0 * v - 3.0)
        up = 0.5 * growth * v * (v + 1.0 + root)
        down = 0.5 * growth * v * (v + 1.0 - root)
    else:
        raise ValueError(f"unknown lattice family {family!r}")
    p_up = (growth - down) / (up - down)
    if np.any((p_up <= 0.0) | (p_up >= 1.0)):
        raise ValueError("risk-neutral probability outside (0, 1)")
    return dt, up, down, p_up, np.exp(-rate * dt)


def _roll(cols: dict, steps: int, family: str, keep_levels: bool = False):
    spot, strike, sign = cols["spot"], cols["strike"], cols["sign"]
    dt, up, down, p_up, disc = tree_constants(
        family, cols["rate"], cols["div"], cols["vol"], cols["maturity"],
        steps)
    log_u, log_d = np.log(up)[:, None], np.log(down)[:, None]
    american = cols["american"][:, None]
    spot_c, strike_c, sign_c = spot[:, None], strike[:, None], sign[:, None]

    def node_spots(t):
        k = np.arange(t + 1, dtype=np.float64)[None, :]
        return spot_c * np.exp((t - k) * log_u + k * log_d)

    values = np.maximum(sign_c * (node_spots(steps) - strike_c), 0.0)
    rp, rq = (disc * p_up)[:, None], (disc * (1.0 - p_up))[:, None]
    levels = {}
    for t in range(steps - 1, -1, -1):
        values = rp * values[:, :t + 1] + rq * values[:, 1:t + 2]
        exercise = sign_c * (node_spots(t) - strike_c)
        values = np.where(american & (exercise > values), exercise, values)
        if keep_levels and t <= 2:
            levels[t] = values.copy()
    return values[:, 0], levels, (dt, up, down)


def lattice_price(cols: dict, steps: int, family: str = "crr") -> np.ndarray:
    """Root values of every contract in ``cols`` on an ``steps``-step tree."""
    return _roll(cols, steps, family)[0]


def lattice_greeks(cols: dict, steps: int, family: str = "crr",
                   bump_vol: float = 1e-3, bump_rate: float = 1e-4) -> dict:
    """Price plus delta/gamma/theta/vega/rho columns.

    Delta, gamma and theta come from tree levels 1 and 2 of the pricing
    pass (Hull); vega and rho are central differences of four
    bump-and-reprice passes with the given absolute bumps.
    """
    price, levels, (dt, up, down) = _roll(cols, steps, family, True)
    spot = cols["spot"]
    l1, l2 = levels[1], levels[2]
    s_up, s_dn = spot * up, spot * down
    s_uu, s_mid, s_dd = spot * up * up, spot * up * down, spot * down * down
    delta = (l1[:, 0] - l1[:, 1]) / (s_up - s_dn)
    gamma = ((l2[:, 0] - l2[:, 1]) / (s_uu - s_mid)
             - (l2[:, 1] - l2[:, 2]) / (s_mid - s_dd)) / (0.5 * (s_uu - s_dd))
    theta = (l2[:, 1] - price) / (2.0 * dt)

    def bumped(name, column):
        return lattice_price(dict(cols, **{name: column}), steps, family)

    vol, rate = cols["vol"], cols["rate"]
    vega = (bumped("vol", vol + bump_vol)
            - bumped("vol", np.maximum(vol - bump_vol, 1e-8))) / (2 * bump_vol)
    rho = (bumped("rate", rate + bump_rate)
           - bumped("rate", rate - bump_rate)) / (2 * bump_rate)
    return {"prices": price, "delta": delta, "gamma": gamma,
            "theta": theta, "vega": vega, "rho": rho}


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bs_price(spot: float, strike: float, rate: float, vol: float,
             maturity: float, call: bool, div: float = 0.0) -> float:
    """Closed-form Black-Scholes value of a European option."""
    root_t = math.sqrt(maturity)
    d1 = ((math.log(spot / strike) + (rate - div + 0.5 * vol * vol)
           * maturity) / (vol * root_t))
    d2 = d1 - vol * root_t
    fwd_spot = spot * math.exp(-div * maturity)
    pv_strike = strike * math.exp(-rate * maturity)
    if call:
        return fwd_spot * _norm_cdf(d1) - pv_strike * _norm_cdf(d2)
    return pv_strike * _norm_cdf(-d2) - fwd_spot * _norm_cdf(-d1)
