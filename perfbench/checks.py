"""Correctness checks on the program's outputs against the oracle.

Every check returns a list of problem strings (empty when the outputs
pass), so one run can report every fault it saw.

Tolerances.  Prices must match the oracle within 1e-9 relative or 1e-9
absolute (measured agreement is about 1e-12).  A greek is a linear
difference of tree values, so its tolerance is a price-level tolerance
of ``GREEK_PRICE_TOL * strike`` carried through that difference
formula (measured agreement is about 1e-14 of strike).  Bounds and
signs allow the same slack, because the program's spot roll lands a
few ulps away from the textbook node spots.
"""

from __future__ import annotations

import numpy as np

from oracle import tree_constants

__all__ = ["GREEK_PRICE_TOL", "PRICE_ATOL", "PRICE_RTOL", "check_aggregate",
           "check_greek_signs", "check_greeks", "check_prices",
           "check_put_bounds", "greek_tolerances"]

PRICE_RTOL = 1e-9
PRICE_ATOL = 1e-9
GREEK_PRICE_TOL = 1e-12

GREEKS = ("delta", "gamma", "theta", "vega", "rho")


def _where(label: str, bad) -> str:
    index = int(np.flatnonzero(bad)[0])
    return f"{label} (first at sample {index}, {int(np.sum(bad))} in all)"


def check_prices(got, want, label: str = "price") -> "list[str]":
    """Program prices against oracle prices, elementwise."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    bad = ~(np.abs(got - want) <= np.maximum(PRICE_RTOL * np.abs(want),
                                              PRICE_ATOL))
    if not bad.any():
        return []
    return [_where(f"{label} differs from the oracle", bad)]


def check_put_bounds(prices, cols) -> "list[str]":
    """American puts: finite, >= intrinsic value, <= strike."""
    prices = np.asarray(prices, float)
    strike = cols["strike"]
    slack = PRICE_RTOL * strike
    problems = []
    if not np.all(np.isfinite(prices)):
        problems.append(_where("non-finite price", ~np.isfinite(prices)))
    intrinsic = np.maximum(strike - cols["spot"], 0.0)
    low = prices < intrinsic - slack
    if low.any():
        problems.append(_where("put priced below intrinsic value", low))
    high = prices > strike + slack
    if high.any():
        problems.append(_where("put priced above its strike", high))
    return problems


def greek_tolerances(cols, steps: int, family: str = "crr",
                     bump_vol: float = 1e-3,
                     bump_rate: float = 1e-4) -> dict:
    """Absolute tolerance per greek column, per option."""
    dt, up, down, _p, _disc = tree_constants(
        family, cols["rate"], cols["div"], cols["vol"], cols["maturity"],
        steps)
    spot = cols["spot"]
    s_uu, s_mid, s_dd = spot * up * up, spot * up * down, spot * down * down
    weight = {
        "prices": np.ones_like(spot),
        "delta": 2.0 / (spot * up - spot * down),
        "gamma": ((2.0 / (s_uu - s_mid) + 2.0 / (s_mid - s_dd))
                  / (0.5 * (s_uu - s_dd))),
        "theta": 1.0 / dt,
        "vega": np.full_like(spot, 1.0 / bump_vol),
        "rho": np.full_like(spot, 1.0 / bump_rate),
    }
    scale = GREEK_PRICE_TOL * cols["strike"]
    return {name: scale * w for name, w in weight.items()}


def check_greeks(got: dict, want: dict, tolerances: dict) -> "list[str]":
    """Program greeks against the oracle's, column by column."""
    problems = []
    for name in GREEKS:
        diff = np.abs(np.asarray(got[name], float) - want[name])
        bad = ~(diff <= tolerances[name])
        if bad.any():
            problems.append(_where(f"{name} differs from the oracle", bad))
    return problems


def check_greek_signs(got: dict, tolerances: dict) -> "list[str]":
    """American puts: delta in [-1, 0], vega >= 0, rho <= 0."""
    delta = np.asarray(got["delta"], float)
    vega = np.asarray(got["vega"], float)
    rho = np.asarray(got["rho"], float)
    problems = []
    out = ((delta < -1.0 - tolerances["delta"])
           | (delta > tolerances["delta"]) | ~np.isfinite(delta))
    if out.any():
        problems.append(_where("put delta outside [-1, 0]", out))
    negative = ~(vega >= -tolerances["vega"])
    if negative.any():
        problems.append(_where("negative vega", negative))
    positive = ~(rho <= tolerances["rho"])
    if positive.any():
        problems.append(_where("positive put rho", positive))
    return problems


def check_aggregate(columns: dict, want: dict, quantity,
                    tolerances: dict) -> "list[str]":
    """A quantity-weighted book aggregate against the oracle's."""
    weights = np.abs(np.asarray(quantity, float))
    problems = []
    for name in ("prices",) + GREEKS:
        column = "value" if name == "prices" else name
        expected = float(np.asarray(quantity, float) @ want[name])
        bound = float(weights @ tolerances[name])
        if name == "prices":
            bound = max(bound, PRICE_RTOL * abs(expected))
        if not abs(float(columns[column]) - expected) <= bound:
            problems.append(
                f"aggregate {column} {columns[column]!r} differs from the "
                f"oracle's {expected!r} by more than {bound:.3g}")
    return problems
