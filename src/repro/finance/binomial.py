"""Reference binomial pricers (the paper's "reference software").

The paper's baseline is a single-threaded C program running CRR backward
induction on one Xeon core.  This module provides the equivalent
reference implementations used throughout the library:

* :func:`price_binomial_scalar` — a deliberately plain, loop-based
  pricer that mirrors the C reference one arithmetic operation at a
  time.  It is the ground truth the simulated kernels are validated
  against at small ``N`` and is also what the CPU device model's
  cycles-per-node calibration refers to.
* :func:`price_binomial` — a numpy-vectorised pricer (vector over tree
  rows) that produces identical results in double precision and is fast
  enough to run the paper's full configuration (N=1024, thousands of
  options) inside the accuracy experiments.  Batches go through
  :func:`repro.api.price`.

All pricers support single precision (``dtype=np.float32``) because
Table II reports a single-precision software reference row whose RMSE
(~1e-3) the accuracy experiment reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ..errors import FinanceError
from .lattice import LatticeFamily, LatticeParams, build_lattice_params
from .options import Option

__all__ = [
    "PricingResult",
    "ReferenceLeaves",
    "price_binomial",
    "reference_leaves",
    "price_binomial_scalar",
    "exercise_boundary",
]


@dataclass(frozen=True)
class PricingResult:
    """Output of a binomial pricing run.

    :param price: option value at the root node ``V[0, 0]``.
    :param params: the lattice constants used.
    :param tree_nodes: number of node updates performed (the unit of the
        paper's "tree nodes/s" throughput metric).
    """

    price: float
    params: LatticeParams
    tree_nodes: int


def _validate_steps(steps: int) -> None:
    if steps < 1:
        raise FinanceError(f"steps must be >= 1, got {steps}")


class ReferenceLeaves(NamedTuple):
    """Leaf rows and Equation (1) constants of the reference pricer.

    ``leaf_s``/``leaf_v`` are option-major ``(n, steps + 1)`` asset
    prices and payoffs; ``pulldown``, ``rp``, ``rq``, ``strike`` and
    ``sign`` are ``(n, 1)`` columns.  Every array is in the working
    dtype, ready for :meth:`repro.backends.KernelBackend.roll_levels`.
    """

    params: "tuple[LatticeParams, ...]"
    leaf_s: np.ndarray
    leaf_v: np.ndarray
    pulldown: np.ndarray
    rp: np.ndarray
    rq: np.ndarray
    strike: np.ndarray
    sign: np.ndarray


def reference_leaves(
    options: Sequence[Option],
    steps: int,
    family: LatticeFamily = LatticeFamily.CRR,
    dtype=np.float64,
) -> ReferenceLeaves:
    """Build the reference pricer's leaves for a batch of options.

    Lattice constants come from the scalar :func:`build_lattice_params`
    (``math.exp``, not NumPy's vector ``exp``) and are rounded once
    into ``dtype``; the leaves are ``S = spot * u**(N-k) * d**k`` and
    ``V = max(sign * (S - K), 0)``, each option's row computed by the
    same ufuncs in the same order whatever the batch size.  This is
    the one leaf builder behind :func:`price_binomial` and the
    engine's ``reference`` kernel, which is what makes the two
    bit-identical.
    """
    _validate_steps(steps)
    dtype = np.dtype(dtype)
    params = tuple(build_lattice_params(o, steps, family) for o in options)

    def column(values) -> np.ndarray:
        return np.array(list(values), dtype=dtype).reshape(-1, 1)

    spot = column(o.spot for o in options)
    up = column(p.up for p in params)
    down = column(p.down for p in params)
    strike = column(o.strike for o in options)
    sign = column(o.option_type.sign for o in options)

    # Leaf asset prices S[N, k] for k = 0..N (k = down moves).
    k = np.arange(steps + 1, dtype=dtype)
    leaf_s = spot * up ** (dtype.type(steps) - k) * down**k
    leaf_v = np.maximum(sign * (leaf_s - strike), dtype.type(0.0))
    return ReferenceLeaves(
        params=params,
        leaf_s=leaf_s,
        leaf_v=leaf_v,
        pulldown=column(p.pulldown for p in params),
        rp=column(p.discounted_p_up for p in params),
        rq=column(p.discounted_p_down for p in params),
        strike=strike,
        sign=sign,
    )


def price_binomial(
    option: Option,
    steps: int = 1024,
    family: LatticeFamily = LatticeFamily.CRR,
    dtype=np.float64,
) -> PricingResult:
    """Price ``option`` on a recombining binomial tree (vectorised).

    Backward induction over rows: the leaf row holds the payoff, then
    each step applies the discounted expectation and (for American
    exercise) the early-exercise floor of the paper's Equation (1).

    :param option: contract to price.
    :param steps: time discretisation ``N`` (paper default 1024).
    :param family: lattice parameterisation (default CRR).
    :param dtype: ``np.float64`` or ``np.float32``; Table II's
        single-precision rows use the latter.
    :returns: :class:`PricingResult` with the root value.
    """
    leaves = reference_leaves((option,), steps, family, dtype)
    params = leaves.params[0]
    prices = leaves.leaf_s[0]
    values = leaves.leaf_v[0]
    pulldown, rp, rq, strike, sign = (
        column[0, 0] for column in (leaves.pulldown, leaves.rp, leaves.rq,
                                    leaves.strike, leaves.sign))

    american = option.is_american
    for t in range(steps - 1, -1, -1):
        # Continuation value for nodes k = 0..t: rp*V[t+1,k] + rq*V[t+1,k+1].
        values = rp * values[: t + 1] + rq * values[1 : t + 2]
        if american:
            # S[t, k] = S[t+1, k] / u for every family; the paper's
            # Equation (1) form d * S[t+1, k] holds only under CRR.
            prices = prices[: t + 1] * pulldown
            values = np.maximum(values, sign * (prices - strike))

    return PricingResult(
        price=float(values[0]),
        params=params,
        tree_nodes=params.interior_work_items + steps + 1,
    )


def price_binomial_scalar(
    option: Option,
    steps: int = 1024,
    family: LatticeFamily = LatticeFamily.CRR,
) -> PricingResult:
    """Loop-based double-precision pricer mirroring the C reference.

    Same recurrence as :func:`price_binomial` but written as explicit
    per-node loops; used as the independent ground truth in tests.
    """
    _validate_steps(steps)
    params = build_lattice_params(option, steps, family)
    sign = option.option_type.sign
    rp = params.discounted_p_up
    rq = params.discounted_p_down

    prices = [
        option.spot * params.up ** (steps - k) * params.down**k
        for k in range(steps + 1)
    ]
    values = [max(sign * (s - option.strike), 0.0) for s in prices]

    pulldown = params.pulldown
    for t in range(steps - 1, -1, -1):
        for k in range(t + 1):
            continuation = rp * values[k] + rq * values[k + 1]
            if option.is_american:
                prices[k] = pulldown * prices[k]
                continuation = max(continuation, sign * (prices[k] - option.strike))
            values[k] = continuation

    return PricingResult(
        price=values[0],
        params=params,
        tree_nodes=params.interior_work_items + steps + 1,
    )


def exercise_boundary(
    option: Option,
    steps: int = 256,
    family: LatticeFamily = LatticeFamily.CRR,
) -> np.ndarray:
    """Early-exercise boundary of an American option.

    For each time step ``t`` returns the critical asset price at which
    immediate exercise first becomes optimal (``nan`` where exercise is
    never optimal at that step).  Used by analysis examples; European
    contracts raise because they have no boundary.
    """
    if not option.is_american:
        raise FinanceError("exercise boundary is defined for American options only")
    _validate_steps(steps)
    params = build_lattice_params(option, steps, family)
    sign = option.option_type.sign
    rp = params.discounted_p_up
    rq = params.discounted_p_down

    k = np.arange(steps + 1, dtype=float)
    prices = option.spot * params.up ** (steps - k) * params.down**k
    values = np.maximum(sign * (prices - option.strike), 0.0)
    boundary = np.full(steps + 1, np.nan)
    boundary[steps] = option.strike  # at expiry the boundary is the strike

    for t in range(steps - 1, -1, -1):
        values = rp * values[: t + 1] + rq * values[1 : t + 2]
        prices = prices[: t + 1] * params.pulldown
        intrinsic = sign * (prices - option.strike)
        exercised = intrinsic >= values
        exercised &= intrinsic > 0.0
        if exercised.any():
            idx = np.nonzero(exercised)[0]
            # For a put the exercised region is the low-price side
            # (large k); for a call the high-price side (small k).
            edge = idx.max() if sign > 0 else idx.min()
            boundary[t] = prices[edge]
        values = np.maximum(values, intrinsic)

    return boundary
