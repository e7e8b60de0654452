"""Option contract definitions and payoff functions.

The paper prices *American* options (right to exercise at any time up to
expiry) with the binomial model, using *European* options (exercise only
at expiry) as the analytically-checkable base case.  This module defines
the immutable contract description shared by every pricer in the
library, plus vectorised payoff helpers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import FinanceError

__all__ = [
    "OptionType",
    "ExerciseStyle",
    "Option",
    "OptionArrays",
    "option_arrays",
    "intrinsic_value",
    "payoff",
]


class OptionType(enum.Enum):
    """Whether the contract is a right to buy (call) or sell (put)."""

    CALL = "call"
    PUT = "put"

    @property
    def sign(self) -> int:
        """+1 for calls, -1 for puts; multiplies ``S - K`` in payoffs."""
        return 1 if self is OptionType.CALL else -1


class ExerciseStyle(enum.Enum):
    """When the holder may exercise the option."""

    EUROPEAN = "european"
    AMERICAN = "american"


def _coerce_enum(value, enum_cls, field):
    """Return ``value`` as a member of ``enum_cls``, accepting strings.

    Strings are matched case-insensitively against the enum *values*
    (``"call"``, ``"put"``, ``"european"``, ``"american"``).  Anything
    else raises :class:`~repro.errors.FinanceError` at construction,
    where the mistake is visible, instead of an ``AttributeError``
    deep inside a pricer.
    """
    if isinstance(value, enum_cls):
        return value
    if isinstance(value, str):
        try:
            return enum_cls(value.lower())
        except ValueError:
            pass
    valid = ", ".join(repr(m.value) for m in enum_cls)
    raise FinanceError(
        f"{field} must be {enum_cls.__name__} or one of {valid}, "
        f"got {value!r}"
    )


@dataclass(frozen=True, slots=True)
class Option:
    """Immutable description of a vanilla equity option contract.

    Parameters mirror the standard Black-Scholes/CRR setting used in the
    paper (risk-neutral valuation, constant volatility and rate):

    :param spot: current underlying price ``S0`` (must be > 0).
    :param strike: strike price ``K`` (must be > 0).
    :param rate: continuously-compounded risk-free rate ``r``.
    :param volatility: annualised volatility ``sigma`` (must be > 0).
    :param maturity: time to expiry ``T`` in years (must be > 0).
    :param option_type: :class:`OptionType.CALL` or ``PUT``; the enum
        value strings (``"call"`` / ``"put"``, case-insensitive) are
        also accepted and coerced at construction.
    :param exercise: :class:`ExerciseStyle.AMERICAN` (paper's target) or
        ``EUROPEAN``; strings (``"american"`` / ``"european"``) are
        coerced the same way.
    :param dividend_yield: continuous dividend yield ``q`` (default 0).
    """

    spot: float
    strike: float
    rate: float
    volatility: float
    maturity: float
    option_type: OptionType = OptionType.CALL
    exercise: ExerciseStyle = ExerciseStyle.AMERICAN
    dividend_yield: float = 0.0

    def __post_init__(self) -> None:
        # Coerce string spellings up front: without this,
        # Option(option_type="put") constructs silently and only crashes
        # much later with AttributeError when a pricer asks for .sign.
        object.__setattr__(
            self, "option_type", _coerce_enum(self.option_type, OptionType,
                                              "option_type"))
        object.__setattr__(
            self, "exercise", _coerce_enum(self.exercise, ExerciseStyle,
                                           "exercise"))
        if not (self.spot > 0.0 and math.isfinite(self.spot)):
            raise FinanceError(f"spot must be finite and > 0, got {self.spot}")
        if not (self.strike > 0.0 and math.isfinite(self.strike)):
            raise FinanceError(f"strike must be finite and > 0, got {self.strike}")
        if not (self.volatility > 0.0 and math.isfinite(self.volatility)):
            raise FinanceError(
                f"volatility must be finite and > 0, got {self.volatility}"
            )
        if not (self.maturity > 0.0 and math.isfinite(self.maturity)):
            raise FinanceError(f"maturity must be finite and > 0, got {self.maturity}")
        if not math.isfinite(self.rate):
            raise FinanceError(f"rate must be finite, got {self.rate}")
        if not math.isfinite(self.dividend_yield):
            raise FinanceError(
                f"dividend_yield must be finite, got {self.dividend_yield}"
            )

    # -- convenience constructors / derived views --------------------------

    @property
    def is_call(self) -> bool:
        """True when the contract is a call."""
        return self.option_type is OptionType.CALL

    @property
    def is_american(self) -> bool:
        """True when early exercise is allowed."""
        return self.exercise is ExerciseStyle.AMERICAN

    def with_volatility(self, volatility: float) -> "Option":
        """Return a copy with a different volatility (implied-vol loop)."""
        return replace(self, volatility=volatility)

    def with_strike(self, strike: float) -> "Option":
        """Return a copy with a different strike (curve construction)."""
        return replace(self, strike=strike)

    def as_european(self) -> "Option":
        """Return the European twin of this contract."""
        return replace(self, exercise=ExerciseStyle.EUROPEAN)

    def as_american(self) -> "Option":
        """Return the American twin of this contract."""
        return replace(self, exercise=ExerciseStyle.AMERICAN)

    def intrinsic(self) -> float:
        """Immediate-exercise value at the current spot."""
        return intrinsic_value(self.spot, self.strike, self.option_type)

    def moneyness(self) -> float:
        """Spot/strike ratio, the usual curve x-axis."""
        return self.spot / self.strike


@dataclass(frozen=True, slots=True)
class OptionArrays:
    """Column view of a batch of contracts (one array per field).

    This is the structure-of-arrays form the vectorised parameter
    builders and the batched pricing engine operate on; element ``i``
    of every array describes ``options[i]``.
    """

    spot: np.ndarray
    strike: np.ndarray
    rate: np.ndarray
    volatility: np.ndarray
    maturity: np.ndarray
    dividend_yield: np.ndarray
    sign: np.ndarray

    def __len__(self) -> int:
        return self.spot.shape[0]


def _validate_columns(arrays: OptionArrays) -> None:
    """Reject NaN/inf and non-positive market data, naming the index.

    :class:`Option` already validates at construction, but batches
    assembled from feeds, deserialised rows or duck-typed contract
    objects can bypass that — and one NaN spot silently poisons every
    price in the chunk it lands in.  One vectorised pass per column
    keeps the check O(n) with no Python-level loop in the clean case.
    """
    checks = (
        ("spot", arrays.spot, True),
        ("strike", arrays.strike, True),
        ("volatility", arrays.volatility, True),
        ("maturity", arrays.maturity, True),
        ("rate", arrays.rate, False),
        ("dividend_yield", arrays.dividend_yield, False),
    )
    for name, column, positive in checks:
        bad = ~np.isfinite(column)
        if positive:
            bad |= column <= 0.0
        if bad.any():
            index = int(np.argmax(bad))
            requirement = "finite and > 0" if positive else "finite"
            raise FinanceError(
                f"option {index}: {name} must be {requirement}, "
                f"got {column[index]}"
            )


def option_arrays(options) -> OptionArrays:
    """Transpose a sequence of :class:`Option` into field arrays.

    Each field is gathered with a single C-level ``fromiter`` pass, so
    building the columns for thousands of options never materialises a
    per-option Python row.  Columns are validated on the way out —
    NaN/inf or non-positive spot, strike, volatility or maturity raise
    :class:`~repro.errors.FinanceError` naming the offending option
    index, so bad market data is caught before it poisons a chunk.
    """
    options = list(options)
    n = len(options)

    def column(getter) -> np.ndarray:
        return np.fromiter((getter(o) for o in options), dtype=np.float64,
                           count=n)

    arrays = OptionArrays(
        spot=column(lambda o: o.spot),
        strike=column(lambda o: o.strike),
        rate=column(lambda o: o.rate),
        volatility=column(lambda o: o.volatility),
        maturity=column(lambda o: o.maturity),
        dividend_yield=column(lambda o: o.dividend_yield),
        sign=column(lambda o: o.option_type.sign),
    )
    _validate_columns(arrays)
    return arrays


def intrinsic_value(spot, strike, option_type: OptionType):
    """Immediate-exercise (intrinsic) value ``max(±(S-K), 0)``.

    Accepts scalars or numpy arrays for ``spot``/``strike`` and
    broadcasts; the result has the broadcast shape.
    """
    gap = option_type.sign * (np.asarray(spot, dtype=float) - strike)
    value = np.maximum(gap, 0.0)
    if np.ndim(spot) == 0 and np.ndim(strike) == 0:
        return float(value)
    return value


def payoff(option: Option, terminal_prices):
    """Contract payoff at expiry for one or many terminal prices."""
    return intrinsic_value(terminal_prices, option.strike, option.option_type)
