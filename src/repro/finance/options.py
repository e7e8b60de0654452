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
from itertools import chain

import numpy as np

from ..errors import FinanceError

__all__ = [
    "OptionType",
    "ExerciseStyle",
    "Option",
    "OPTION_ROWS",
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


#: Rows of an :class:`OptionArrays` block, in order: the six contract
#: and market floats, the option-type sign (+1 call, -1 put) and the
#: exercise code (1.0 American, 0.0 European).
OPTION_ROWS = ("spot", "strike", "rate", "volatility", "maturity",
               "dividend_yield", "sign", "american")
_FLOAT_ROWS = 6
_POSITIVE_ROWS = (0, 1, 3, 4)  # spot, strike | volatility, maturity


@dataclass(frozen=True, slots=True)
class OptionArrays:
    """Column block of a batch of contracts: one ``(8, n)`` float64 array.

    Rows follow :data:`OPTION_ROWS`; element ``i`` of every row
    describes option ``i``.  This is the structure-of-arrays form the
    request, the parameter builders and the pricing engine carry a
    batch in, the host-side twin of the paper's one parameter buffer
    per batch: slicing, concatenation, hashing and pickling are one
    array operation each, and no per-option Python object exists
    unless :meth:`to_options` is called.  Equality is bitwise.
    """

    block: np.ndarray

    def __len__(self) -> int:
        return self.block.shape[1]

    def __getitem__(self, index) -> "OptionArrays":
        """The sub-batch at ``index`` (a slice or an index array)."""
        return OptionArrays(self.block[:, index])

    def __eq__(self, other) -> bool:
        if not isinstance(other, OptionArrays):
            return NotImplemented
        return (self.block.shape == other.block.shape
                and self.block.tobytes() == other.block.tobytes())

    __hash__ = None

    spot = property(lambda self: self.block[0])
    strike = property(lambda self: self.block[1])
    rate = property(lambda self: self.block[2])
    volatility = property(lambda self: self.block[3])
    maturity = property(lambda self: self.block[4])
    dividend_yield = property(lambda self: self.block[5])
    sign = property(lambda self: self.block[6])
    american = property(lambda self: self.block[7])

    @classmethod
    def from_options(cls, options) -> "OptionArrays":
        """Gather a sequence of :class:`Option` into one block, unvalidated.

        One C-level ``fromiter`` pass reads every option's eight
        values; :func:`option_arrays` adds validation.
        """
        options = list(options)
        call, american = OptionType.CALL, ExerciseStyle.AMERICAN
        flat = np.fromiter(
            chain.from_iterable(
                (o.spot, o.strike, o.rate, o.volatility, o.maturity,
                 o.dividend_yield, o.option_type is call,
                 o.exercise is american) for o in options),
            dtype=np.float64, count=len(OPTION_ROWS) * len(options))
        block = flat.reshape(len(options), len(OPTION_ROWS)).T.copy()
        block[6] = 2.0 * block[6] - 1.0  # is-call flag -> payoff sign
        return cls(block)

    def to_options(self) -> "tuple[Option, ...]":
        """Materialise the batch as :class:`Option` objects (bitwise)."""
        spot, strike, rate, vol, maturity, q, sign, american = (
            self.block.tolist())
        return tuple(
            Option(spot=spot[i], strike=strike[i], rate=rate[i],
                   volatility=vol[i], maturity=maturity[i],
                   dividend_yield=q[i],
                   option_type=(OptionType.CALL if sign[i] > 0
                                else OptionType.PUT),
                   exercise=(ExerciseStyle.AMERICAN if american[i]
                             else ExerciseStyle.EUROPEAN))
            for i in range(len(spot)))

    def validate(self) -> "OptionArrays":
        """Reject bad market data or codes, naming the option index.

        :class:`Option` already validates at construction, but batches
        assembled from feeds, deserialised rows or duck-typed contract
        objects can bypass that — and one NaN spot silently poisons
        every price in the chunk it lands in.  The clean case costs a
        few whole-block array operations; only a failing block is
        walked field by field to name the culprit.  Returns ``self``.
        """
        block = self.block
        sign, american = block[6], block[7]
        if (np.isfinite(block[:_FLOAT_ROWS]).all()
                and (block[0:2] > 0.0).all() and (block[3:5] > 0.0).all()
                and (sign * sign == 1.0).all()
                and (american * american == american).all()):
            return self
        for row, name in enumerate(OPTION_ROWS[:_FLOAT_ROWS]):
            column = block[row]
            bad = ~np.isfinite(column)
            positive = row in _POSITIVE_ROWS
            if positive:
                bad |= column <= 0.0
            if bad.any():
                index = int(np.argmax(bad))
                requirement = "finite and > 0" if positive else "finite"
                raise FinanceError(
                    f"option {index}: {name} must be {requirement}, "
                    f"got {column[index]}")
        raise FinanceError(
            "option codes must be sign +/-1 and american 0/1, got "
            f"sign {block[6].tolist()} and american {block[7].tolist()}")


def option_arrays(options) -> OptionArrays:
    """The validated column block of ``options``.

    A sequence of :class:`Option` is gathered
    (:meth:`OptionArrays.from_options`) and validated on the way out —
    NaN/inf or non-positive spot, strike, volatility or maturity raise
    :class:`~repro.errors.FinanceError` naming the offending option
    index, so bad market data is caught before it poisons a chunk.  An
    :class:`OptionArrays` passes through unchanged and unchecked; call
    :meth:`OptionArrays.validate` where it matters (the engine checks
    every chunk it prices).
    """
    if isinstance(options, OptionArrays):
        return options
    return OptionArrays.from_options(options).validate()


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
