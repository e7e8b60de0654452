"""The ``KernelBackend`` contract: one backward-induction hot path.

The paper's speedup story is a *dataflow fusion* story: kernels IV.A
and IV.B differ only in where the leaves come from (host doubles vs
the in-device ``pow``), while the backward recurrence of Equation (1)
— spot roll, discounted expectation, American exercise-compare — is
the same pipeline in both.  This module mirrors that split in
software: leaf construction stays in :mod:`repro.core.batch_sim`
(it owns the profile's ``pow``/cast semantics), and everything below
the leaves is a :class:`KernelBackend`.

A backend receives **option-major** leaf arrays already cast into the
profile's working dtype plus the per-option Equation (1) constants,
and returns float64 prices (and, on request, the captured level-1/2
value rows that the lattice greeks formulas consume).  Because every
operation in the recurrence is elementwise with a fixed per-element
operation order, any backend that preserves that order — the NumPy
tile loop or the compiled per-option C loop — is
**bitwise identical** to every other; the ``tests/backends`` suite
holds them to ``rtol=0``.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine.workspace import Workspace

__all__ = ["KernelBackend", "RollResult"]

#: Return triple of :meth:`KernelBackend.roll_levels`:
#: ``(prices, level1, level2)`` with float64 ``prices`` of shape
#: ``(n,)`` and — when capture was requested — float64 ``level1`` of
#: shape ``(n, 2)`` and ``level2`` of shape ``(n, 3)``; ``None``
#: otherwise.
RollResult = "tuple[np.ndarray, np.ndarray | None, np.ndarray | None]"


class KernelBackend(abc.ABC):
    """One implementation of the fused backward-induction recurrence.

    Subclasses implement :meth:`roll_levels`; :meth:`leaf_payoffs` and
    :meth:`capture_levels` have shared NumPy reference implementations
    (compiled backends fuse the capture into their kernel but must
    produce values bit-identical to the reference helper).

    :cvar name: registry identifier (``"numpy"`` or ``"cnative"``).
    :cvar compiled: True when the backend runs machine code generated
        at runtime (its first use pays a compilation cost, reported
        via :attr:`compile_seconds`).
    """

    name: str = "abstract"
    compiled: bool = False

    #: Wall-clock seconds this process spent making the backend's
    #: kernels executable (codegen + compiler + load for ``cnative``;
    #: 0.0 for the interpreted NumPy path).  Flows into ``EngineStats.backend_compile_seconds``.
    compile_seconds: float = 0.0

    @classmethod
    @abc.abstractmethod
    def available(cls) -> bool:
        """Whether this backend can run in the current process."""

    @abc.abstractmethod
    def roll_levels(self, leaf_s, leaf_v, pulldown, rp, rq, strike, sign,
                    steps: int, workspace: "Workspace | None" = None,
                    capture: bool = False):
        """Run Equation (1) backward from the leaves to the root.

        Per level ``t = steps-1 .. 0`` and node ``k <= t`` the
        recurrence is, in this exact operation order::

            S'   = pulldown * S[k]
            cont = rp * V[k] + rq * V[k+1]
            intr = sign * (S' - strike)
            V[k] = cont if cont > intr else intr

        :param leaf_s: option-major ``(n, >= steps)`` leaf asset
            prices in the working dtype; only the first ``steps``
            columns are read (node ``k = steps`` never rolls — the
            first level already idles it out).
        :param leaf_v: option-major ``(n, steps + 1)`` leaf option
            values in the working dtype.
        :param pulldown: per-option spot roll factor ``1/u`` (the
            paper's ``d`` under CRR), shape ``(n,)`` or ``(n, 1)``,
            working dtype.  ``rp``/``rq`` are the discounted
            up/down probabilities, ``strike``/``sign`` the payoff
            constants, same shape and dtype.
        :param steps: tree depth ``N``.
        :param workspace: optional tile pool for scratch buffers.
        :param capture: when True, also return the level-1 and
            level-2 value rows (see :meth:`capture_levels`); requires
            ``steps >= 3``.
        :returns: ``(prices, level1, level2)`` — float64 root prices
            ``(n,)``; float64 ``(n, 2)`` / ``(n, 3)`` captured rows
            when ``capture`` else ``(prices, None, None)``.
        """

    # -- shared reference helpers ------------------------------------------

    @staticmethod
    def leaf_payoffs(leaf_s, strike, sign, cast):
        """Exercise values at the leaves: ``max(sign*(S - K), 0)``.

        The shared elementwise payoff used by kernel IV.B's in-device
        leaf initialisation (kernel IV.A's leaves already arrive as
        host-exact values).  ``strike``/``sign`` broadcast against the
        option-major ``leaf_s``; ``cast`` is the profile's rounding
        into the working precision, applied exactly once after the
        subtract-multiply — the same single rounding point as the
        device code.
        """
        payoff = cast(sign * (leaf_s - strike))
        return np.where(payoff > 0.0, payoff, cast(0.0))

    @staticmethod
    def capture_levels(levels: dict, t: int, values) -> None:
        """Record the value row of tree level ``t`` (Hull's trick).

        Called (or fused inline) by :meth:`roll_levels` right after
        level ``t``'s value update when capture is on: levels 1 and 2
        hold everything delta/gamma/theta need, so a greeks run costs
        the same single pricing pass.  ``values`` is the active slice
        of the value buffer; a *copy* is stored — the buffer is about
        to be overwritten by level ``t - 1``.
        """
        levels[t] = np.array(values, copy=True)
