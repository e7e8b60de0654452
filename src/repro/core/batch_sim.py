"""Vectorised execution of the kernels' exact arithmetic.

The coroutine-based simulator in :mod:`repro.core.host_b` is faithful
but interprets every work-item in Python, which caps it at small trees.
The paper's accuracy results need the full configuration — N=1024 over
thousands of options — so this module re-expresses the *same operation
sequence* as array programs:

* :func:`simulate_kernel_b_batch` — kernel IV.B semantics: in-device
  leaf initialisation through the profile's ``pow`` (the flawed
  operator on the FPGA profile), then the barriered backward loop.
* :func:`simulate_kernel_a_batch` — kernel IV.A semantics: leaves from
  exact host doubles, the same Equation (1) recurrence on device.

Integration tests assert bit-for-bit agreement with the coroutine
executor at small N for every math profile, which is what licenses
using these fast paths in the accuracy experiments.

Leaf construction stays here (it owns the profile's ``pow``/``cast``
semantics — the whole point of kernel IV.B); everything below the
leaves runs through a :class:`~repro.backends.KernelBackend`.  The
default backend is the NumPy reference path, which performs the exact
historical operation sequence in preallocated
:class:`~repro.engine.workspace.Workspace` tiles; the compiled backend
(``cnative``) is bit-identical by contract and verified by
``tests/backends``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import ReproError
from ..finance.lattice import (LatticeArrays, LatticeFamily,
                               build_lattice_arrays)
from ..finance.options import Option, OptionArrays, option_arrays
from .faithful_math import EXACT_DOUBLE, MathProfile
from .kernel_a import build_leaves_a_batch, build_params_a
from .kernel_b import build_params_b

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> core)
    from ..backends import KernelBackend
    from ..engine.workspace import Workspace

__all__ = [
    "simulate_kernel_b_batch",
    "simulate_kernel_a_batch",
    "leaf_exponents_b",
]


@lru_cache(maxsize=128)
def leaf_exponents_b(steps: int) -> np.ndarray:
    """Kernel IV.B's leaf exponents ``N - 2k`` for ``k = 0..N``.

    ``k = N`` is the extra leaf the last work-item initialises
    (exponent ``-N``).  Built once per ``steps`` value with ``arange``
    — the exponents are shared by every chunk of a batch stream, so
    they are hoisted out of the per-chunk path and cached read-only.
    """
    exponents = float(steps) - 2.0 * np.arange(steps + 1, dtype=np.float64)
    exponents.setflags(write=False)
    return exponents


def _roll_backend(backend: "KernelBackend | None") -> "KernelBackend":
    """Default to the NumPy reference path when no backend is pinned.

    Direct callers of the simulators (accuracy experiments, the bench
    baselines) therefore keep today's behaviour exactly; the engine
    passes its resolved backend explicitly.
    """
    if backend is not None:
        return backend
    from ..backends import get_backend

    return get_backend("numpy")


def simulate_kernel_b_batch(
    options: "Sequence[Option] | OptionArrays",
    steps: int,
    profile: MathProfile = EXACT_DOUBLE,
    family: LatticeFamily = LatticeFamily.CRR,
    workspace: "Workspace | None" = None,
    capture_levels: bool = False,
    backend: "KernelBackend | None" = None,
    lattice: "LatticeArrays | None" = None,
) -> np.ndarray:
    """Kernel IV.B arithmetic, vectorised across the whole batch.

    Matrix layout: row = option (work-group), column = tree row
    (work-item).  The backward loop narrows the active column range
    exactly as work-items ``k > t`` idle out in the kernel.

    :param options: a sequence of :class:`~repro.finance.Option` or
        their :class:`~repro.finance.OptionArrays` column block (the
        engine's form; gathered once either way).
    :param workspace: optional preallocated tile pool; pass the same
        one across calls (e.g. per engine worker) to price a stream of
        chunks without reallocating the ``S``/``V`` tiles.
    :param capture_levels: when True, return
        ``(prices, level1, level2)`` where ``level1``/``level2`` are
        float64 ``(n, 2)``/``(n, 3)`` copies of the value rows at tree
        levels 1 and 2 — the inputs of the lattice delta/gamma/theta
        formulas, captured from the *same* pricing pass.  Requires
        ``steps >= 3``.
    :param backend: the :class:`~repro.backends.KernelBackend` to run
        the backward roll on; ``None`` pins the NumPy reference path.
    :param lattice: the options' prebuilt
        :func:`~repro.finance.lattice.build_lattice_arrays` result, when
        the caller needs it too (the fused greeks task); built here
        otherwise.
    """
    if steps < 2:
        raise ReproError("kernel IV.B needs at least 2 steps")
    if capture_levels and steps < 3:
        raise ReproError("level capture needs at least 3 steps")
    if not options:
        raise ReproError("empty option batch")
    if family is not LatticeFamily.CRR:
        raise ReproError(
            "kernel IV.B initialises leaves as s0 * u**(N-2k), which "
            "exploits the CRR recombination u*d = 1 (paper Figure 1); "
            "use kernel IV.A (host-computed leaves) for other families"
        )
    backend = _roll_backend(backend)
    params = build_params_b(option_arrays(options), steps, family,
                            lattice=lattice)
    cast = profile.cast

    s0 = cast(params[:, 0:1])
    up = params[:, 1:2]
    down = cast(params[:, 2:3])
    rp = cast(params[:, 3:4])
    rq = cast(params[:, 4:5])
    strike = cast(params[:, 5:6])
    sign = cast(params[:, 6:7])

    # Leaf initialisation: S[N,k] = s0 * pow(u, N - 2k), device pow.
    exponents = leaf_exponents_b(steps)
    leaf_s = cast(s0 * profile.pow_(up, exponents[None, :]))
    leaf_v = backend.leaf_payoffs(leaf_s, strike, sign, cast)

    prices, level1, level2 = backend.roll_levels(
        leaf_s, leaf_v, down, rp, rq, strike, sign, steps,
        workspace=workspace, capture=capture_levels)
    if capture_levels:
        return prices, level1, level2
    return prices


def simulate_kernel_a_batch(
    options: "Sequence[Option] | OptionArrays",
    steps: int,
    profile: MathProfile = EXACT_DOUBLE,
    family: LatticeFamily = LatticeFamily.CRR,
    workspace: "Workspace | None" = None,
    capture_levels: bool = False,
    backend: "KernelBackend | None" = None,
    lattice: "LatticeArrays | None" = None,
) -> np.ndarray:
    """Kernel IV.A arithmetic, vectorised across the batch.

    Leaves come from exact host doubles (cast into the device's
    working precision on upload); each batch applies Equation (1) to
    one level.  Option pipelining does not change the arithmetic, so
    the vectorised form prices each option's tree directly.

    :param options: contracts or their column block (see
        :func:`simulate_kernel_b_batch`).
    :param workspace: optional preallocated tile pool (see
        :func:`simulate_kernel_b_batch`).
    :param capture_levels: when True, return
        ``(prices, level1, level2)`` — see
        :func:`simulate_kernel_b_batch`; requires ``steps >= 3``.
    :param backend: the :class:`~repro.backends.KernelBackend` to run
        the backward roll on; ``None`` pins the NumPy reference path.
    :param lattice: prebuilt lattice arrays (see
        :func:`simulate_kernel_b_batch`); one build serves both the
        parameter rows and the leaves.
    """
    if steps < 2:
        raise ReproError("kernel IV.A needs at least 2 steps")
    if capture_levels and steps < 3:
        raise ReproError("level capture needs at least 3 steps")
    if not options:
        raise ReproError("empty option batch")
    backend = _roll_backend(backend)
    options = option_arrays(options)
    if lattice is None:
        lattice = build_lattice_arrays(options, steps, family)
    params = build_params_a(options, steps, family, lattice=lattice)
    cast = profile.cast

    rp = cast(params[:, 0:1])
    rq = cast(params[:, 1:2])
    pulldown = cast(params[:, 2:3])
    strike = cast(params[:, 3:4])
    sign = cast(params[:, 4:5])

    # Host-exact leaves (S and V), cast into the device's working
    # precision when "uploaded".
    leaf_s, leaf_v = build_leaves_a_batch(options, steps, family,
                                          lattice=lattice)
    prices, level1, level2 = backend.roll_levels(
        cast(leaf_s), cast(leaf_v), pulldown, rp, rq, strike, sign, steps,
        workspace=workspace, capture=capture_levels)
    if capture_levels:
        return prices, level1, level2
    return prices
