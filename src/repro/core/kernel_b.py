"""Kernel IV.B — the optimized work-group implementation.

Task parallelism (Section IV.B, Figure 4): one work-*group* prices one
option (a full binomial tree); work-item ``k`` owns tree row ``k``
(all nodes ``(t, k)`` with ``k`` constant).  The asset price ``S`` and
the option constants live in *private* memory; the shared value row
``V`` lives in *local* memory guarded by barriers, with a
register-held temporary between the read and write phases so that no
work-item overwrites a neighbour's operand (the paper's
"temporary copies to avoid memory conflicts").

Leaves are initialised in-device — work-item ``k`` evaluates
``S[N,k] = S0 * u**(N - 2k)`` with the device ``pow`` operator, which
is exactly where the Altera 13.0 accuracy defect enters on the FPGA
(Section V.C).  Work-items whose row is exhausted (``k > t``) idle
through the remaining iterations but keep hitting the barriers, as the
OpenCL work-group model requires ("the corresponding work-item is
either left idle or its results are ignored").

Host interaction collapses to three commands: write the parameter
buffer, enqueue ``N x Nop`` work-items, read the result buffer.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ReproError
from ..finance.lattice import (LatticeArrays, LatticeFamily,
                               build_lattice_arrays)
from ..finance.options import Option, OptionArrays, option_arrays
from ..hls import (
    GlobalAccess,
    KernelIR,
    LiveSet,
    LocalMemSystem,
    OpCount,
)
from ..opencl import kernel_metadata
from .faithful_math import EXACT_DOUBLE, MathProfile

__all__ = ["PARAM_FIELDS_B", "build_params_b", "make_kernel_b", "kernel_b_ir"]

#: Per-option constants the host writes to global memory:
#: [s0, up, down, rp, rq, strike, sign].  Derived quantities (u, d,
#: rp, rq) are precomputed exactly on the host; only the leaf ``pow``
#: runs on the device, matching the paper's error analysis.
PARAM_FIELDS_B = ("s0", "up", "down", "rp", "rq", "strike", "sign")


def build_params_b(
    options: "Sequence[Option] | OptionArrays",
    steps: int,
    family: LatticeFamily = LatticeFamily.CRR,
    lattice: "LatticeArrays | None" = None,
) -> np.ndarray:
    """Host-side parameter rows of :data:`PARAM_FIELDS_B`.

    Array-native: the per-option tree constants come from one
    vectorised :func:`~repro.finance.lattice.build_lattice_arrays`
    call, so no Python loop runs over the batch.  Arguments are
    validated (same :class:`~repro.errors.ReproError` messages as the
    simulators) before anything is allocated.  Non-CRR families are
    rejected here: the in-device leaf expression ``s0 * u**(N-2k)``
    and the ``d * S`` roll both assume the CRR recombination
    ``u*d = 1``, so this kernel models the paper's CRR-only hardware.
    ``options`` may be :class:`~repro.finance.Option` objects or their
    :class:`~repro.finance.OptionArrays` block; ``lattice`` is their
    prebuilt :func:`~repro.finance.lattice.build_lattice_arrays` result
    when the caller already has it (built here otherwise).
    """
    if steps < 2:
        raise ReproError("kernel IV.B needs at least 2 steps")
    if not options:
        raise ReproError("empty option batch")
    if family is not LatticeFamily.CRR:
        raise ReproError(
            "kernel IV.B initialises leaves as s0 * u**(N-2k), which "
            "exploits the CRR recombination u*d = 1 (paper Figure 1); "
            "use kernel IV.A (host-computed leaves) for other families"
        )
    fields = option_arrays(options)
    if lattice is None:
        lattice = build_lattice_arrays(fields, steps, family)
    rows = np.empty((len(options), len(PARAM_FIELDS_B)), dtype=np.float64)
    rows[:, 0] = fields.spot
    rows[:, 1] = lattice.up
    rows[:, 2] = lattice.down
    rows[:, 3] = lattice.discounted_p_up
    rows[:, 4] = lattice.discounted_p_down
    rows[:, 5] = fields.strike
    rows[:, 6] = fields.sign
    return rows


def make_kernel_b(n_steps: int, profile: MathProfile = EXACT_DOUBLE):
    """Build the kernel IV.B work-item function for ``n_steps``.

    The returned generator function expects arguments
    ``(params, results, v_row)`` where ``params`` is the per-option
    constant buffer (one row per work-group), ``results`` the output
    buffer (one value per work-group) and ``v_row`` a
    :class:`~repro.opencl.memory.LocalMemory` of ``n_steps + 1``
    elements.

    The work-group size must equal ``n_steps`` (one work-item per
    interior row; the last work-item also initialises the extra leaf).
    """

    pow_ = profile.pow_
    cast = profile.cast

    @kernel_metadata(work_per_item=lambda global_size, local_size: float(n_steps))
    def kernel_b_work_item(wi, params, results, v_row):
        k = wi.get_local_id()
        group = wi.get_group_id()

        # -- private memory: option constants and the row's asset price
        s0 = cast(params[group, 0])
        up = cast(params[group, 1])
        down = cast(params[group, 2])
        rp = cast(params[group, 3])
        rq = cast(params[group, 4])
        strike = cast(params[group, 5])
        sign = cast(params[group, 6])

        # -- leaf initialisation (device-side pow: the flawed operator)
        s = cast(s0 * pow_(up, n_steps - 2 * k))
        payoff = cast(sign * (s - strike))
        v_row[k] = payoff if payoff > 0.0 else 0.0
        if k == n_steps - 1:
            # one more leaf than work-items: the last row also fills it
            s_last = cast(s0 * pow_(up, -n_steps))
            payoff_last = cast(sign * (s_last - strike))
            v_row[n_steps] = payoff_last if payoff_last > 0.0 else 0.0
        yield wi.barrier()

        # -- backward induction over time steps
        for t in range(n_steps - 1, -1, -1):
            value = 0.0
            active = k <= t
            if active:
                # Equation (1): S[t,k] = d * S[t+1,k].  Valid because this
                # kernel is CRR-only (build_params_b rejects other
                # families): under CRR d = 1/u, so rolling by d IS the
                # family-correct S[t+1,k] / u.
                s = cast(down * s)
                continuation = cast(cast(rp * v_row[k]) + cast(rq * v_row[k + 1]))
                intrinsic = cast(sign * (s - strike))
                value = continuation if continuation > intrinsic else intrinsic
            yield wi.barrier()  # everyone finished reading the shared row
            if active:
                v_row[k] = value
            yield wi.barrier()  # row updated before the next iteration

        if k == 0:
            results[group] = v_row[0]

    return kernel_b_work_item


def kernel_b_ir(n_steps: int = 1024, work_group_size: int | None = None,
                precision: str = "dp") -> KernelIR:
    """Structural IR of kernel IV.B for the HLS compiler model.

    Init segment: the leaf path — one ``pow``, the payoff
    multiply/subtract/max and index arithmetic.  Body segment (the
    backward time loop, the part ``#pragma unroll`` replicates): three
    multiplies, one add, one subtract, one max, plus the activity
    compare.  Memory interface: two *simple* (non-coalesced) LSUs for
    the one-shot parameter read and result write; the dominant memory
    consumer is the local-memory system holding the shared value row
    (plus its conflict-avoidance temporary) for every resident
    work-group — the paper's "kernel IV.B implements its local memory
    as M9K blocks".

    :param precision: ``"dp"`` (the paper's configuration) or ``"sp"``
        for the single-precision variant the related work alludes to
        ("restrictions on accuracy are ... alleviated (fixed precision
        implementations)"); single precision halves the element width
        and swaps in the much smaller fp32 operators.
    """
    wg = work_group_size or n_steps
    width = 8 if precision == "dp" else 4
    # V row of wg+1 elements plus the half-row temporary the barrier
    # scheme keeps in flight.
    local_bytes = int((wg + 1) * width * 1.5)
    if precision == "dp":
        live = LiveSet(f64_values=7, i32_values=2)
        live_init = LiveSet(f64_values=5, i32_values=2)
    else:
        live = LiveSet(f32_values=7, i32_values=2)
        live_init = LiveSet(f32_values=5, i32_values=2)
    return KernelIR(
        name="binomial_tree_iv_b",
        precision=precision,
        init_ops=(
            OpCount("int_add", 2),
            OpCount("int_mul", 1),
            OpCount("pow", 1),
            OpCount("mul", 1),
            OpCount("sub", 1),
            OpCount("max", 1),
        ),
        body_ops=(
            OpCount("int_cmp", 1),
            OpCount("mul", 3),
            OpCount("add", 1),
            OpCount("sub", 1),
            OpCount("max", 1),
        ),
        global_accesses=(
            GlobalAccess("load", width_bytes=width, coalesced=False),   # params
            GlobalAccess("store", width_bytes=width, coalesced=False),  # result
        ),
        local_memory=(
            LocalMemSystem(
                bytes_per_group=local_bytes,
                read_ports=2,
                write_ports=1,
                # Work-groups the runtime keeps resident to hide the
                # barrier turnaround; pinned against Table I's M9K
                # budget for this kernel.
                resident_groups=28,
            ),
        ),
        live=live,
        # Leaf path keeps only s0/u/strike/sign and the pow intermediate
        # in flight.
        live_init=live_init,
        uses_barriers=True,
        work_group_size=wg,
    )
