"""Kernel IV.A — the "straightforward" dataflow implementation.

One work-item computes one binomial-tree *node* (Section IV.A,
Figure 3).  The whole flattened tree is enqueued every batch
(``N(N+1)/2`` interior work-items); each tree level holds a different
in-flight option, so the network behaves as an N+1-deep option
pipeline.  State lives in global ping-pong buffers that the host
switches between batches; the host writes one new option's leaves
before each batch and reads one completed option's root after it.

Flattening convention (this library): node ``(t, k)`` with ``k`` = the
number of down moves occupies slot ``t(t+1)/2 + k``, so level ``t``'s
slots are contiguous and the two children of slot ``id`` at level
``t`` sit at ``id + t + 1`` and ``id + t + 2``.  (The paper flattens
in the opposite direction — leaves first — which makes its offsets
``id + N - t`` for reads and ``id + N + 1`` for writes; the dataflow
is identical, only the slot numbering differs.)

Each pipeline slot carries three values: the asset price ``S``, the
option value ``V``, and the id of the option currently flowing through
that slot (used to look up the option's constants in the parameter
buffer).  The level-of-slot table is precomputed into a constant
buffer, exactly as the paper does for its ``t`` indexing ("Computing
time steps within the work-item would be too costly in terms of
computing resources. They are stored in a constant buffer").
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ReproError
from ..finance.lattice import (LatticeArrays, LatticeFamily,
                               build_lattice_arrays)
from ..finance.options import Option, OptionArrays, option_arrays
from ..hls import GlobalAccess, KernelIR, LiveSet, OpCount
from ..opencl import kernel_metadata

__all__ = [
    "PARAM_FIELDS",
    "interior_nodes",
    "pipeline_slots",
    "pipeline_buffer_bytes",
    "level_of_slot_table",
    "build_params_a",
    "build_leaves_a",
    "build_leaves_a_batch",
    "kernel_a_work_item",
    "kernel_a_ir",
]

#: Per-option constants the host precomputes into the parameter
#: buffer: [rp, rq, pulldown, strike, sign] — the coefficients of the
#: paper's Equation (1) plus the payoff sign (call/put).  The third
#: field is the family-correct roll factor ``1/u`` (bit-identical to
#: the paper's ``d`` under CRR, where ``u*d = 1`` by construction),
#: so the device datapath stays a single multiply for every family.
PARAM_FIELDS = ("rp", "rq", "pulldown", "strike", "sign")


def interior_nodes(n_steps: int) -> int:
    """Work-items enqueued per batch: ``N(N+1)/2`` (paper IV.A)."""
    return n_steps * (n_steps + 1) // 2


def pipeline_slots(n_steps: int) -> int:
    """Slots of one ping-pong buffer: all levels incl. leaves."""
    return (n_steps + 1) * (n_steps + 2) // 2


def pipeline_buffer_bytes(n_steps: int) -> int:
    """Bytes of one ping-pong buffer (S, V, option-id; 8 B each).

    At the paper's N=1024 this is ~12.6 MB; the paper quotes "~19 MB"
    for its layout (which also shuttles index metadata) — same order,
    recorded in EXPERIMENTS.md.
    """
    return pipeline_slots(n_steps) * 3 * 8


def level_of_slot_table(n_steps: int) -> np.ndarray:
    """Constant buffer mapping slot id -> tree level ``t``."""
    table = np.empty(pipeline_slots(n_steps), dtype=np.int32)
    slot = 0
    for t in range(n_steps + 1):
        table[slot:slot + t + 1] = t
        slot += t + 1
    return table


def build_params_a(
    options: "Sequence[Option] | OptionArrays",
    steps: int,
    family: LatticeFamily = LatticeFamily.CRR,
    lattice: "LatticeArrays | None" = None,
) -> np.ndarray:
    """Host-side parameter rows ``[rp, rq, pulldown, strike, sign]``.

    All derived constants are computed on the host in exact double
    precision (this is kernel IV.A's accuracy story: no transcendental
    runs on the device).  Array-native; validates its arguments (same
    :class:`~repro.errors.ReproError` messages as the simulators)
    before anything is allocated.
    ``options`` may be :class:`~repro.finance.Option` objects or their
    :class:`~repro.finance.OptionArrays` block; ``lattice`` is their
    prebuilt :func:`~repro.finance.lattice.build_lattice_arrays` result
    when the caller already has it (built here otherwise).
    """
    if steps < 2:
        raise ReproError("kernel IV.A needs at least 2 steps")
    if not options:
        raise ReproError("empty option batch")
    fields = option_arrays(options)
    if lattice is None:
        lattice = build_lattice_arrays(fields, steps, family)
    rows = np.empty((len(options), len(PARAM_FIELDS)), dtype=np.float64)
    rows[:, 0] = lattice.discounted_p_up
    rows[:, 1] = lattice.discounted_p_down
    rows[:, 2] = lattice.pulldown
    rows[:, 3] = fields.strike
    rows[:, 4] = fields.sign
    return rows


def build_leaves_a_batch(
    options: "Sequence[Option] | OptionArrays",
    steps: int,
    family: LatticeFamily = LatticeFamily.CRR,
    lattice: "LatticeArrays | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Host-computed leaf matrices ``(S[N], V[N])`` for a whole batch.

    Row ``i`` holds option ``i``'s ``steps + 1`` leaves; both matrices
    are built with a single broadcast expression, no per-option loop.
    ``options``/``lattice`` as for :func:`build_params_a`.
    """
    fields = option_arrays(options)
    if lattice is None:
        lattice = build_lattice_arrays(fields, steps, family)
    k = np.arange(steps + 1, dtype=np.float64)
    prices = (
        fields.spot[:, None]
        * lattice.up[:, None] ** (steps - k)[None, :]
        * lattice.down[:, None] ** k[None, :]
    )
    values = np.maximum(
        fields.sign[:, None] * (prices - fields.strike[:, None]), 0.0
    )
    return prices, values


def build_leaves_a(
    option: Option,
    steps: int,
    family: LatticeFamily = LatticeFamily.CRR,
) -> tuple[np.ndarray, np.ndarray]:
    """Host-computed leaf rows ``(S[N,k], V[N,k])`` for one option.

    "The tree leaves are computed by the host and then transferred to
    the device" (paper Section V.C) — which is why kernel IV.A never
    touches the flawed device ``pow``.  Delegates to
    :func:`build_leaves_a_batch` so the single-option and batched
    paths are bit-identical by construction.
    """
    prices, values = build_leaves_a_batch([option], steps, family)
    return prices[0], values[0]


@kernel_metadata(work_per_item=lambda global_size, local_size: 1.0)
def kernel_a_work_item(wi, src_s, src_v, src_oid, dst_s, dst_v, dst_oid,
                       level_of_slot, params):
    """One tree-node update (Equation 1) reading the ping buffer.

    Arguments (all global memory, as in the paper's Figure 3):

    :param src_s / src_v / src_oid: the buffer being read this batch.
    :param dst_s / dst_v / dst_oid: the buffer being written.
    :param level_of_slot: constant slot->level table.
    :param params: per-option constants, rows of :data:`PARAM_FIELDS`.
    """
    slot = wi.get_global_id()
    t = int(level_of_slot[slot])

    child_up = slot + t + 1  # (t+1, k): one more step, same down-count
    child_dn = slot + t + 2  # (t+1, k+1)

    oid = int(src_oid[child_up])
    if oid < 0:
        # No option occupies this pipeline stage yet (pipe still filling):
        # propagate the empty marker.
        dst_oid[slot] = -1.0
        dst_s[slot] = 0.0
        dst_v[slot] = 0.0
        return

    rp = params[oid, 0]
    rq = params[oid, 1]
    pulldown = params[oid, 2]
    strike = params[oid, 3]
    sign = params[oid, 4]

    # S[t,k] = S[t+1,k] / u for every family (host precomputes 1/u);
    # the paper's Equation (1) form d * S[t+1,k] is the CRR special case.
    s = pulldown * src_s[child_up]
    continuation = rp * src_v[child_up] + rq * src_v[child_dn]
    intrinsic = sign * (s - strike)
    value = continuation if continuation > intrinsic else intrinsic

    dst_s[slot] = s
    dst_v[slot] = value
    dst_oid[slot] = float(oid)


def kernel_a_ir(precision: str = "dp") -> KernelIR:
    """Structural IR of kernel IV.A for the HLS compiler model.

    Operator census of the datapath above: three multiplies (``d*S``,
    ``rp*V``, ``rq*V``), one add, one subtract, one max, and integer
    slot/child address arithmetic.  Memory interface: five coalesced
    load units (level table, S, the two V reads, parameters) and two
    coalesced store units (S+id packed, V) per compute unit — the
    shallow-FIFO/coalescing M9K usage the paper describes for this
    kernel in Section V.B.

    :param precision: ``"dp"`` (the paper's configuration) or ``"sp"``.
    """
    width = 8 if precision == "dp" else 4
    if precision == "dp":
        live = LiveSet(f64_values=8, i32_values=4)
    else:
        live = LiveSet(f32_values=8, i32_values=4)
    return KernelIR(
        name="binomial_node_iv_a",
        precision=precision,
        init_ops=(
            OpCount("int_add", 3),
            OpCount("int_mul", 2),
            OpCount("mul", 3),
            OpCount("add", 1),
            OpCount("sub", 1),
            OpCount("max", 1),
        ),
        body_ops=(),
        global_accesses=(
            GlobalAccess("load", width_bytes=8, coalesced=True),      # level table
            GlobalAccess("load", width_bytes=width, coalesced=True),  # S child
            GlobalAccess("load", width_bytes=width, coalesced=True),  # V up
            GlobalAccess("load", width_bytes=width, coalesced=True),  # V down
            GlobalAccess("load", width_bytes=width, coalesced=True),  # params
            GlobalAccess("store", width_bytes=width, coalesced=True),  # S + oid
            GlobalAccess("store", width_bytes=width, coalesced=True),  # V
        ),
        local_memory=(),
        live=live,
        uses_barriers=False,
        work_group_size=256,
    )
