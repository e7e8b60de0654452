"""Work decomposition for the batched pricing engine.

The engine's scheduling model mirrors the paper's kernel IV.B: the
device prices one option per work-group and keeps a bounded number of
work-groups resident, so host-side throughput comes from feeding it
*tiles* of options rather than one giant buffer.  Here the "compute
units" are the engine's pricing threads and the "resident work-group
set" is the workspace tile a thread prices one chunk in:

1. **Group** the incoming stream by ``(steps, family, profile)`` so
   heterogeneous requests still vectorise — every chunk is internally
   homogeneous and runs the wide numpy path.
2. **Chunk** each group into tiles whose workspace footprint fits a
   cache/memory budget (``kernel_tile_bytes``); a tile that fits in
   the last-level cache keeps the ~1000-iteration backward loop out
   of DRAM.
3. **Dispatch** chunks over the engine's threads (or inline for
   ``workers=1``) and scatter results back into input order.

Everything here is deliberately free of policy: the
:class:`~repro.engine.engine.PricingEngine` owns configuration and
statistics, this module owns the mechanics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace
from typing import Sequence

import numpy as np

from ..core.batch_sim import simulate_kernel_a_batch, simulate_kernel_b_batch
from ..core.faithful_math import get_profile
from ..errors import ReproError
from ..finance.binomial import price_binomial
from ..finance.greeks import greeks_from_levels, tree_value_levels
from ..finance.lattice import LatticeFamily, build_lattice_arrays
from ..finance.options import Option, option_arrays
from .workspace import Workspace, kernel_tile_bytes

__all__ = ["Chunk", "KERNELS", "TASKS", "chunk_width",
           "greeks_fused_chunk", "group_stream", "plan_chunks",
           "price_chunk", "split_chunk"]

#: Kernels the engine can schedule: the two paper accelerators plus
#: the reference software pricer (per-option backward induction).
KERNELS = ("iv_a", "iv_b", "reference")

#: Work a chunk can carry: ``"price"`` produces one root value per
#: option; ``"greeks_fused"`` produces the full ``[price, delta,
#: gamma, theta, vega, rho]`` rows from one call that prices the base
#: contracts and all four bump variants through a single simulate
#: (lattice params and leaves built once, 5x-wide shared tile).
TASKS = ("price", "greeks_fused")


def chunk_width(task: str) -> int:
    """Contract variants (workspace rows) one option of ``task`` prices.

    The fused greeks task prices five contract variants per option in
    one simulate call, so its tiles are five rows wide per option; the
    planner divides its byte budget by this factor so the fused path
    honours the same cache budget as everything else, and the engine
    counts every variant as one tree pricing.
    """
    return 5 if task == "greeks_fused" else 1


@dataclass(frozen=True)
class Chunk:
    """One homogeneous tile of work, ready for a single pricing call.

    :param indices: positions of these options in the caller's stream
        (used to scatter prices back into input order).
    :param options: the contracts, aligned with ``indices``.
    :param steps: tree depth shared by every option in the tile.
    :param task: what the chunk computes — one of :data:`TASKS`.
    :param group: label of the scheduling group this chunk belongs to
        (empty for plain pricing runs, ``"fused"`` for greeks runs);
        it names the chunk's group span.
    :param bump_vol: volatility bump of the fused greeks task (the
        task builds the vega variants itself; 0 for other tasks).
    :param bump_rate: rate bump of the fused greeks task.
    """

    indices: tuple[int, ...]
    options: tuple[Option, ...]
    steps: int
    task: str = "price"
    group: str = ""
    bump_vol: float = 0.0
    bump_rate: float = 0.0

    def __len__(self) -> int:
        return len(self.options)


def group_stream(
    options: Sequence[Option],
    steps: "int | Sequence[int]",
) -> "dict[int, tuple[list[int], list[Option]]]":
    """Partition a request stream into vectorisable groups.

    ``steps`` is either one depth for the whole stream or one per
    option; the returned mapping is ``steps -> (indices, options)``
    with indices in ascending input order (so chunking preserves
    locality and results scatter back deterministically).
    """
    options = list(options)
    if not options:
        raise ReproError("empty option batch")
    if np.ndim(steps) == 0:
        per_option = [int(steps)] * len(options)
    else:
        per_option = [int(s) for s in steps]
        if len(per_option) != len(options):
            raise ReproError(
                f"per-option steps length {len(per_option)} does not match "
                f"batch size {len(options)}"
            )
    groups: dict[int, tuple[list[int], list[Option]]] = {}
    for index, (option, n) in enumerate(zip(options, per_option)):
        indices, members = groups.setdefault(n, ([], []))
        indices.append(index)
        members.append(option)
    return groups


def plan_chunks(
    indices: Sequence[int],
    options: Sequence[Option],
    steps: int,
    dtype,
    chunk_options: "int | None",
    tile_budget_bytes: int,
    min_chunk_options: int,
    workers: int,
    task: str = "price",
    group: str = "",
    width: int = 1,
    bump_vol: float = 0.0,
    bump_rate: float = 0.0,
) -> "list[Chunk]":
    """Shard one homogeneous group into workspace-sized tiles.

    Tile rows are chosen so one thread's S/V/scratch footprint stays
    within ``tile_budget_bytes`` (unless ``chunk_options`` pins the
    size explicitly), never below ``min_chunk_options`` rows, and —
    when fanning out — small enough that every thread gets work.
    ``width`` scales the per-option footprint estimate (see
    :func:`chunk_width` — the fused greeks task prices five variants
    per option in one tile).  ``task``/``group``/``bump_*`` are
    stamped onto every chunk unchanged.
    """
    total = len(options)
    if chunk_options is not None:
        rows = max(1, int(chunk_options))
    else:
        per_row = kernel_tile_bytes(1, steps, dtype) * max(1, width)
        rows = max(min_chunk_options, tile_budget_bytes // per_row)
        if workers > 1:
            rows = min(rows, math.ceil(total / workers))
        rows = max(1, rows)
    return [
        Chunk(
            indices=tuple(indices[lo:lo + rows]),
            options=tuple(options[lo:lo + rows]),
            steps=steps,
            task=task,
            group=group,
            bump_vol=bump_vol,
            bump_rate=bump_rate,
        )
        for lo in range(0, total, rows)
    ]


def split_chunk(chunk: Chunk) -> "tuple[Chunk, ...]":
    """Halve a chunk for quarantine bisection.

    A chunk that keeps failing after retries is split and each half
    retried independently, until single failing options are isolated;
    a one-option chunk cannot split further.
    """
    if len(chunk) <= 1:
        return (chunk,)
    mid = len(chunk) // 2
    return (
        dc_replace(chunk, indices=chunk.indices[:mid],
                   options=chunk.options[:mid]),
        dc_replace(chunk, indices=chunk.indices[mid:],
                   options=chunk.options[mid:]),
    )


# -- pricing one chunk -----------------------------------------------------


def greeks_fused_chunk(
    kernel: str,
    options: Sequence[Option],
    steps: int,
    profile,
    family: LatticeFamily,
    bump_vol: float,
    bump_rate: float,
    workspace: "Workspace | None" = None,
    backend=None,
) -> np.ndarray:
    """The full greeks set of one chunk from a single call.

    Returns ``(n, 6)`` float64 rows
    ``[price, delta, gamma, theta, vega, rho]``.  The task concatenates
    five variant sets — base, vol +/-``bump_vol`` (the down bump
    floored at 1e-8), rate +/-``bump_rate`` — into *one* simulate call
    sharing one 5x-wide workspace tile.  The kernel simulators run
    with ``capture_levels=True``: the value rows of tree levels 1 and
    2 are copied out of the same backward loop that produces the
    price, and :func:`repro.finance.greeks.greeks_from_levels` turns
    the base columns into delta/gamma/theta (the reference kernel
    walks :func:`repro.finance.greeks.tree_value_levels` per option,
    the loop-based twin of the same capture).  vega/rho are the
    central differences of the bump columns.

    The backward roll is columnwise-independent, so column ``p*n + i``
    of the fused tile prices variant ``p`` of option ``i`` bit for bit
    as a plain ``price`` chunk of that variant set would.
    """
    options = list(options)
    n = len(options)
    floor = 1e-8  # keep the down-bumped volatility positive
    variants = (
        options
        + [o.with_volatility(o.volatility + bump_vol) for o in options]
        + [o.with_volatility(max(o.volatility - bump_vol, floor))
           for o in options]
        + [dc_replace(o, rate=o.rate + bump_rate) for o in options]
        + [dc_replace(o, rate=o.rate - bump_rate) for o in options]
    )
    if kernel in ("iv_a", "iv_b"):
        simulate = (simulate_kernel_a_batch if kernel == "iv_a"
                    else simulate_kernel_b_batch)
        prices, level1, level2 = simulate(
            variants, steps, profile, family, workspace=workspace,
            capture_levels=True, backend=backend)
        fields = option_arrays(options)
        lattice = build_lattice_arrays(options, steps, family)
        delta, gamma, theta = greeks_from_levels(
            fields.spot, lattice.up, lattice.down, lattice.dt,
            prices[:n], level1[:n], level2[:n])
    elif kernel == "reference":
        prices = np.empty(5 * n, dtype=np.float64)
        delta = np.empty(n, dtype=np.float64)
        gamma = np.empty(n, dtype=np.float64)
        theta = np.empty(n, dtype=np.float64)
        for i, option in enumerate(variants):
            price, level1, level2, params = tree_value_levels(
                option, steps, family)
            prices[i] = price
            if i < n:
                delta[i], gamma[i], theta[i] = greeks_from_levels(
                    option.spot, params.up, params.down, params.dt,
                    price, level1, level2)
    else:
        raise ReproError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    vega = (prices[n:2 * n] - prices[2 * n:3 * n]) / (2.0 * bump_vol)
    rho = (prices[3 * n:4 * n] - prices[4 * n:5 * n]) / (2.0 * bump_rate)
    return np.column_stack((prices[:n], delta, gamma, theta, vega, rho))


def price_chunk(
    kernel: str,
    options: Sequence[Option],
    steps: int,
    profile_name,
    family_value: str,
    indices: "Sequence[int] | None" = None,
    faults=None,
    attempt: int = 0,
    in_pool: bool = True,
    workspace: "Workspace | None" = None,
    task: str = "price",
    backend=None,
    bump_vol: float = 0.0,
    bump_rate: float = 0.0,
) -> np.ndarray:
    """Price one chunk; the unit of work of one pricing thread.

    ``profile_name`` is a :class:`~repro.core.faithful_math.MathProfile`
    or its name, ``family_value`` a lattice family's enum value, and
    ``backend`` a resolved :class:`~repro.backends.KernelBackend` (or
    ``None`` for the NumPy default).  ``workspace`` is the calling
    thread's own tile pool; ``None`` lets the simulator allocate one.
    ``in_pool`` is accepted for compatibility and ignored: every chunk
    runs in the engine's own process.

    ``indices``/``faults``/``attempt`` thread the engine's
    deterministic fault-injection plan (see
    :mod:`repro.engine.faults`) through to the chunk: faults keyed to
    an option index fire in whichever chunk carries that option, while
    ``attempt < spec.attempts`` — a pure function of the arguments, so
    the same plan replays identically across threads and retries.

    ``task="greeks_fused"`` routes to :func:`greeks_fused_chunk`
    (which consumes ``bump_vol``/``bump_rate``) and returns ``(n, 6)``
    rows instead of a price vector; every other mechanism (faults,
    retries, workspace reuse) is identical.
    """
    profile = (get_profile(profile_name) if isinstance(profile_name, str)
               else profile_name)
    family = LatticeFamily(family_value)
    if task not in TASKS:
        raise ReproError(f"task must be one of {TASKS}, got {task!r}")
    if faults is not None and indices is not None:
        faults.fire_before_pricing(indices, attempt)
    if task == "greeks_fused":
        rows = greeks_fused_chunk(kernel, options, steps, profile, family,
                                  bump_vol, bump_rate, workspace=workspace,
                                  backend=backend)
        if faults is not None and indices is not None:
            rows = faults.corrupt_prices(indices, attempt, rows)
        return rows
    if kernel == "iv_b":
        prices = simulate_kernel_b_batch(options, steps, profile, family,
                                         workspace=workspace, backend=backend)
    elif kernel == "iv_a":
        prices = simulate_kernel_a_batch(options, steps, profile, family,
                                         workspace=workspace, backend=backend)
    elif kernel == "reference":
        prices = np.array(
            [price_binomial(o, steps, family, dtype=profile.dtype).price
             for o in options],
            dtype=np.float64,
        )
    else:
        raise ReproError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    if faults is not None and indices is not None:
        prices = faults.corrupt_prices(indices, attempt, prices)
    return prices
