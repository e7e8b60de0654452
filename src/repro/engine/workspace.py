"""Reusable tile buffers for the backward-induction hot loop.

Pricing one chunk of ``rows`` options at depth ``N`` needs a handful
of ``rows x (N+1)`` matrices (the asset-price tile ``S``, the value
tile ``V`` and a few scratch operands).  Allocating them afresh for
every chunk — which is what a naive numpy program does implicitly on
every ``a * b`` expression, ~4 temporaries per backward step, ~4 000
allocations per option batch at N=1024 — costs both allocator time
and cache locality.  A :class:`Workspace` keeps one growable flat
buffer per tile name and hands out exactly-shaped views, so a long
stream of equally-shaped chunks runs allocation-free after the first.

This module deliberately imports nothing from the rest of the
library; it is the lowest layer of the execution engine and is also
used by :mod:`repro.core.batch_sim`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Workspace", "kernel_tile_bytes"]

#: Tile names each kernel's backward loop leases, used for footprint
#: accounting: S, its double-buffer twin, the value row, two arithmetic
#: scratch operands (continuation / intrinsic) and the exercise mask.
_FLOAT_TILES_PER_KERNEL = 5
_BOOL_TILES_PER_KERNEL = 1


class Workspace:
    """A named pool of preallocated, growable array tiles.

    ``tile(name, shape, dtype)`` returns a C-contiguous array of
    exactly ``shape`` backed by a cached flat buffer.  The buffer is
    reallocated only when a request outgrows its current capacity (or
    changes dtype), so repeated leases for the same or smaller shapes
    are free.  Contents are *not* zeroed between leases — callers own
    full initialisation, exactly like device global memory.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._peak_bytes = 0

    def tile(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Lease the tile ``name`` with exactly ``shape`` elements."""
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.dtype != dtype or buf.size < count:
            buf = np.empty(count, dtype=dtype)
            self._buffers[name] = buf
            self._peak_bytes = max(self._peak_bytes, self.nbytes)
        return buf[:count].reshape(shape)

    @property
    def nbytes(self) -> int:
        """Bytes currently held across all tiles."""
        return sum(buf.nbytes for buf in self._buffers.values())

    @property
    def peak_bytes(self) -> int:
        """High-water mark of :attr:`nbytes` over the workspace's life."""
        return max(self._peak_bytes, self.nbytes)

    def release(self) -> None:
        """Drop every buffer (keeps the peak-bytes statistic)."""
        self._peak_bytes = self.peak_bytes
        self._buffers.clear()


def kernel_tile_bytes(rows: int, steps: int, dtype) -> int:
    """Workspace footprint of one ``rows``-option chunk at depth ``steps``.

    Analytic counterpart of :attr:`Workspace.peak_bytes` for the
    kernel simulators' tile set; the scheduler uses it to size chunks
    against a memory budget without allocating anything.
    """
    itemsize = np.dtype(dtype).itemsize
    cols = steps + 1
    return rows * cols * (
        _FLOAT_TILES_PER_KERNEL * itemsize + _BOOL_TILES_PER_KERNEL
    )
