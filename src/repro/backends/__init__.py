"""Kernel backends: interchangeable backward-induction hot paths.

The :class:`KernelBackend` interface (see :mod:`.base`) isolates the
Equation (1) backward recurrence — the part of the paper's kernels
IV.A/IV.B below the leaves — so it can run as interpreted NumPy
(:mod:`.numpy_backend`, the always-available reference) or as
runtime-compiled C (:mod:`.cnative`).  The two are bit-identical by
construction; :mod:`.registry` owns selection
(``EngineConfig.backend``, ``REPRO_BACKEND``).
"""

from .base import KernelBackend
from .cnative import CNativeBackend
from .numpy_backend import NumpyBackend
from .registry import (
    AUTO_ORDER,
    BACKENDS,
    available_backends,
    get_backend,
    resolve_backend,
)

__all__ = [
    "KernelBackend",
    "NumpyBackend",
    "CNativeBackend",
    "BACKENDS",
    "AUTO_ORDER",
    "get_backend",
    "resolve_backend",
    "available_backends",
]
