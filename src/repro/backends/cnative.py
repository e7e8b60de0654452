"""Compiled C backend: the fused per-option backward-induction kernel.

This is the software rendition of the paper's dataflow pipeline: where
the NumPy path dispatches ~9 ufuncs per tree level (each a separate
pass over the level's memory), the generated C kernel fuses the spot
roll, the discounted expectation and the American exercise-compare
into **one pass per level per option**, with the whole working set
(two ``steps + 1`` vectors) resident in L1 — the same fusion the
OpenCL kernels get from channels/pipes on the FPGA.

Bitwise contract.  Every operation in the recurrence is elementwise
with a fixed per-element order, so the per-option scalar loop computes
exactly the numbers the time-major ufunc loop computes — *provided*
the compiler neither contracts multiply-add into FMA nor reorders
float math.  The kernel is therefore compiled with ``-O3 -ffp-contract=off``
and **without** any fast-math flag; auto-vectorisation is safe (it
preserves per-element operation order) and is where the speedup comes
from.  The comparison ``(cont > intr) ? cont : intr`` matches
``np.greater`` + masked ``copyto`` including NaN semantics (NaN
compares false, so the intrinsic branch wins, exactly like the NumPy
sequence).  Level capture widens through an explicit ``(double)``
cast, matching ``.astype(np.float64)``.

Host ISA.  The kernel is built with ``-march=native`` and its scratch
vectors are ``restrict``-qualified, so the compiler vectorises the
level loop at the host's full vector width (AVX-512 where present)
without runtime alias checks.  That keeps results bitwise: a wider
vector still applies the same IEEE operations to each element in the
same order, and the host's FMA units stay unused because
``-ffp-contract=off`` forbids fusing the multiply-add.  If the
compiler rejects the target flag, the kernel is rebuilt with the
portable flags alone and one :class:`RuntimeWarning` per compiler says
so; the numbers are the same either way, only slower.

The shared object is generated, compiled with the system ``cc``
(overridable via ``REPRO_CC`` or ``CC`` — an explicit override wins
outright, and a broken one fails the backend rather than silently
picking a different compiler) and cached on disk.  The cache key
covers the source text, the full flag list, the compiler's
``--version`` line and the ISA the target flag resolves to, so a
build for one host is never loaded on another.  Every process after
the first loads it in milliseconds;
:attr:`CNativeBackend.compile_seconds` reports whatever this process
actually paid.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import time
import warnings

import numpy as np

from ..errors import BackendUnavailableError
from .base import KernelBackend

__all__ = ["CNativeBackend", "kernel_source"]

#: Flags every build uses.  -ffp-contract=off: no FMA contraction,
#: the bitwise-parity precondition.  No -ffast-math, ever.
_PORTABLE_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

#: Appended when the compiler accepts it; dropped (with one warning
#: per compiler) when it does not.
_TARGET_FLAG = "-march=native"

_target_fallbacks_warned: "set[str]" = set()

_KERNEL_TEMPLATE = """
/* Fused binomial backward induction over one batch of options.
 *
 * Per option: copy the leaf rows into the caller's scratch vectors,
 * then roll Equation (1) from the leaves to the root in one fused
 * loop per level.  Operation order per element matches the NumPy
 * reference ufunc sequence exactly; see the module docstring for the
 * bitwise-parity argument.  Compile with -ffp-contract=off and no
 * fast-math.
 */
void roll_{tag}(const long n, const long steps, const long ls_stride,
                const {ctype} *leaf_s, const {ctype} *leaf_v,
                const {ctype} *pulldown, const {ctype} *rp,
                const {ctype} *rq, const {ctype} *strike,
                const {ctype} *sign, {ctype} *restrict s,
                {ctype} *restrict v,
                double *prices, double *level1, double *level2,
                const int capture)
{{
    const long cols = steps + 1;
    for (long i = 0; i < n; ++i) {{
        const {ctype} pd = pulldown[i];
        const {ctype} p = rp[i];
        const {ctype} q = rq[i];
        const {ctype} K = strike[i];
        const {ctype} sg = sign[i];
        const {ctype} *ls = leaf_s + i * ls_stride;
        const {ctype} *lv = leaf_v + i * cols;
        for (long k = 0; k < steps; ++k) s[k] = ls[k];
        for (long k = 0; k < cols; ++k) v[k] = lv[k];
        for (long t = steps - 1; t >= 0; --t) {{
            const long active = t + 1;
            for (long k = 0; k < active; ++k) {{
                const {ctype} sk = pd * s[k];
                const {ctype} cont = p * v[k] + q * v[k + 1];
                const {ctype} intr = sg * (sk - K);
                v[k] = (cont > intr) ? cont : intr;
                s[k] = sk;
            }}
            if (capture) {{
                if (t == 2) {{
                    level2[i * 3 + 0] = (double)v[0];
                    level2[i * 3 + 1] = (double)v[1];
                    level2[i * 3 + 2] = (double)v[2];
                }} else if (t == 1) {{
                    level1[i * 2 + 0] = (double)v[0];
                    level1[i * 2 + 1] = (double)v[1];
                }}
            }}
        }}
        prices[i] = (double)v[0];
    }}
}}
"""


def kernel_source() -> str:
    """The complete C translation unit (one kernel per dtype)."""
    parts = ["/* repro cnative kernel */"]
    for tag, ctype in (("f64", "double"), ("f32", "float")):
        parts.append(_KERNEL_TEMPLATE.format(tag=tag, ctype=ctype))
    return "\n".join(parts)


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME")
    if not base:
        home = os.path.expanduser("~")
        base = (os.path.join(home, ".cache") if home != "~"
                else tempfile.gettempdir())
    return os.path.join(base, "repro", "cnative")


def _compiler() -> "str | None":
    from shutil import which

    for var in ("REPRO_CC", "CC"):
        override = os.environ.get(var, "").strip()
        if override:
            # The operator's override wins outright: a broken override
            # surfaces as a compile failure (and thence an ``auto``
            # fallback to NumPy), never as a silent fall-through to a
            # different system compiler the operator didn't pick.
            return which(override) or override
    for name in ("cc", "gcc", "clang"):
        path = which(name)
        if path:
            return path
    return None


def _run_compiler(compiler: str, args) -> subprocess.CompletedProcess:
    try:
        return subprocess.run([compiler, *args], capture_output=True,
                              text=True)
    except OSError as exc:
        raise BackendUnavailableError(
            f"cnative compiler {compiler!r} could not run: {exc}") from exc


def _resolved_target(compiler: str, flags) -> "str | None":
    """The ISA ``flags`` resolve to, or ``None`` if the driver rejects them.

    Asks the driver (``-###``, which compiles nothing) what it would
    hand the compiler proper: gcc expands ``-march=native`` into
    ``-march=<cpu>`` plus one ``-m`` switch per ISA extension, clang
    into ``-target-cpu``/``-target-feature`` pairs.  Only those words
    are kept, so the key does not depend on paths or the working
    directory.
    """
    proc = _run_compiler(compiler, [*flags, "-###", "-E", "-x", "c",
                                    os.devnull])
    if proc.returncode != 0:
        return None
    words = [word.strip("'\"") for word in proc.stderr.split()]
    return " ".join(
        word for previous, word in zip([""] + words, words)
        if word.startswith("-m")
        or previous in ("Target:", "-target-cpu", "-target-feature"))


def _compile(compiler: str, version: str, source: str, flags) -> str:
    """Compile ``source`` with ``flags`` to a cached .so; returns its path.

    The object is keyed by the source, the flags, the compiler version
    and the resolved target, so neither a source change nor a
    different host ever reuses a stale binary; the build lands in a
    temp file first and is published with an atomic rename, making
    concurrent builders safe.
    """
    target = _resolved_target(compiler, flags)
    if target is None:
        raise BackendUnavailableError(
            f"cnative compiler {compiler!r} rejects {' '.join(flags)}")
    key = "\0".join((source, *flags, version, target))
    digest = hashlib.blake2b(key.encode("utf-8"),
                             digest_size=16).hexdigest()
    directory = _cache_dir()
    library = os.path.join(directory, f"kernels-{digest}.so")
    if os.path.exists(library):
        return library
    os.makedirs(directory, exist_ok=True)
    c_path = os.path.join(directory, f"kernels-{digest}.c")
    with open(c_path, "w", encoding="utf-8") as handle:
        handle.write(source)
    scratch = tempfile.NamedTemporaryFile(
        dir=directory, suffix=".so", delete=False)
    scratch.close()
    command = [*flags, c_path, "-o", scratch.name]
    try:
        proc = _run_compiler(compiler, command)
        if proc.returncode != 0:
            raise BackendUnavailableError(
                f"cnative kernel compilation failed "
                f"({compiler} {' '.join(command)}):\n{proc.stderr.strip()}")
    except BackendUnavailableError:
        os.unlink(scratch.name)
        raise
    os.replace(scratch.name, library)
    return library


def _build_library(source: str) -> str:
    """Build (or find cached) ``source`` for this host; returns the path.

    Tries the host-tuned flags first; a compiler that rejects the
    target flag gets the portable flags and one warning.  A compiler
    that cannot even report its version fails the backend outright.
    """
    compiler = _compiler()
    if compiler is None:
        raise BackendUnavailableError(
            "cnative backend needs a C compiler (cc/gcc/clang) on PATH")
    proc = _run_compiler(compiler, ["--version"])
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BackendUnavailableError(
            f"cnative compiler {compiler!r} failed to report its version:"
            f"\n{proc.stderr.strip()}")
    version = proc.stdout.splitlines()[0].strip()
    try:
        return _compile(compiler, version, source,
                        (*_PORTABLE_FLAGS, _TARGET_FLAG))
    except BackendUnavailableError as exc:
        rejected = exc
    if compiler not in _target_fallbacks_warned:
        _target_fallbacks_warned.add(compiler)
        warnings.warn(
            f"cnative: {_TARGET_FLAG} failed ({rejected}); building with "
            f"the portable flags {' '.join(_PORTABLE_FLAGS)} instead",
            RuntimeWarning, stacklevel=2)
    return _compile(compiler, version, source, _PORTABLE_FLAGS)


class CNativeBackend(KernelBackend):
    """Runtime-compiled C kernels loaded through ``ctypes``."""

    name = "cnative"
    compiled = True

    def __init__(self) -> None:
        started = time.perf_counter()
        library_path = _build_library(kernel_source())
        try:
            library = ctypes.CDLL(library_path)
        except OSError as exc:  # pragma: no cover - corrupt cache entry
            raise BackendUnavailableError(
                f"cnative kernel library failed to load: {exc}") from exc
        self._rolls = {}
        for dtype, tag, ctype in ((np.dtype(np.float64), "f64",
                                   ctypes.c_double),
                                  (np.dtype(np.float32), "f32",
                                   ctypes.c_float)):
            roll = getattr(library, f"roll_{tag}")
            # arrays travel as bare addresses of arrays converted to
            # the kernel's dtype on the Python side; a typed-pointer
            # cast per argument cost as much as a small roll
            roll.argtypes = ([ctypes.c_long] * 3 + [ctypes.c_void_p] * 12
                             + [ctypes.c_int])
            roll.restype = None
            self._rolls[dtype] = roll
        self.compile_seconds = time.perf_counter() - started

    @classmethod
    def available(cls) -> bool:
        return _compiler() is not None

    def roll_levels(self, leaf_s, leaf_v, pulldown, rp, rq, strike, sign,
                    steps: int, workspace=None, capture: bool = False):
        leaf_v = np.ascontiguousarray(leaf_v)
        n, cols = leaf_v.shape
        dtype = leaf_v.dtype
        leaf_s = np.ascontiguousarray(leaf_s, dtype=dtype)
        try:
            roll = self._rolls[dtype]
        except KeyError:
            raise BackendUnavailableError(
                f"cnative backend has no kernel for dtype {dtype}") from None
        if workspace is None:
            from ..engine.workspace import Workspace

            workspace = Workspace()
        # per-option scratch: two (steps+1) vectors, L1-resident
        s = workspace.tile("cnative_s", (cols,), dtype)
        v = workspace.tile("cnative_v", (cols,), dtype)
        prices = np.empty(n, dtype=np.float64)
        level1 = np.empty((n, 2), dtype=np.float64) if capture else None
        level2 = np.empty((n, 3), dtype=np.float64) if capture else None

        columns: "list[np.ndarray]" = []  # alive until the call returns

        def column(values) -> int:
            array = np.ascontiguousarray(
                np.asarray(values, dtype=dtype).reshape(-1))
            columns.append(array)
            return array.ctypes.data

        roll(n, steps, leaf_s.shape[1],
             leaf_s.ctypes.data, leaf_v.ctypes.data,
             column(pulldown), column(rp), column(rq), column(strike),
             column(sign), s.ctypes.data, v.ctypes.data,
             prices.ctypes.data,
             level1.ctypes.data if capture else None,
             level2.ctypes.data if capture else None,
             1 if capture else 0)
        return prices, level1, level2
