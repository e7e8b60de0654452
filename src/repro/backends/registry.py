"""Backend selection: explicit names, ``auto`` resolution, env override.

Two entry points with deliberately different contracts:

* :func:`get_backend` — a *pinned* lookup.  Ignores the environment,
  raises :class:`~repro.errors.BackendUnavailableError` when the
  backend cannot run here.  This is what parity tests use: asking for
  ``cnative`` and silently getting NumPy would turn every bitwise
  assertion into a tautology.
* :func:`resolve_backend` — the *runtime* policy.  The
  ``REPRO_BACKEND`` environment variable, when set, replaces the
  requested name outright (the operator's override beats the
  program's choice); ``auto`` walks the preference order
  ``cnative > numpy``, swallowing unavailability, and always lands on
  NumPy — the floor that needs nothing but this library's hard
  dependencies.  Each skipped candidate is *recorded*: a bump of the
  process-wide ``repro_backend_fallback_total`` counter on every
  resolution, plus one :class:`RuntimeWarning` per process — a missing
  toolchain degrades loudly instead of silently costing 10x
  throughput.

Instances are cached per process (compiled backends pay their
compilation once), and so are construction *failures*, so ``auto``
does not re-attempt a missing toolchain on every engine start.
"""

from __future__ import annotations

import os
import warnings

from ..errors import BackendUnavailableError, ReproError
from .base import KernelBackend
from .cnative import CNativeBackend
from .numpy_backend import NumpyBackend

__all__ = ["BACKENDS", "AUTO_ORDER", "get_backend", "resolve_backend",
           "available_backends"]

#: Valid values of ``EngineConfig.backend`` / ``REPRO_BACKEND``.
BACKENDS = ("auto", "numpy", "cnative")

#: Preference order ``auto`` walks (first available wins).
AUTO_ORDER = ("cnative", "numpy")

_CLASSES = {
    "numpy": NumpyBackend,
    "cnative": CNativeBackend,
}

_instances: "dict[str, KernelBackend]" = {}
_failures: "dict[str, BackendUnavailableError]" = {}
_fallbacks_warned: "set[str]" = set()


def _record_fallback(candidate: str, exc: BackendUnavailableError) -> None:
    """Make an ``auto`` skip observable: count always, warn once.

    ``auto`` swallowing unavailability is the right *behaviour* (the
    service keeps answering), but a silently missing toolchain is how
    a 10x performance regression ships unnoticed.  Every skip bumps
    the process-wide ``repro_backend_fallback_total`` counter
    (labelled by the skipped backend); the :class:`RuntimeWarning`
    fires once per process per candidate.
    """
    from ..obs.keys import BACKEND_FALLBACK_TOTAL
    from ..obs.metrics import get_registry

    get_registry().counter(
        BACKEND_FALLBACK_TOTAL,
        "auto backend resolutions that skipped an unavailable backend",
    ).inc(backend=candidate)
    if candidate not in _fallbacks_warned:
        _fallbacks_warned.add(candidate)
        warnings.warn(
            f"backend {candidate!r} is unavailable ({exc}); "
            f"'auto' fell back to the slower numpy backend",
            RuntimeWarning, stacklevel=4)


def get_backend(name: str) -> KernelBackend:
    """The backend called ``name``, constructed (or cached) for real.

    No environment override, no fallback: an unavailable backend
    raises :class:`BackendUnavailableError` every time (the failure is
    cached, so repeated probes stay cheap).
    """
    if name not in _CLASSES:
        raise ReproError(
            f"unknown backend {name!r}; known: "
            f"{sorted(_CLASSES)} (or 'auto')")
    cached = _instances.get(name)
    if cached is not None:
        return cached
    failure = _failures.get(name)
    if failure is not None:
        raise failure
    try:
        instance = _CLASSES[name]()
    except BackendUnavailableError as exc:
        _failures[name] = exc
        raise
    _instances[name] = instance
    return instance


def resolve_backend(name: str = "auto") -> KernelBackend:
    """Pick the backend the runtime should use.

    ``REPRO_BACKEND`` (when set and non-empty) replaces ``name``; an
    explicit name resolves through :func:`get_backend` (and therefore
    raises when unavailable); ``auto`` returns the first available of
    :data:`AUTO_ORDER`.
    """
    override = os.environ.get("REPRO_BACKEND", "").strip().lower()
    if override:
        name = override
    if name == "auto":
        skipped = []
        for candidate in AUTO_ORDER:
            try:
                backend = get_backend(candidate)
            except BackendUnavailableError as exc:
                skipped.append((candidate, exc))
                continue
            for skipped_name, skipped_exc in skipped:
                _record_fallback(skipped_name, skipped_exc)
            return backend
        raise BackendUnavailableError(  # pragma: no cover - numpy always up
            "no kernel backend is available")
    return get_backend(name)


def available_backends() -> "tuple[str, ...]":
    """Names (in ``AUTO_ORDER``) that would construct successfully."""
    names = []
    for candidate in AUTO_ORDER:
        try:
            get_backend(candidate)
        except BackendUnavailableError:
            continue
        names.append(candidate)
    return tuple(names)
