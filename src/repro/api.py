"""`repro.api` — the one front door for pricing option batches.

The library grew three pricing entry points with three calling
conventions: the software reference (``price_binomial_batch``), the
modeled accelerators (``BinomialAccelerator.price_batch``) and the
host engine (:meth:`repro.engine.PricingEngine.price`).  :func:`price`
routes one keyword-only signature to all of them and returns one
result shape, :class:`PriceResult`.  The two historical batch entry
points were removed in repro 2.0 — only raising migration stubs
remain; the table below is the map.

Every pricing call — the :func:`price`/:func:`greeks` façade, the
in-process :class:`repro.service.PricingService`, the CLI benches —
is internally expressed as one canonical request object,
:class:`PricingRequest`, executed by :func:`run_request` on a
:class:`~repro.engine.PricingEngine`.  The library call and the
service call are therefore the *same* request schema, and all results
derive from one base, :class:`BatchResult` (``route``, ``stats``,
``failures``, ``options_per_second``).

Routing:

* ``device=None`` (default) runs the host :class:`PricingEngine` with
  the requested ``kernel`` (``"reference"`` if not given) — real
  wall-clock throughput, fault tolerance, optional tracing.  With the
  default ``config``/``workers``/``tracer``/``engine`` the engine is
  *shared and reused* across calls (one per ``(kernel, precision,
  family)``) instead of being rebuilt per call; pass ``engine=`` to
  manage your own.  :func:`close_shared_engines` runs automatically
  at interpreter exit (and may be called earlier, idempotently);
* ``device="fpga" | "gpu" | "cpu"`` builds the matching
  :class:`BinomialAccelerator` — the paper's Table II configurations
  with modeled time and energy; a ready-made accelerator instance is
  accepted too and is *not* closed for you.

Migration from the older entry points:

===============================================  =============================================
Before                                           After
===============================================  =============================================
``price_binomial_batch(opts, steps=N)``          ``price(opts, steps=N).prices``
``price_binomial_batch(..., workers=4)``         ``price(opts, steps=N, workers=4).prices``
(removed in repro 2.0)
``acc = BinomialAccelerator("fpga", "iv_b")``    ``price(opts, steps=N, device="fpga",``
``acc.price_batch(opts)``                        ``      kernel="iv_b").modeled``
(removed in repro 2.0)
``PricingEngine(kernel="iv_b").price(opts, N)``  ``price(opts, steps=N, kernel="iv_b").prices``
``PricingEngine(...).run(opts, N)``              ``price(opts, steps=N, kernel="iv_b",``
                                                 ``      strict=False)`` (NaN + ``failures``)
``run_request(engine,``                          the canonical request path the façade,
``  PricingRequest(options=..., steps=...))``    service and CLI all share (raw engine result)
===============================================  =============================================

Unified result shape: :class:`PriceResult`, :class:`GreeksResult` and
the service's :class:`ServiceResult` all subclass :class:`BatchResult`
and share ``route``/``stats``/``failures``/``options_per_second`` and
``len(result)``; only the payload columns differ (``prices`` alone,
the five greeks columns, or either plus service metadata).

Example::

    import repro

    batch = repro.generate_batch(n_options=2000)
    result = repro.price(batch.options, steps=1024, kernel="iv_b",
                         workers=4)
    print(result.prices[:3], result.stats.options_per_second)

    modeled = repro.price(batch.options, steps=1024, device="fpga")
    print(modeled.modeled.energy_joules)
"""

from __future__ import annotations

import atexit
import threading
from dataclasses import dataclass, field, replace as dc_replace
from typing import Optional, Sequence

import numpy as np

from .backends import BACKENDS
from .core.accelerator import AcceleratorResult, BinomialAccelerator
from .core.faithful_math import EXACT_DOUBLE, EXACT_SINGLE
from .devices.base import Precision
from .engine import EngineConfig, PricingEngine
from .engine.reliability import FailureRecord
from .engine.scheduler import KERNELS
from .engine.stats import EngineStats
from .errors import ReproError
from .finance.lattice import LatticeFamily
from .finance.options import OPTION_ROWS, Option, OptionArrays

__all__ = [
    "BatchResult",
    "GREEKS_COLUMNS",
    "GreeksResult",
    "PRIORITIES",
    "PriceResult",
    "PricingRequest",
    "RESULT_COLUMNS",
    "ServiceResult",
    "WIRE_REQUEST_SCHEMA",
    "WIRE_RESULT_SCHEMA",
    "close_shared_engines",
    "greeks",
    "price",
    "run_request",
]

_DEVICES = ("fpga", "gpu", "cpu")

#: The five sensitivity columns a greeks-task result carries, in the
#: one canonical order every layer agrees on — result wire columns,
#: the service cache payload, the shard result transport and the
#: streaming risk aggregates all index greeks by this tuple.
GREEKS_COLUMNS = ("delta", "gamma", "theta", "vega", "rho")

#: Every payload column a result can carry, in wire order: ``prices``
#: (every task) then the greeks columns (``task="greeks"`` only).
RESULT_COLUMNS = ("prices",) + GREEKS_COLUMNS

#: Version tags of the wire forms produced by
#: :meth:`PricingRequest.to_dict` and :meth:`BatchResult.to_dict` —
#: the serving tier's network protocol and the contract external
#: clients code against (documented in ``docs/wire_schema.md``).
#: Float fields travel as :meth:`float.hex` strings so a request or
#: result crossing the wire round-trips *bitwise*, never through a
#: decimal representation.
WIRE_REQUEST_SCHEMA = "repro-request/v1"
WIRE_RESULT_SCHEMA = "repro-result/v1"


def _hex(value: float) -> str:
    return float(value).hex()


def _unhex(value) -> float:
    """Read a wire float: ``float.hex`` canonical, plain numbers tolerated.

    ``to_dict`` always writes hex strings; hand-written clients may
    send JSON numbers and lose only what decimal text loses.
    """
    if isinstance(value, str):
        return float.fromhex(value)
    return float(value)


_OPTION_FLOAT_FIELDS = ("spot", "strike", "rate", "volatility",
                        "maturity", "dividend_yield")


def _options_to_wire(columns: OptionArrays) -> "list[dict]":
    """One wire dict per option, read straight off the column block."""
    *floats, sign, american = columns.block.tolist()
    return [
        {**{name: value.hex()
            for name, value in zip(_OPTION_FLOAT_FIELDS, values)},
         "option_type": "call" if code > 0 else "put",
         "exercise": "american" if early else "european"}
        for *values, code, early in zip(*floats, sign, american)]


def _option_from_dict(data: dict) -> Option:
    try:
        return Option(
            option_type=data["option_type"], exercise=data["exercise"],
            **{name: _unhex(data[name]) for name in _OPTION_FLOAT_FIELDS})
    except KeyError as exc:
        raise ReproError(
            f"wire option is missing field {exc.args[0]!r}") from None


def _array_to_hex(array: "np.ndarray | None") -> "list[str] | None":
    if array is None:
        return None
    return [_hex(value) for value in np.asarray(array, dtype=np.float64)]


def _array_from_hex(values) -> "np.ndarray | None":
    if values is None:
        return None
    return np.array([_unhex(value) for value in values], dtype=np.float64)

#: Tasks a request may carry.  ``"greeks"`` runs
#: :meth:`~repro.engine.PricingEngine.run_greeks`, which schedules the
#: scheduler's ``"greeks_fused"`` chunk task.
_REQUEST_TASKS = ("price", "greeks")

#: Admission bands of the serving layer, lowest first.  Under overload
#: the :class:`repro.service.PricingService` sheds the oldest entry of
#: the lowest non-empty band to admit higher-priority work.
PRIORITIES = ("normal", "high")


# ---------------------------------------------------------------------------
# the canonical request object


@dataclass(frozen=True, slots=True, init=False)
class PricingRequest:
    """One pricing request — the schema every route shares.

    :func:`price` and :func:`greeks` build one internally, the
    :class:`repro.service.PricingService` accepts them directly (and
    coalesces compatible ones into engine-sized batches), and
    :func:`run_request` executes one on any
    :class:`~repro.engine.PricingEngine`.

    :param options: the contracts to price, a sequence of
        :class:`~repro.finance.Option`.  Pass either ``options`` or
        ``columns``.
    :param columns: the same contracts as one
        :class:`~repro.finance.OptionArrays` column block (the stream
        path builds requests this way; no :class:`Option` is made).
    :param steps: tree depth — one ``int`` for the whole request, or
        one per option.
    :param kernel: ``"iv_a"``, ``"iv_b"`` or ``"reference"``.
    :param precision: ``"double"`` or ``"single"``.
    :param family: lattice parameterisation (``LatticeFamily`` or its
        string value; kernel IV.B requires CRR).
    :param task: ``"price"`` or ``"greeks"``.
    :param strict: ``True`` re-raises the first pricing failure when
        the result is built; ``False`` returns NaN plus
        :class:`FailureRecord` entries.  Not part of the batch/cache
        identity — it only affects how *this* caller sees failures.
    :param workers: preferred engine thread count (``None`` = engine
        default).  Advisory: the service and the shared-engine path
        run on an engine they own, so this only shapes dedicated
        engines.  Not part of the batch/cache identity.
    :param backend: which kernel backend prices the request —
        ``"auto"`` (default; fastest available), ``"numpy"`` or
        ``"cnative"``.  Backends are bit-identical, so
        this is a scheduling preference, not a numerical one; it *is*
        part of the batch identity (requests coalesce per backend so
        each merged flush runs on the engine the caller asked for) but
        not of the cache identity.
    :param bump_vol: vega bump (greeks task only, must be > 0).
    :param bump_rate: rho bump (greeks task only, must be > 0).
    :param deadline_ms: wall-clock budget the caller gives the serving
        layer, in milliseconds from ``submit()``.  When it expires
        before the result is ready the request's future fails with
        :class:`~repro.errors.DeadlineExceededError`; while it is
        live it bounds the engine's per-chunk timeout for the flush
        that carries the request.  ``None`` (default) waits forever.
        A delivery knob like ``strict``: not part of the batch/cache
        identity.
    :param priority: ``"normal"`` (default) or ``"high"``.  Under
        overload the service sheds the oldest normal-priority queue
        entries to admit high-priority work before rejecting it.
        Delivery knob: not part of the batch/cache identity.

    The request holds its contracts only as the read-only ``columns``
    block, built once at construction: its length, coalescing (the
    :class:`~repro.service.PricingService` concatenates blocks), the
    cache key, chunking and every parameter builder read it, and a
    pickled request carries that one array.  A caller's writeable
    block is copied and validated; a read-only block (another
    request's, a position book's drain) is shared as already vetted.
    :attr:`options` materialises :class:`Option` objects on each read,
    for callers that want them.

    Validation happens at construction, so a request that builds is a
    request the engine will accept — services can coalesce requests
    into shared flushes without one request's bad arguments failing
    its neighbours at run time.
    """

    columns: OptionArrays
    steps: "int | tuple[int, ...]"
    kernel: str
    precision: str
    family: LatticeFamily
    task: str
    strict: bool
    workers: "int | None"
    backend: str
    bump_vol: float
    bump_rate: float
    deadline_ms: "float | None"
    priority: str

    def __init__(self, options: "Sequence[Option] | None" = None,
                 steps: "int | Sequence[int]" = 1024,
                 kernel: str = "reference",
                 precision: str = Precision.DOUBLE,
                 family: LatticeFamily = LatticeFamily.CRR,
                 task: str = "price", strict: bool = True,
                 workers: "int | None" = None, backend: str = "auto",
                 bump_vol: float = 1e-3, bump_rate: float = 1e-4,
                 deadline_ms: "float | None" = None,
                 priority: str = "normal", *,
                 columns: "OptionArrays | None" = None):
        if (options is None) == (columns is None):
            raise ReproError("PricingRequest takes options or columns")
        if columns is None:
            options = tuple(options)
            for option in options:
                if not isinstance(option, Option):
                    raise ReproError(
                        f"options must be repro Option instances, got "
                        f"{type(option).__name__}")
            # an Option validated itself; one that bypassed that
            # fails only its own chunk in the engine (quarantine)
            columns = OptionArrays.from_options(options)
        elif not isinstance(columns, OptionArrays):
            raise ReproError(
                f"columns must be an OptionArrays block, got "
                f"{type(columns).__name__}")
        elif columns.block.flags.writeable:
            # a caller's block: own a copy and validate it before it is
            # frozen (a read-only block is another request's, shared)
            block = np.array(columns.block, dtype=np.float64)
            if block.ndim != 2 or len(block) != len(OPTION_ROWS):
                raise ReproError(
                    f"columns must be a ({len(OPTION_ROWS)}, n) block, "
                    f"got shape {block.shape}")
            columns = OptionArrays(block).validate()
        if not len(columns):
            raise ReproError("PricingRequest needs at least one option")
        columns.block.setflags(write=False)
        init = object.__setattr__
        for name, value in (
                ("columns", columns), ("steps", steps), ("kernel", kernel),
                ("precision", precision), ("family", family),
                ("task", task), ("strict", strict), ("workers", workers),
                ("backend", backend), ("bump_vol", bump_vol),
                ("bump_rate", bump_rate), ("deadline_ms", deadline_ms),
                ("priority", priority)):
            init(self, name, value)
        self._check()

    def _check(self) -> None:
        n = len(self.columns)
        if self.kernel not in KERNELS:
            raise ReproError(
                f"kernel must be one of {KERNELS}, got {self.kernel!r}")
        if self.task not in _REQUEST_TASKS:
            raise ReproError(
                f"task must be one of {_REQUEST_TASKS}, got {self.task!r}")
        if self.backend not in BACKENDS:
            raise ReproError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}")
        Precision.check(self.precision)
        family = self.family
        if not isinstance(family, LatticeFamily):
            try:
                family = LatticeFamily(family)
            except ValueError:
                raise ReproError(
                    f"family must be a LatticeFamily or one of "
                    f"{[member.value for member in LatticeFamily]}, "
                    f"got {self.family!r}") from None
            object.__setattr__(self, "family", family)
        if self.kernel == "iv_b" and family is not LatticeFamily.CRR:
            raise ReproError(
                "kernel IV.B bakes u*d = 1 into its device-side leaves "
                f"and supports only the CRR family, got {family.value!r}")

        if np.ndim(self.steps) == 0:
            steps: "int | tuple[int, ...]" = int(self.steps)
            flat = (steps,)
        else:
            steps = tuple(int(s) for s in self.steps)
            if len(steps) != n:
                raise ReproError(
                    f"per-option steps length {len(steps)} does not match "
                    f"{n} options")
            flat = steps
        object.__setattr__(self, "steps", steps)
        min_steps = self.min_steps(self.kernel, self.task)
        for value in flat:
            if value < min_steps:
                raise ReproError(
                    f"task {self.task!r} on kernel {self.kernel!r} needs "
                    f"at least {min_steps} steps, got {value}")

        if self.workers is not None and int(self.workers) < 1:
            raise ReproError(f"workers must be >= 1, got {self.workers}")
        if self.deadline_ms is not None and not float(self.deadline_ms) > 0:
            raise ReproError(
                f"deadline_ms must be > 0, got {self.deadline_ms}")
        if self.priority not in PRIORITIES:
            raise ReproError(
                f"priority must be one of {PRIORITIES}, "
                f"got {self.priority!r}")
        if self.task == "greeks":
            if not self.bump_vol > 0:
                raise ReproError(
                    f"bump_vol must be > 0, got {self.bump_vol}")
            if not self.bump_rate > 0:
                raise ReproError(
                    f"bump_rate must be > 0, got {self.bump_rate}")

    @staticmethod
    def min_steps(kernel: str, task: str) -> int:
        """Smallest tree depth the engine accepts for this work."""
        if task == "greeks":
            return 3  # levels 0..2 must sit below the leaves
        return 2 if kernel in ("iv_a", "iv_b") else 1

    def __len__(self) -> int:
        return len(self.columns)

    @property
    def options(self) -> "tuple[Option, ...]":
        """The contracts as :class:`Option` objects, made on each read."""
        return self.columns.to_options()

    def steps_per_option(self) -> "tuple[int, ...]":
        """The depth of every option, expanded from a scalar if needed."""
        if isinstance(self.steps, tuple):
            return self.steps
        return (self.steps,) * len(self.columns)

    @property
    def batch_key(self) -> tuple:
        """Coalescing compatibility key.

        Requests with equal keys may be merged into one engine flush:
        same lattice/kernel/precision/backend/task (and greeks bumps),
        with ``steps`` carried per option so heterogeneous-depth
        merges stay legal (``group_stream`` regroups them inside the
        run).  ``backend`` is included because the service keeps one
        engine per configuration and a flush runs on exactly one
        backend; ``strict`` and ``workers`` are per-caller concerns
        and deliberately excluded.
        """
        key = (self.kernel, self.precision, self.family.value,
               self.backend, self.task)
        if self.task == "greeks":
            key += (float(self.bump_vol), float(self.bump_rate))
        return key

    # -- wire form (the serving tier's request protocol) ----------------

    def to_dict(self) -> dict:
        """JSON-ready wire form, tagged :data:`WIRE_REQUEST_SCHEMA`.

        Floats travel as :meth:`float.hex` strings so
        ``PricingRequest.from_dict(request.to_dict())`` rebuilds a
        request that prices *bitwise identically* — the property the
        shard-parity acceptance test rides on.
        """
        return {
            "schema": WIRE_REQUEST_SCHEMA,
            "options": _options_to_wire(self.columns),
            "steps": (list(self.steps) if isinstance(self.steps, tuple)
                      else int(self.steps)),
            "kernel": self.kernel,
            "precision": self.precision,
            "family": self.family.value,
            "task": self.task,
            "strict": bool(self.strict),
            "workers": None if self.workers is None else int(self.workers),
            "backend": self.backend,
            "bump_vol": _hex(self.bump_vol),
            "bump_rate": _hex(self.bump_rate),
            "deadline_ms": (None if self.deadline_ms is None
                            else _hex(self.deadline_ms)),
            "priority": self.priority,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PricingRequest":
        """Rebuild a request from its wire form (server side).

        Validates the schema tag, then funnels everything through the
        normal constructor — a request that deserialises is a request
        the engine will accept, exactly like a locally built one.
        Malformed payloads raise :class:`~repro.errors.ReproError`
        (wire code ``bad_request``).
        """
        if not isinstance(data, dict):
            raise ReproError(
                f"wire request must be a JSON object, got "
                f"{type(data).__name__}")
        schema = data.get("schema")
        if schema != WIRE_REQUEST_SCHEMA:
            raise ReproError(
                f"unsupported request schema {schema!r} "
                f"(this server speaks {WIRE_REQUEST_SCHEMA!r})")
        options_data = data.get("options")
        if not isinstance(options_data, (list, tuple)):
            raise ReproError("wire request needs an 'options' list")
        steps = data.get("steps", 1024)
        try:
            return cls(
                options=tuple(_option_from_dict(entry)
                              for entry in options_data),
                steps=(tuple(int(s) for s in steps)
                       if isinstance(steps, (list, tuple)) else int(steps)),
                kernel=str(data.get("kernel", "reference")),
                precision=str(data.get("precision", Precision.DOUBLE)),
                family=data.get("family", LatticeFamily.CRR),
                task=str(data.get("task", "price")),
                strict=bool(data.get("strict", True)),
                workers=(None if data.get("workers") is None
                         else int(data["workers"])),
                backend=str(data.get("backend", "auto")),
                bump_vol=_unhex(data.get("bump_vol", 1e-3)),
                bump_rate=_unhex(data.get("bump_rate", 1e-4)),
                deadline_ms=(None if data.get("deadline_ms") is None
                             else _unhex(data["deadline_ms"])),
                priority=str(data.get("priority", "normal")),
            )
        except ReproError:
            raise
        except (TypeError, ValueError) as exc:
            raise ReproError(f"malformed wire request: {exc}") from None


# ---------------------------------------------------------------------------
# the unified result shapes


@dataclass(frozen=True, slots=True)
class BatchResult:
    """Common shape of every pricing result, whatever the route.

    :param route: ``"engine"``, ``"accelerator"`` or ``"service"``.
    :param stats: the engine run's measured statistics (``None`` where
        no host engine ran, e.g. the accelerator route).
    :param failures: per-option failure records (``strict=False``
        routes; empty otherwise).

    Subclasses add the payload columns; every subclass carries
    ``prices`` so ``len(result)`` and array access are uniform.
    """

    route: str = "engine"
    stats: "EngineStats | None" = None
    failures: "tuple[FailureRecord, ...]" = field(default=())

    def __len__(self) -> int:
        return len(self.prices)  # type: ignore[attr-defined]

    @property
    def options_per_second(self) -> "float | None":
        """Throughput: measured (engine) or modeled (accelerator)."""
        if self.stats is not None:
            return self.stats.options_per_second
        modeled = getattr(self, "modeled", None)
        if modeled is not None:
            return modeled.options_per_second
        return None

    # -- wire form (the serving tier's result protocol) -----------------

    def to_dict(self) -> dict:
        """JSON-ready wire form, tagged :data:`WIRE_RESULT_SCHEMA`.

        Handles every subclass via a ``type`` discriminator.  Payload
        columns travel as :meth:`float.hex` lists (bitwise-lossless);
        ``stats`` travels as :meth:`EngineStats.as_dict` (informational
        numbers, not part of the parity contract); ``failures`` as
        :meth:`FailureRecord.as_dict` with request-local indices
        intact.  :attr:`PriceResult.modeled` is *not* serialised — the
        accelerator-model route is local-only and the serving tier
        never produces it.
        """
        data: dict = {
            "schema": WIRE_RESULT_SCHEMA,
            "type": type(self).__name__,
            "route": self.route,
            "stats": None if self.stats is None else self.stats.as_dict(),
            "failures": [record.as_dict() for record in self.failures],
        }
        for column in RESULT_COLUMNS:
            value = getattr(self, column, None)
            if value is not None:
                data[column] = _array_to_hex(value)
        if isinstance(self, ServiceResult):
            data["cache_hit"] = bool(self.cache_hit)
            data["batch_options"] = int(self.batch_options)
            data["wait_s"] = _hex(self.wait_s)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "BatchResult":
        """Rebuild a result from its wire form (client side).

        Dispatches on the ``type`` discriminator to the matching
        subclass; arrays come back float64 and bitwise-equal to what
        the server serialised.  ``stats`` is rebuilt as an
        :class:`EngineStats` (keys this build does not declare are
        dropped); ``failures`` as :class:`FailureRecord` entries whose
        ``exception`` slot is empty — strict remote callers re-raise a
        typed reconstruction via :func:`repro.errors.error_from_wire`.
        """
        if not isinstance(data, dict):
            raise ReproError(
                f"wire result must be a JSON object, got "
                f"{type(data).__name__}")
        schema = data.get("schema")
        if schema != WIRE_RESULT_SCHEMA:
            raise ReproError(
                f"unsupported result schema {schema!r} "
                f"(this client speaks {WIRE_RESULT_SCHEMA!r})")
        type_name = data.get("type")
        klass = _WIRE_RESULT_TYPES.get(type_name)
        if klass is None:
            raise ReproError(
                f"unknown wire result type {type_name!r} "
                f"(expected one of {sorted(_WIRE_RESULT_TYPES)})")
        stats = data.get("stats")
        kwargs: dict = {
            "route": str(data.get("route", "engine")),
            "stats": (None if stats is None
                      else EngineStats.from_dict("engine", stats)),
            "failures": tuple(FailureRecord.from_dict(entry)
                              for entry in data.get("failures", ())),
        }
        for column in RESULT_COLUMNS:
            if column in data and hasattr(klass, column):
                kwargs[column] = _array_from_hex(data[column])
        if issubclass(klass, ServiceResult):
            kwargs["cache_hit"] = bool(data.get("cache_hit", False))
            kwargs["batch_options"] = int(data.get("batch_options", 0))
            kwargs["wait_s"] = _unhex(data.get("wait_s", 0.0))
        try:
            return klass(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ReproError(f"malformed wire result: {exc}") from None


@dataclass(frozen=True, slots=True)
class PriceResult(BatchResult):
    """What :func:`price` returns, whatever the route.

    :param prices: root option values in input order (NaN for options
        quarantined under ``strict=False``).
    :param modeled: the accelerator's modeled time/energy result
        (``None`` on the engine route).
    """

    prices: np.ndarray = None  # type: ignore[assignment]
    modeled: "AcceleratorResult | None" = None


@dataclass(frozen=True, slots=True)
class GreeksResult(BatchResult):
    """What :func:`greeks` returns: one array per sensitivity.

    ``prices``/``delta``/``gamma``/``theta`` come from the *same*
    backward induction (tree-level capture); ``vega``/``rho`` from the
    bump variants priced in the same fused task.  All arrays are in
    input order; options that failed under ``strict=False`` carry NaN
    in every column and a :class:`FailureRecord`.
    """

    prices: np.ndarray = None  # type: ignore[assignment]
    delta: np.ndarray = None  # type: ignore[assignment]
    gamma: np.ndarray = None  # type: ignore[assignment]
    theta: np.ndarray = None  # type: ignore[assignment]
    vega: np.ndarray = None  # type: ignore[assignment]
    rho: np.ndarray = None  # type: ignore[assignment]


@dataclass(frozen=True, slots=True, init=False)
class ServiceResult(BatchResult):
    """What a :class:`repro.service.PricingService` future resolves to.

    Carries the payload of the request's ``task`` (``prices`` always;
    the greeks columns only for ``task="greeks"``) plus how the
    request was served.  The payload is one read-only ``block`` of
    rows in :data:`RESULT_COLUMNS` order (one row for a price task,
    six for greeks) and each column reads as a row view of it, so a
    held result costs one array, not six — and the service's result
    cache stores that same block instead of a copy.

    :param prices: values in *request* order (the service scatters the
        coalesced batch back per request).
    :param delta: ``delta``…``rho``: the greeks columns
        (``task="greeks"`` only); pass all five or none.
    :param cache_hit: the result came straight from the content-keyed
        cache (or from a computation another in-flight identical
        request already started).
    :param batch_options: size of the merged engine batch this request
        was flushed in (equals ``len(result)`` for an uncoalesced
        flush; 0 on a pure cache hit — no engine ran).
    :param wait_s: time the request spent queued + coalescing before
        its flush started (0.0 on a cache hit).
    :param block: the payload rows themselves, shared as is (instead
        of the column arguments).
    """

    block: np.ndarray
    cache_hit: bool
    batch_options: int
    wait_s: float

    def __init__(self, route: str = "engine",
                 stats: "EngineStats | None" = None,
                 failures: "tuple[FailureRecord, ...]" = (),
                 prices: "np.ndarray | None" = None,
                 delta: "np.ndarray | None" = None,
                 gamma: "np.ndarray | None" = None,
                 theta: "np.ndarray | None" = None,
                 vega: "np.ndarray | None" = None,
                 rho: "np.ndarray | None" = None,
                 cache_hit: bool = False, batch_options: int = 0,
                 wait_s: float = 0.0, *,
                 block: "np.ndarray | None" = None):
        if block is None:
            greeks = (delta, gamma, theta, vega, rho)
            rows = [prices]
            if any(column is not None for column in greeks):
                rows.extend(greeks)
            block = np.array(rows, dtype=np.float64)
            block.setflags(write=False)
        init = object.__setattr__
        for name, value in (
                ("route", route), ("stats", stats), ("failures", failures),
                ("block", block), ("cache_hit", cache_hit),
                ("batch_options", batch_options), ("wait_s", wait_s)):
            init(self, name, value)

    prices = property(lambda self: self.block[0])
    delta = property(lambda self: self._greek(1))
    gamma = property(lambda self: self._greek(2))
    theta = property(lambda self: self._greek(3))
    vega = property(lambda self: self._greek(4))
    rho = property(lambda self: self._greek(5))

    def _greek(self, row: int) -> "np.ndarray | None":
        return self.block[row] if len(self.block) > 1 else None


#: ``type`` discriminator -> result class for the wire protocol.
_WIRE_RESULT_TYPES = {
    "BatchResult": BatchResult,
    "PriceResult": PriceResult,
    "GreeksResult": GreeksResult,
    "ServiceResult": ServiceResult,
}


# ---------------------------------------------------------------------------
# request execution (shared by façade, service, CLI)


def _engine_profile(precision: str):
    Precision.check(precision)
    return EXACT_SINGLE if precision == Precision.SINGLE else EXACT_DOUBLE


def _profile_precision(profile) -> str:
    return (Precision.SINGLE if profile.dtype == np.float32
            else Precision.DOUBLE)


def run_request(engine: PricingEngine, request: PricingRequest,
                deadline_s: "float | None" = None):
    """Execute ``request`` on ``engine`` and return the raw engine result.

    This is the one seam every route shares: :func:`price` and
    :func:`greeks` call it with a shared or dedicated engine, the
    :class:`repro.service.PricingService` calls it with its *merged*
    request per flush.  The return value is the engine's own result
    (:class:`~repro.engine.engine.EngineResult` for ``task="price"``,
    the greeks result for ``task="greeks"``) with failures *recorded,
    not raised* — ``request.strict`` is applied later, per caller, by
    the result builders, so one strict requester cannot blow up a
    coalesced flush for everyone else.

    ``deadline_s`` (seconds of budget left, not an absolute time) is
    forwarded to the engine run, bounding its per-chunk timeout — the
    service computes it from the tightest live ``deadline_ms`` in the
    flush.
    """
    if request.task == "greeks":
        return engine.run_greeks(request.columns, request.steps,
                                 bump_vol=request.bump_vol,
                                 bump_rate=request.bump_rate,
                                 deadline_s=deadline_s)
    return engine.run(request.columns, request.steps,
                      deadline_s=deadline_s)


def raise_first_failure(failures: "Sequence[FailureRecord]"):
    """The historical strict contract: re-raise the first failure."""
    first = failures[0]
    if first.exception is not None:
        raise first.exception
    raise ReproError(
        f"option {first.index} failed after {first.attempts} "
        f"attempts: {first.error}: {first.message}")


def _price_result(request: PricingRequest, result) -> PriceResult:
    if request.strict and result.failures:
        raise_first_failure(result.failures)
    return PriceResult(prices=result.prices, route="engine",
                       stats=result.stats, failures=result.failures)


def _greeks_result(request: PricingRequest, result) -> GreeksResult:
    if request.strict and result.failures:
        raise_first_failure(result.failures)
    return GreeksResult(
        prices=result.prices, delta=result.delta, gamma=result.gamma,
        theta=result.theta, vega=result.vega, rho=result.rho,
        route="engine", stats=result.stats, failures=result.failures,
    )


# ---------------------------------------------------------------------------
# shared engines: reuse across façade calls instead of rebuild-per-call

_shared_lock = threading.Lock()
_shared_engines: "dict[tuple, tuple[PricingEngine, threading.Lock]]" = {}


def _shared_engine(request: PricingRequest):
    """The process-wide engine for this request's configuration.

    Engines are keyed by ``(kernel, precision, family, backend)`` and
    kept open across calls, so a caller looping ``price()`` over many
    batches no longer pays engine construction per call (for compiled
    backends that includes the one-time compile/load cost).  Each
    engine comes with its own lock — :class:`PricingEngine` runs one
    batch at a time — so concurrent façade calls serialise per
    configuration (use a :class:`repro.service.PricingService` for
    real concurrency).
    """
    key = (request.kernel, request.precision, request.family.value,
           request.backend)
    with _shared_lock:
        entry = _shared_engines.get(key)
        if entry is None or entry[0].closed:
            engine = PricingEngine(
                kernel=request.kernel,
                profile=_engine_profile(request.precision),
                family=request.family,
                config=EngineConfig(backend=request.backend),
            )
            entry = (engine, threading.Lock())
            _shared_engines[key] = entry
        return entry


def close_shared_engines() -> int:
    """Close every engine the façade is sharing; returns how many.

    Safe to call at any time — the next :func:`price`/:func:`greeks`
    call simply builds a fresh shared engine.  Also registered with
    :mod:`atexit`, so interpreter shutdown never leaks engine threads
    even when the caller forgets; calling it manually first is fine
    (the registry empties, the atexit pass closes zero engines).
    """
    with _shared_lock:
        entries = list(_shared_engines.values())
        _shared_engines.clear()
    for engine, lock in entries:
        with lock:
            engine.close()
    return len(entries)


atexit.register(close_shared_engines)


def _run_engine_route(request: PricingRequest, config, tracer,
                      engine: "PricingEngine | None"):
    """Run a request on the caller's, a dedicated, or the shared engine."""
    if engine is not None:
        # caller keeps ownership (and is responsible for serialising
        # access); a closed engine raises EngineError inside run()
        return run_request(engine, request)
    if config is not None or tracer is not None or request.workers:
        run_config = config
        if run_config is None and request.workers:
            run_config = EngineConfig(workers=int(request.workers))
        if request.backend != "auto":
            run_config = dc_replace(run_config or EngineConfig(),
                                    backend=request.backend)
        with PricingEngine(kernel=request.kernel,
                           profile=_engine_profile(request.precision),
                           family=request.family, config=run_config,
                           tracer=tracer) as dedicated:
            return run_request(dedicated, request)
    shared, lock = _shared_engine(request)
    with lock:
        return run_request(shared, request)


# ---------------------------------------------------------------------------
# the keyword façade


def price(
    options: Sequence[Option],
    *,
    steps: "int | Sequence[int]" = 1024,
    device: "str | BinomialAccelerator | None" = None,
    kernel: "str | None" = None,
    config: "EngineConfig | None" = None,
    workers: "int | None" = None,
    family: LatticeFamily = LatticeFamily.CRR,
    precision: str = Precision.DOUBLE,
    backend: str = "auto",
    tracer=None,
    strict: bool = True,
    engine: "PricingEngine | None" = None,
) -> PriceResult:
    """Price a batch of options through the configured route.

    Internally builds a :class:`PricingRequest` and executes it with
    :func:`run_request` — the same path the service and CLI use.

    :param options: the contracts to price.
    :param steps: tree depth — one value, or one per option (the
        engine route regroups heterogeneous streams; the accelerator
        route requires a single depth, like the hardware it models).
    :param device: ``None`` for the host engine, a platform name
        (``"fpga"``/``"gpu"``/``"cpu"``) for a modeled accelerator, or
        an existing :class:`BinomialAccelerator` to reuse (caller keeps
        ownership — it is not closed).
    :param kernel: ``"iv_a"``, ``"iv_b"`` or ``"reference"``; defaults
        to ``"reference"`` on the engine/cpu routes and ``"iv_b"`` on
        fpga/gpu.
    :param config: :class:`EngineConfig` for the pricing engine
        (either route); mutually exclusive with ``workers``.  Forces a
        dedicated engine for this call.
    :param workers: shorthand for ``EngineConfig(workers=...)``.
    :param family: lattice parameterisation.
    :param precision: ``"double"`` or ``"single"``.
    :param backend: kernel backend for the engine route — ``"auto"``
        (fastest available), ``"numpy"`` or ``"cnative"``.
        Bit-identical prices either way; overrides the
        backend of an explicit ``config`` when not ``"auto"``.
    :param tracer: optional :class:`repro.obs.trace.Tracer` observing
        the engine run (``None`` = tracing disabled).  Forces a
        dedicated engine for this call.
    :param strict: engine route only — ``True`` re-raises the first
        pricing failure (the historical ``price_binomial_batch``
        contract); ``False`` returns NaN for quarantined options plus
        their :class:`FailureRecord` in :attr:`PriceResult.failures`.
    :param engine: an open :class:`PricingEngine` to run on (caller
        keeps ownership); mutually exclusive with ``config``/
        ``workers``/``tracer``.  With all four left default, calls
        reuse a process-wide shared engine per ``(kernel, precision,
        family)`` instead of rebuilding one per call.
    """
    options = list(options)
    if config is not None and workers is not None:
        raise ReproError("pass either config or workers, not both")
    if engine is not None and (config is not None or workers is not None
                               or tracer is not None):
        raise ReproError(
            "engine= is mutually exclusive with config/workers/tracer — "
            "configure the engine you pass in")

    if device is not None:
        return _price_accelerator(options, steps, device, kernel, config,
                                  family, precision, tracer)
    if not options:
        return PriceResult(prices=np.empty(0, dtype=np.float64),
                           route="engine")
    if engine is not None:
        request = PricingRequest(
            options=tuple(options), steps=_steps_spec(steps),
            kernel=engine.kernel, precision=_profile_precision(engine.profile),
            family=engine.family, task="price", strict=strict,
            backend=engine.config.backend)
    else:
        request = PricingRequest(
            options=tuple(options), steps=_steps_spec(steps),
            kernel=kernel or "reference", precision=precision,
            family=family, task="price", strict=strict, workers=workers,
            backend=backend)
    result = _run_engine_route(request, config, tracer, engine)
    return _price_result(request, result)


def greeks(
    options: Sequence[Option],
    *,
    steps: "int | Sequence[int]" = 512,
    kernel: str = "iv_b",
    config: "EngineConfig | None" = None,
    workers: "int | None" = None,
    family: LatticeFamily = LatticeFamily.CRR,
    precision: str = Precision.DOUBLE,
    backend: str = "auto",
    bump_vol: float = 1e-3,
    bump_rate: float = 1e-4,
    tracer=None,
    strict: bool = True,
    engine: "PricingEngine | None" = None,
) -> GreeksResult:
    """Batch price + delta/gamma/theta/vega/rho through the engine.

    Delta, gamma and theta are read off tree levels 0..2 of the *same*
    engine pricing pass that produces the prices (no re-pricing — the
    Hull lattice trick, batched); vega and rho are central finite
    differences over four bump variants rolled in the same fused task
    as the base contracts, so the whole workload inherits the
    engine's chunking, worker fan-out, retry/quarantine and
    span/metrics instrumentation.  The scalar counterpart (and test
    oracle) is :func:`repro.finance.greeks.lattice_greeks`.

    Internally builds a ``PricingRequest(task="greeks")`` and executes
    it with :func:`run_request`, exactly like :func:`price`.

    :param steps: tree depth (>= 3), one value or one per option.
    :param kernel: ``"iv_a"``, ``"iv_b"`` (default) or ``"reference"``.
    :param config: :class:`EngineConfig`; mutually exclusive with
        ``workers``.  Forces a dedicated engine for this call.
    :param workers: shorthand for ``EngineConfig(workers=...)``.
    :param family: lattice parameterisation (kernel IV.B requires CRR).
    :param precision: ``"double"`` or ``"single"``.
    :param backend: kernel backend — see :func:`price`.
    :param bump_vol: absolute volatility bump for the vega difference.
    :param bump_rate: absolute rate bump for the rho difference.
    :param tracer: optional :class:`repro.obs.trace.Tracer`.  Forces a
        dedicated engine for this call.
    :param strict: ``True`` re-raises the first pricing failure;
        ``False`` returns NaN in the affected columns plus
        :class:`FailureRecord` entries naming the failing pass.
    :param engine: an open :class:`PricingEngine` to run on (caller
        keeps ownership); mutually exclusive with ``config``/
        ``workers``/``tracer``.  Default calls share engines exactly
        like :func:`price`.
    """
    options = list(options)
    if config is not None and workers is not None:
        raise ReproError("pass either config or workers, not both")
    if engine is not None and (config is not None or workers is not None
                               or tracer is not None):
        raise ReproError(
            "engine= is mutually exclusive with config/workers/tracer — "
            "configure the engine you pass in")
    if not options:
        empty = np.empty(0, dtype=np.float64)
        return GreeksResult(prices=empty, delta=empty.copy(),
                            gamma=empty.copy(), theta=empty.copy(),
                            vega=empty.copy(), rho=empty.copy())
    if engine is not None:
        request = PricingRequest(
            options=tuple(options), steps=_steps_spec(steps),
            kernel=engine.kernel, precision=_profile_precision(engine.profile),
            family=engine.family, task="greeks", strict=strict,
            backend=engine.config.backend,
            bump_vol=bump_vol, bump_rate=bump_rate)
    else:
        request = PricingRequest(
            options=tuple(options), steps=_steps_spec(steps),
            kernel=kernel, precision=precision, family=family,
            task="greeks", strict=strict, workers=workers, backend=backend,
            bump_vol=bump_vol, bump_rate=bump_rate)
    result = _run_engine_route(request, config, tracer, engine)
    return _greeks_result(request, result)


def _steps_spec(steps) -> "int | tuple[int, ...]":
    if np.ndim(steps) == 0:
        return int(steps)
    return tuple(int(s) for s in steps)


def _price_accelerator(options, steps, device, kernel, config, family,
                       precision, tracer) -> PriceResult:
    if np.ndim(steps) != 0:
        raise ReproError(
            "accelerator routes price one tree depth per batch; pass a "
            "single steps value (or split the stream per depth)")
    if isinstance(device, BinomialAccelerator):
        accelerator, owned = device, False
    elif device in _DEVICES:
        if kernel is None:
            kernel = "reference" if device == "cpu" else "iv_b"
        accelerator, owned = BinomialAccelerator(
            platform=device, kernel=kernel, precision=precision,
            steps=int(steps), family=family, engine_config=config,
            tracer=tracer,
        ), True
    else:
        raise ReproError(
            f"device must be one of {_DEVICES}, a BinomialAccelerator, or "
            f"None for the host engine; got {device!r}")
    try:
        modeled = accelerator._price_batch_impl(options)
    finally:
        if owned:
            accelerator.close()
    return PriceResult(prices=modeled.prices, route="accelerator",
                       modeled=modeled)
