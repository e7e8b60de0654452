"""Exception hierarchy shared by all repro subpackages.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  Subpackages
define more specific classes here rather than locally so that error
types never create import cycles between the finance, OpenCL-simulator
and HLS layers.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class FinanceError(ReproError):
    """Invalid financial instrument, market data or solver failure."""


class ConvergenceError(FinanceError):
    """An iterative solver (e.g. implied volatility) failed to converge."""


class OpenCLError(ReproError):
    """Base class for errors raised by the OpenCL platform simulator.

    Mirrors the role of non-``CL_SUCCESS`` status codes in the real CL
    API; :attr:`code` carries the symbolic status name.
    """

    #: Symbolic CL status name, e.g. ``"CL_INVALID_KERNEL_ARGS"``.
    code = "CL_ERROR"

    def __init__(self, message: str = "", code: str | None = None):
        super().__init__(message or self.code)
        if code is not None:
            self.code = code


class InvalidArgumentError(OpenCLError):
    """A kernel was launched with unset or ill-typed arguments."""

    code = "CL_INVALID_KERNEL_ARGS"


class InvalidWorkGroupError(OpenCLError):
    """NDRange/work-group shape violates a device or API constraint."""

    code = "CL_INVALID_WORK_GROUP_SIZE"


class MemoryError_(OpenCLError):
    """Out-of-bounds buffer access or allocation beyond device limits."""

    code = "CL_MEM_OBJECT_ALLOCATION_FAILURE"


class BarrierDivergenceError(OpenCLError):
    """Work-items of one work-group did not all reach the same barrier."""

    code = "CL_BARRIER_DIVERGENCE"


class TransportFaultError(OpenCLError):
    """A (simulated) host<->device transfer or kernel launch failed.

    Real runtimes surface these conditions as ``CL_OUT_OF_RESOURCES``
    or ``CL_DEVICE_NOT_AVAILABLE``; the fault-injection layer raises
    this type so host programs can distinguish *recoverable* transport
    errors (worth a retry, per the data-centre FPGA deployment
    literature) from programming errors, which stay fatal.
    """

    code = "CL_OUT_OF_RESOURCES"


class EngineError(ReproError):
    """Base class for batched-pricing-engine failures.

    Chunk-level failures inside :class:`~repro.engine.PricingEngine`
    (pricing exceptions, deadline overruns, simulated crashes, poison
    inputs) are normalised to this taxonomy so callers never see a bare
    ``RuntimeError`` or a ``concurrent.futures`` internal leak through
    the API boundary.
    """


class ChunkTimeoutError(EngineError):
    """A chunk exceeded its wall-clock deadline (``chunk_timeout_s``)."""


class WorkerCrashError(EngineError):
    """A pricing call crashed mid-chunk (injected by a ``KILL`` fault)."""


class PoisonChunkError(EngineError):
    """A chunk kept failing (or produced non-finite prices) after retries."""


class BackendUnavailableError(EngineError):
    """A requested :class:`~repro.backends.KernelBackend` cannot run here.

    Raised when a backend's toolchain is missing (no working C
    compiler) or its compilation fails.  ``auto``
    resolution catches this and falls through to the next candidate,
    ending at the always-available NumPy backend; an *explicitly*
    requested backend propagates it so a pinned configuration never
    silently runs on different code.
    """


class ServiceError(ReproError):
    """Base class for pricing-service failures.

    Raised by :class:`~repro.service.PricingService` for request-level
    conditions that are the *caller's* to handle — submitting to a
    closed service, malformed requests — as opposed to per-option
    pricing failures, which travel inside
    :class:`~repro.api.ServiceResult.failures` exactly like the
    engine's :class:`~repro.engine.reliability.FailureRecord` contract.
    """


class ServiceOverloadedError(ServiceError):
    """The service's admission queue is full (backpressure).

    The bounded request queue protects the coalescer from unbounded
    memory growth under overload; callers should back off and retry,
    shed load, or raise ``ServiceConfig.max_queue``.  Under overload
    the service also *sheds*: admitting a high-priority request may
    evict the oldest normal-priority entry from the queue, whose
    future then fails with this error.
    """


class DeadlineExceededError(ServiceError):
    """A request's ``deadline_ms`` expired before its result was ready.

    Raised on the request's future when the deadline passes while the
    request is still queued or bucketed (the engine never runs it), or
    when a joined in-flight computation finishes past the deadline.
    A deadline that is still live at flush time bounds the engine's
    per-chunk timeout for the flush that carries the request.
    """


class ChaosInjectedError(ServiceError):
    """A failure injected by the service chaos harness.

    Only ever raised when a :class:`~repro.service.chaos.ChaosPlan` is
    installed on the service under test; production configurations
    never see it.  Typed under :class:`ServiceError` so the service's
    per-request failure scoping recovers from it exactly like a real
    flush-level fault.
    """


class ShardCrashError(ServiceError):
    """A serving-tier shard died (or was wedged) while holding requests.

    Raised on the futures of every request that was in flight on the
    shard when its worker process exited, stopped answering health
    pings, or was replaced by the supervisor.  The request itself may
    have been perfectly valid — callers should retry against the
    (restarted) server, exactly like any partial-outage error.
    """


class StreamError(ReproError):
    """Invalid streaming-risk configuration or tick data.

    Raised for malformed tick records (unknown field, non-finite
    value, unreadable tick file), ticks addressed to instruments the
    :class:`~repro.stream.PositionBook` does not hold, and aggregate
    queries against a book that has never been priced.
    """


class SweepError(ReproError):
    """Invalid scenario-sweep specification or run-store state.

    Raised by :mod:`repro.sweep` for malformed :class:`SweepSpec`
    documents (unknown axis, unregistered constraint, wrong schema
    tag), corrupt run-store files (an undecodable row that is not the
    crash-truncated final line), and spec/store mismatches (resuming a
    store against a spec with a different fingerprint).  Per-cell
    *pricing* failures are not this type — they keep their own engine
    and service error codes inside the failed row.
    """


class HLSError(ReproError):
    """Base class for HLS compiler-model errors."""


class FitError(HLSError):
    """The design does not fit on the selected FPGA part."""


class CompileOptionError(HLSError):
    """Inconsistent compiler options (e.g. SIMD width not a power of two)."""


class DeviceModelError(ReproError):
    """Invalid device-model configuration or query."""


# ---------------------------------------------------------------------------
# The wire error table — the serving tier's error contract.
#
# Every error the service/engine stack can hand a remote caller has one
# stable wire code (what external clients switch on; never renamed once
# published) and one HTTP status (what load balancers and generic HTTP
# tooling act on).  ``docs/wire_schema.md`` documents the table;
# ``tests/serve/test_wire.py`` asserts it is total over the serving
# error surface and stable.

#: ``exception class -> (wire code, HTTP status)``, most-derived first.
#: Lookup walks the MRO, so subclasses not listed here inherit their
#: nearest ancestor's code — a *new* error type degrades to a coarse
#: code instead of breaking clients.
WIRE_ERRORS: "dict[type, tuple[str, int]]" = {
    # service-level delivery errors
    ShardCrashError: ("shard_crash", 503),
    ChaosInjectedError: ("chaos_injected", 500),
    DeadlineExceededError: ("deadline_exceeded", 504),
    ServiceOverloadedError: ("overloaded", 503),
    ServiceError: ("service_error", 500),
    # engine-level pricing failures
    BackendUnavailableError: ("backend_unavailable", 501),
    PoisonChunkError: ("poison_chunk", 422),
    WorkerCrashError: ("worker_crash", 500),
    ChunkTimeoutError: ("chunk_timeout", 504),
    EngineError: ("engine_error", 500),
    # simulated-platform and model errors (flow through FailureRecords)
    TransportFaultError: ("transport_fault", 503),
    OpenCLError: ("opencl_error", 500),
    HLSError: ("hls_error", 500),
    DeviceModelError: ("device_model_error", 500),
    # request/content errors
    ConvergenceError: ("no_convergence", 422),
    FinanceError: ("invalid_market_data", 400),
    SweepError: ("sweep_error", 400),
    ReproError: ("bad_request", 400),
}

#: Wire code used for exceptions outside the :class:`ReproError`
#: hierarchy (a bug, not a contract violation by the caller).
INTERNAL_WIRE_CODE = "internal"
INTERNAL_HTTP_STATUS = 500

#: Wire code for a request the caller abandoned (client disconnect /
#: explicit cancel); 499 is the de-facto "client closed request"
#: status (nginx), which no stdlib table names.
CANCELLED_WIRE_CODE = "cancelled"
CANCELLED_HTTP_STATUS = 499


def wire_error(exc: BaseException) -> "tuple[str, int]":
    """The ``(wire code, HTTP status)`` of any exception.

    Walks the exception's MRO through :data:`WIRE_ERRORS`, so every
    :class:`ReproError` subclass maps to its nearest listed ancestor;
    anything else is :data:`INTERNAL_WIRE_CODE`.
    """
    for klass in type(exc).__mro__:
        entry = WIRE_ERRORS.get(klass)
        if entry is not None:
            return entry
    return (INTERNAL_WIRE_CODE, INTERNAL_HTTP_STATUS)


def error_from_wire(code: str, message: str) -> ReproError:
    """Rebuild a typed exception from its wire code (client side).

    Returns the *most derived* exception class registered under
    ``code`` (the table is ordered most-derived first), so a client
    catching :class:`DeadlineExceededError` behaves identically
    whether the deadline expired locally or across the network.
    Unknown codes come back as plain :class:`ReproError` — a newer
    server must not crash an older client.
    """
    for klass, (wire_code, _status) in WIRE_ERRORS.items():
        if wire_code == code:
            return klass(message)
    return ReproError(f"[{code}] {message}")
