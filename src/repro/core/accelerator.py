"""`BinomialAccelerator` — the library's front door.

Wraps one *configuration* (platform x kernel architecture x precision,
i.e. one Table II column) behind a single object that:

* prices option batches with the configuration's exact arithmetic
  (including the FPGA's flawed ``pow`` where applicable);
* predicts wall-clock time and energy for the batch from the
  calibrated device models;
* for FPGA configurations, carries the full HLS compile report
  (resources/Fmax/power) of the kernel it "runs".

Example::

    import repro
    from repro import BinomialAccelerator, generate_batch

    acc = BinomialAccelerator(platform="fpga", kernel="iv_b")
    batch = generate_batch(n_options=2000)
    result = repro.price(batch.options, steps=1024, device=acc).modeled
    print(result.options_per_second, result.energy_joules)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..devices.base import ComputeModel, Precision
from ..devices.cpu import cpu_compute_model
from ..devices.fpga import fpga_compute_model
from ..devices.gpu import gpu_compute_model
from ..errors import EngineError, ReproError
from ..finance.lattice import LatticeFamily
from ..finance.options import Option
from ..hls import KERNEL_A_OPTIONS, KERNEL_B_OPTIONS, CompiledKernel, compile_kernel
from .faithful_math import (
    ALTERA_13_0_DOUBLE,
    EXACT_DOUBLE,
    EXACT_SINGLE,
    MathProfile,
)
from .host_a import ReadbackMode
from .kernel_a import kernel_a_ir
from .kernel_b import kernel_b_ir
from .perf_model import (
    PerfEstimate,
    kernel_a_estimate,
    kernel_b_estimate,
    reference_estimate,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> core)
    from ..engine import EngineConfig, PricingEngine

__all__ = ["AcceleratorResult", "BinomialAccelerator"]

_PLATFORMS = ("fpga", "gpu", "cpu")
_KERNELS = ("iv_a", "iv_b", "reference")


@dataclass(frozen=True)
class AcceleratorResult:
    """Prices plus the modeled cost of producing them."""

    prices: np.ndarray
    modeled_time_s: float
    energy_joules: float
    estimate: PerfEstimate

    @property
    def options_per_second(self) -> float:
        """Effective throughput at this batch size."""
        return len(self.prices) / self.modeled_time_s

    @property
    def options_per_joule(self) -> float:
        """Effective energy efficiency at this batch size."""
        return len(self.prices) / self.energy_joules


class BinomialAccelerator:
    """One accelerator configuration, ready to price batches.

    :param platform: ``"fpga"``, ``"gpu"`` or ``"cpu"``.
    :param kernel: ``"iv_a"``, ``"iv_b"`` or ``"reference"`` (CPU only).
    :param precision: ``"double"`` or ``"single"``.
    :param steps: tree discretisation (paper default 1024).
    :param readback: kernel IV.A readback mode.
    :param compile_fpga: derive the FPGA operating point from this
        library's HLS compile of the kernel IR (default) instead of
        the paper's printed Table I point.
    :param family: lattice parameterisation.
    :param engine_config: scheduling configuration for the batched
        pricing engine this accelerator's batches run through
        (``None`` = serial engine with a reused workspace).
    :param tracer: optional :class:`repro.obs.trace.Tracer` passed to
        the internal pricing engine, so accelerator-routed batches
        record the same run/group/chunk span hierarchy.
    """

    def __init__(
        self,
        platform: str = "fpga",
        kernel: str = "iv_b",
        precision: str = Precision.DOUBLE,
        steps: int = 1024,
        readback: str = ReadbackMode.FULL_BUFFER,
        compile_fpga: bool = True,
        family: LatticeFamily = LatticeFamily.CRR,
        engine_config: "EngineConfig | None" = None,
        tracer=None,
    ):
        if platform not in _PLATFORMS:
            raise ReproError(f"platform must be one of {_PLATFORMS}, got {platform!r}")
        if kernel not in _KERNELS:
            raise ReproError(f"kernel must be one of {_KERNELS}, got {kernel!r}")
        if kernel == "reference" and platform != "cpu":
            raise ReproError("the reference software runs on the CPU platform")
        if platform == "cpu" and kernel != "reference":
            raise ReproError("the CPU platform runs the reference software only")
        Precision.check(precision)
        ReadbackMode.check(readback)

        self.platform = platform
        self.kernel = kernel
        self.precision = precision
        self.steps = steps
        self.readback = readback
        self.family = family
        self.engine_config = engine_config
        self.tracer = tracer
        self._engine: "PricingEngine | None" = None
        self._closed = False
        self.compiled: CompiledKernel | None = None

        if platform == "fpga":
            if compile_fpga:
                ir = kernel_a_ir() if kernel == "iv_a" else kernel_b_ir(steps)
                options = KERNEL_A_OPTIONS if kernel == "iv_a" else KERNEL_B_OPTIONS
                self.compiled = compile_kernel(ir, options)
            self.model: ComputeModel = fpga_compute_model(
                kernel, operating_point=self.compiled, precision=precision
            )
        elif platform == "gpu":
            self.model = gpu_compute_model(kernel, precision)
        else:
            self.model = cpu_compute_model(precision)

        self.profile = self._select_profile()

    def _select_profile(self) -> MathProfile:
        if self.precision == Precision.SINGLE:
            return EXACT_SINGLE
        if self.platform == "fpga" and self.kernel == "iv_b":
            # the Altera 13.0 double-precision pow defect (paper V.C)
            return ALTERA_13_0_DOUBLE
        return EXACT_DOUBLE

    # -- pricing -----------------------------------------------------------

    def _pricing_engine(self) -> "PricingEngine":
        """Lazily build the batched engine this accelerator prices with."""
        if self._closed:
            raise EngineError(
                "this BinomialAccelerator is closed; pricing after close() "
                "is not supported — construct a new accelerator")
        if self._engine is None:
            # Imported here: the engine package imports core modules.
            from ..engine import PricingEngine

            self._engine = PricingEngine(
                kernel=self.kernel,
                profile=self.profile,
                family=self.family,
                config=self.engine_config,
                tracer=self.tracer,
            )
        return self._engine

    def close(self) -> None:
        """Release the engine's workspace and worker pool, if any.

        Idempotent; pricing a closed accelerator raises
        :class:`~repro.errors.EngineError` (it used to silently build
        a fresh engine, unlike the engine route — the two now agree).
        """
        self._closed = True
        if self._engine is not None:
            self._engine.close()
            self._engine = None

    def __enter__(self) -> "BinomialAccelerator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _price_batch_impl(self, options: Sequence[Option]) -> AcceleratorResult:
        """Price a batch with this configuration's exact arithmetic.

        Prices come from the vectorised kernel semantics (validated
        against the coroutine simulator), scheduled through the batched
        pricing engine; time and energy come from the calibrated
        performance model at this batch size.
        """
        if not options:
            raise ReproError("empty option batch")
        options = list(options)

        prices = self._pricing_engine().price(options, self.steps)

        estimate = self.performance()
        time_s = estimate.time_for(len(options))
        return AcceleratorResult(
            prices=prices,
            modeled_time_s=time_s,
            energy_joules=time_s * estimate.power_w,
            estimate=estimate,
        )

    # -- performance ----------------------------------------------------------

    def performance(self) -> PerfEstimate:
        """Steady-state performance prediction for this configuration."""
        if self.kernel == "iv_a":
            return kernel_a_estimate(self.model, self.steps, self.readback)
        if self.kernel == "iv_b":
            return kernel_b_estimate(self.model, self.steps)
        return reference_estimate(self.model, self.steps)

    def describe(self) -> str:
        """One-line configuration summary."""
        parts = [self.platform.upper(), f"kernel {self.kernel}", self.precision,
                 f"N={self.steps}", f"math={self.profile.name}"]
        if self.kernel == "iv_a":
            parts.append(f"readback={self.readback}")
        return " / ".join(parts)
