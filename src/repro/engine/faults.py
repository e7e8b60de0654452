"""Deterministic, seeded fault injection for the pricing engine.

A production pricing service dies in ways a unit test never sees by
accident: a pricing call crashes, a chunk hangs behind a stuck
driver call, market data carries a NaN, a PCIe transfer times out (the
failure class the data-centre FPGA deployment papers treat as routine).
This module makes every one of those failure modes *reproducible*:

* :class:`FaultPlan` — an immutable schedule of per-option faults the
  engine threads through to every chunk it prices.  A spec fires while
  ``attempt < spec.attempts``, so "fail twice then succeed" and
  "fail forever" (:data:`ALWAYS`) are both stateless and therefore
  deterministic across threads, retries and quarantine splits.
* :class:`TransportFaultInjector` — a seeded failure schedule for the
  simulated OpenCL transport, hooked into
  :class:`~repro.opencl.queue.CommandQueue` (per-queue) and
  :mod:`repro.devices.link` (module-level), raising
  :class:`~repro.errors.TransportFaultError` on selected transfers or
  kernel launches.

Nothing here ever fires unless explicitly installed; the zero-fault
path through the engine stays bit-identical to the simulators.
"""

from __future__ import annotations

import enum
import random
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import TransportFaultError, WorkerCrashError

__all__ = [
    "ALWAYS",
    "FaultKind",
    "FaultSpec",
    "FaultPlan",
    "InjectedFaultError",
    "TransportFaultInjector",
]

#: ``attempts`` value meaning "fire on every attempt" (a poison fault
#: that no amount of retrying fixes — only quarantine isolates it).
ALWAYS = 1 << 30


class InjectedFaultError(RuntimeError):
    """The exception an injected ``RAISE`` fault throws.

    Deliberately a bare :class:`RuntimeError` subclass — *not* a
    :class:`~repro.errors.ReproError` — so tests exercise the engine's
    promise that arbitrary worker exceptions are normalised into the
    :class:`~repro.errors.EngineError` taxonomy.
    """


class FaultKind(enum.Enum):
    """What an injected fault does to the chunk it fires in."""

    #: Raise :class:`InjectedFaultError` before any pricing happens.
    RAISE = "raise"
    #: Price normally, then overwrite the targeted option's price with NaN.
    NAN = "nan"
    #: Sleep ``hang_s`` before pricing (a stuck driver call); with a
    #: ``chunk_timeout_s`` deadline the host sees a hung chunk.
    HANG = "hang"
    #: Raise :class:`~repro.errors.WorkerCrashError`, the engine-level
    #: trace of a crashed pricing call.  A process that really dies is
    #: the serving tier's shard supervisor's job (:mod:`repro.serve`).
    KILL = "kill"


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault, targeted at a stream position.

    :param option_index: position in the caller's option stream; the
        fault fires in whichever chunk contains that option, including
        the smaller chunks quarantine splits it into.
    :param kind: what happens (see :class:`FaultKind`).
    :param attempts: fire while the chunk's attempt number is below
        this (``1`` = fail once then heal; :data:`ALWAYS` = poison).
    :param hang_s: sleep duration for :attr:`FaultKind.HANG`.
    """

    option_index: int
    kind: FaultKind
    attempts: int = 1
    hang_s: float = 0.25


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of engine faults.

    The plan is immutable: "has this fault fired?" is a pure function
    of ``(spec, attempt)`` — no shared mutable state, so the same plan
    replays identically in inline, threaded and quarantine execution.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def active_specs(self, indices: Sequence[int],
                     attempt: int) -> "list[FaultSpec]":
        """Specs that fire for a chunk holding ``indices`` at ``attempt``."""
        targets = set(indices)
        return [spec for spec in self.specs
                if spec.option_index in targets and attempt < spec.attempts]

    def fire_before_pricing(self, indices: Sequence[int],
                            attempt: int) -> None:
        """Trigger RAISE / HANG / KILL faults for one chunk attempt."""
        for spec in self.active_specs(indices, attempt):
            if spec.kind is FaultKind.HANG:
                time.sleep(spec.hang_s)
            elif spec.kind is FaultKind.RAISE:
                raise InjectedFaultError(
                    f"injected fault on option {spec.option_index} "
                    f"(attempt {attempt})"
                )
            elif spec.kind is FaultKind.KILL:
                raise WorkerCrashError(
                    f"injected worker crash on option {spec.option_index} "
                    f"(attempt {attempt})"
                )

    def corrupt_prices(self, indices: Sequence[int], attempt: int,
                       prices: np.ndarray) -> np.ndarray:
        """Apply NAN faults to a freshly priced chunk result."""
        positions = {index: pos for pos, index in enumerate(indices)}
        for spec in self.active_specs(indices, attempt):
            if spec.kind is FaultKind.NAN:
                prices[positions[spec.option_index]] = np.nan
        return prices

    @classmethod
    def single(cls, option_index: int, kind: FaultKind,
               attempts: int = 1, hang_s: float = 0.25,
               seed: int = 0) -> "FaultPlan":
        """Convenience constructor for a one-fault plan."""
        return cls(specs=(FaultSpec(option_index=option_index, kind=kind,
                                    attempts=attempts, hang_s=hang_s),),
                   seed=seed)

    @classmethod
    def random(cls, seed: int, n_options: int, n_faults: int = 2,
               kinds: Sequence[FaultKind] = (FaultKind.RAISE, FaultKind.NAN),
               attempts: int = 1, hang_s: float = 0.25) -> "FaultPlan":
        """A seeded plan: same ``seed`` -> same targets and kinds.

        This is what the CI fault-injection matrix drives: three fixed
        seeds, three reproducible failure schedules.
        """
        rng = random.Random(f"fault-plan:{seed}")
        chosen = sorted(rng.sample(range(n_options),
                                   min(n_faults, n_options)))
        specs = tuple(
            FaultSpec(option_index=index, kind=rng.choice(tuple(kinds)),
                      attempts=attempts, hang_s=hang_s)
            for index in chosen
        )
        return cls(specs=specs, seed=seed)


class TransportFaultInjector:
    """Seeded transfer/launch failure schedule for the simulated transport.

    Install one on a :class:`~repro.opencl.queue.CommandQueue`
    (``fault_injector=`` constructor argument) or on the PCIe link model
    (:func:`repro.devices.link.install_fault_injector`).  Failures are
    chosen either explicitly (``fail_transfers`` / ``fail_launches``
    are call ordinals, 0-based) or by a seeded Bernoulli draw per call
    — in both cases the schedule is a pure function of the seed and
    the call sequence, so a failing run replays exactly.

    :param seed: reproducibility seed for the rate-based draws.
    :param transfer_failure_rate: probability a transfer fails.
    :param launch_failure_rate: probability a kernel launch fails.
    :param fail_transfers: transfer call ordinals that always fail.
    :param fail_launches: launch call ordinals that always fail.
    """

    def __init__(self, seed: int = 0,
                 transfer_failure_rate: float = 0.0,
                 launch_failure_rate: float = 0.0,
                 fail_transfers: Sequence[int] = (),
                 fail_launches: Sequence[int] = ()):
        self.seed = seed
        self.transfer_failure_rate = transfer_failure_rate
        self.launch_failure_rate = launch_failure_rate
        self.fail_transfers = frozenset(fail_transfers)
        self.fail_launches = frozenset(fail_launches)
        self._transfer_rng = random.Random(f"transport:{seed}:transfer")
        self._launch_rng = random.Random(f"transport:{seed}:launch")
        self.transfer_calls = 0
        self.launch_calls = 0
        self.transfer_faults = 0
        self.launch_faults = 0

    def on_transfer(self, nbytes: int, direction) -> None:
        """Called before each simulated transfer; raises to fail it."""
        ordinal = self.transfer_calls
        self.transfer_calls += 1
        draw = self._transfer_rng.random()
        if ordinal in self.fail_transfers or draw < self.transfer_failure_rate:
            self.transfer_faults += 1
            raise TransportFaultError(
                f"injected transfer fault (call {ordinal}, {nbytes} B, "
                f"{getattr(direction, 'value', direction)})"
            )

    def on_launch(self, kernel_name: str) -> None:
        """Called before each simulated kernel launch; raises to fail it."""
        ordinal = self.launch_calls
        self.launch_calls += 1
        draw = self._launch_rng.random()
        if ordinal in self.fail_launches or draw < self.launch_failure_rate:
            self.launch_faults += 1
            raise TransportFaultError(
                f"injected launch fault (call {ordinal}, kernel "
                f"{kernel_name!r})",
                code="CL_DEVICE_NOT_AVAILABLE",
            )
