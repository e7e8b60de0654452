"""Deterministic chaos injection for the service surfaces.

``engine/faults.py`` proved the pattern for chunk execution: a frozen,
seeded plan decides *up front* which events fail, so a chaotic run is
perfectly replayable.  This module extends it to the surfaces the
engine harness cannot reach — the coalescer, the result cache and the
engine supervisor:

* **coalescer stalls** — sleep before a merged flush executes, so
  in-bucket deadlines expire and backlog builds;
* **flush failures** — raise :class:`~repro.errors.ChaosInjectedError`
  in place of the merged engine run, exercising the per-request
  failure-scoping retry path;
* **engine wedges** — report the engine that just flushed as wedged,
  driving the supervisor's bounded restart/backoff machinery;
* **cache corruption** — flip bits in a just-stored cache entry, which
  the cache's checksum verification must detect and discard (the
  request is then recomputed, preserving bitwise parity);
* **eviction storms** — clear the whole cache, forcing recomputation.

All schedules are periodic with seeded periods: a surface's ``k``-th
event fires when ``k % every == every - 1``.  The plan is a pure
function of its seed, the injector counts events — rerun the same
seed against the same request stream and the same chaos happens at
the same places.  Production services never construct one of these;
``ServiceConfig.chaos`` defaults to ``None`` and every hook is behind
an ``is not None`` check.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..errors import ChaosInjectedError, ServiceError

__all__ = ["ChaosPlan", "ChaosInjector"]


@dataclass(frozen=True)
class ChaosPlan:
    """Frozen description of which service events misbehave.

    Periods of 0 disable a surface.  Build one directly for a targeted
    test, or :meth:`random` for a seeded mixed workload.

    :param seed: identifies the plan in error messages and keys the
        derived schedules of :meth:`random`.
    :param stall_every: every ``k``-th flush sleeps :attr:`stall_s`
        before executing.
    :param stall_s: coalescer stall duration, seconds.
    :param fail_every: every ``k``-th flush raises
        :class:`~repro.errors.ChaosInjectedError` instead of running.
    :param wedge_every: every ``k``-th *successful* flush reports its
        engine as wedged to the supervisor.
    :param corrupt_every: every ``k``-th cache store is bit-flipped
        after being written.
    :param evict_every: every ``k``-th cache store triggers a full
        cache clear (an eviction storm).
    """

    seed: int = 0
    stall_every: int = 0
    stall_s: float = 0.002
    fail_every: int = 0
    wedge_every: int = 0
    corrupt_every: int = 0
    evict_every: int = 0

    def __post_init__(self):
        for name in ("stall_every", "fail_every", "wedge_every",
                     "corrupt_every", "evict_every"):
            if getattr(self, name) < 0:
                raise ServiceError(
                    f"{name} must be >= 0, got {getattr(self, name)}")
        if self.stall_s < 0:
            raise ServiceError(f"stall_s must be >= 0, got {self.stall_s}")

    @classmethod
    def random(cls, seed: int) -> "ChaosPlan":
        """A mixed plan with every surface active, derived from ``seed``.

        Pure function of the seed (period draws come from
        ``random.Random(f"repro-chaos/{seed}")``), mirroring
        ``FaultPlan``'s replayability contract.
        """
        rng = random.Random(f"repro-chaos/{seed}")
        return cls(
            seed=seed,
            stall_every=rng.randint(3, 6),
            stall_s=0.001 + 0.004 * rng.random(),
            fail_every=rng.randint(4, 9),
            wedge_every=rng.randint(5, 11),
            corrupt_every=rng.randint(3, 7),
            evict_every=rng.randint(6, 13),
        )

    def active(self) -> bool:
        """True when at least one surface can fire."""
        return any((self.stall_every, self.fail_every, self.wedge_every,
                    self.corrupt_every, self.evict_every))


class ChaosInjector:
    """Counts service events and fires the plan's schedules.

    One per service instance; all methods are thread-safe (the
    coalescer owns most call sites, but ``submit()``-side cache hooks
    may race it).  :attr:`injected` tallies what actually fired so the
    acceptance suite can assert the run was genuinely chaotic.
    """

    def __init__(self, plan: ChaosPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._counts = {"flush": 0, "wedge": 0, "store": 0}
        #: events fired per surface, for test assertions.
        self.injected = {"stalls": 0, "flush_failures": 0, "wedges": 0,
                         "corruptions": 0, "evictions": 0}

    def _tick(self, surface: str) -> int:
        with self._lock:
            ordinal = self._counts[surface]
            self._counts[surface] = ordinal + 1
            return ordinal

    @staticmethod
    def _fires(ordinal: int, every: int) -> bool:
        return every > 0 and ordinal % every == every - 1

    def on_flush(self) -> None:
        """Hook before a merged flush executes: may stall, may raise."""
        ordinal = self._tick("flush")
        if self._fires(ordinal, self.plan.stall_every):
            with self._lock:
                self.injected["stalls"] += 1
            time.sleep(self.plan.stall_s)
        if self._fires(ordinal, self.plan.fail_every):
            with self._lock:
                self.injected["flush_failures"] += 1
            raise ChaosInjectedError(
                f"chaos: injected flush failure (flush {ordinal}, "
                f"seed {self.plan.seed})")

    def wedge_engine(self) -> bool:
        """Hook after a successful flush: is its engine 'wedged'?"""
        ordinal = self._tick("wedge")
        fired = self._fires(ordinal, self.plan.wedge_every)
        if fired:
            with self._lock:
                self.injected["wedges"] += 1
        return fired

    def on_cache_store(self, cache, entry) -> None:
        """Hook after a cache put: may corrupt the entry or clear all.

        Corruption flips one bit of the stored block *in place* (the
        cache holds the same frozen array object), so only the cache's
        checksum verification can tell — exactly the silent bit-rot
        scenario the verifying cache exists for.
        """
        ordinal = self._tick("store")
        if self._fires(ordinal, self.plan.corrupt_every):
            with self._lock:
                self.injected["corruptions"] += 1
            block = entry.block
            block.setflags(write=True)
            try:
                view = block.reshape(-1).view(np.uint64)
                view[ordinal % len(view)] ^= np.uint64(1 << 52)
            finally:
                block.setflags(write=False)
        if self._fires(ordinal, self.plan.evict_every):
            with self._lock:
                self.injected["evictions"] += 1
            cache.clear()

    def counts(self) -> dict:
        """Snapshot of fired-event tallies (copy, safe to mutate)."""
        with self._lock:
            return dict(self.injected)
