"""Content-keyed result cache for the pricing service.

Two requests that *mean* the same computation must hash the same, and
two that differ in any value-affecting way must not.  The key is a
blake2b digest over a canonical byte string of everything that
determines the numbers:

* the task and its numeric knobs (``bump_vol``/``bump_rate`` for
  greeks),
* the lattice configuration (``kernel``, ``precision``, ``family``),
* the request's option column block
  (:class:`~repro.finance.OptionArrays`), hashed as its raw float64
  bytes — ``0.1`` and the nearest double hash identically, but *any*
  ULP difference (``-0.0`` against ``0.0`` included) changes the key
  — and every option's tree depth.

``strict``, ``workers`` and ``backend`` are deliberately excluded:
they change how the caller sees failures and how fast the answer
arrives, never what the answer is — kernel backends are bit-identical
by contract (asserted by ``tests/backends``), so a price computed on
``cnative`` legitimately serves a later ``numpy`` request.  (The
*batch* key does include the backend: coalescing decides which engine
runs, caching only what the numbers are.)  Results containing
failures are never cached, so a cached entry is always a clean answer
and ``strict`` cannot matter on a hit.

The cache itself is a byte-budgeted LRU: entries are charged the size
of their numpy payload, the least-recently-*used* entry is evicted
when the budget overflows, and an entry larger than the whole budget
is simply not admitted.  All methods are thread-safe.

With ``verify=True`` every entry is checksummed (blake2b over its
payload bytes) at admission and re-verified on each hit; an entry
whose bytes changed underneath the cache — the chaos harness's
bit-flip injection, or real silent corruption — is discarded and the
lookup misses, so the service recomputes instead of serving a wrong
number.  Parity over latency: a corrupted hit is the one failure mode
a pricing cache must never have.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..api import PricingRequest

__all__ = ["CacheEntry", "ResultCache", "request_key"]


def request_key(request: PricingRequest) -> str:
    """Canonical content key of a request (hex blake2b digest)."""
    head = [
        "repro-service-key/v2",
        request.task,
        request.kernel,
        request.precision,
        request.family.value,
        str(len(request)),
    ]
    if request.task == "greeks":
        head.append(float(request.bump_vol).hex())
        head.append(float(request.bump_rate).hex())
    digest = hashlib.blake2b("\n".join(head).encode("utf-8"),
                             digest_size=20)
    digest.update(np.ascontiguousarray(request.columns.block).tobytes())
    digest.update(np.asarray(request.steps_per_option(),
                             dtype=np.int64).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True, slots=True)
class CacheEntry:
    """The payload one cached request resolves to.

    ``block`` is one owned, read-only ``(columns, n)`` float64 array:
    row 0 holds the prices and, for greeks-task entries, rows 1-5 the
    ``(delta, gamma, theta, vega, rho)`` columns
    (:data:`~repro.api.RESULT_COLUMNS` order).  One array instead of
    one per column keeps a cached greeks entry at half the memory.
    """

    block: np.ndarray

    @classmethod
    def freeze(cls, columns) -> "CacheEntry":
        """An entry over a write-protected block of ``columns`` (safe to
        share across callers): an owned copy, except that a read-only
        float64 block — a service result's payload — is shared as is."""
        if (isinstance(columns, np.ndarray) and not columns.flags.writeable
                and columns.dtype == np.float64):
            return cls(columns)
        block = np.array(columns, dtype=np.float64)
        block.setflags(write=False)
        return cls(block)

    @property
    def nbytes(self) -> int:
        return int(self.block.nbytes)

    def checksum(self) -> str:
        """blake2b digest over the payload bytes (verification key)."""
        return hashlib.blake2b(self.block.tobytes(),
                               digest_size=16).hexdigest()


class ResultCache:
    """Byte-budgeted, thread-safe LRU of :class:`CacheEntry` values.

    :param max_bytes: payload budget; ``0`` disables the cache (every
        ``get`` misses, every ``put`` is dropped).
    :param verify: checksum entries at admission and re-verify on each
        hit; a mismatch discards the entry, misses, and increments
        :attr:`corruptions_detected`.
    """

    def __init__(self, max_bytes: int, verify: bool = False):
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self.verify = bool(verify)
        #: entries discarded because their bytes no longer matched the
        #: admission-time checksum (only ever non-zero with verify=True).
        self.corruptions_detected = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._digests: "dict[str, str]" = {}
        self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def bytes_used(self) -> int:
        with self._lock:
            return self._bytes

    def get(self, key: str) -> "CacheEntry | None":
        """The entry for ``key`` (refreshing its recency), or ``None``.

        With ``verify=True`` a hit whose payload fails its checksum is
        discarded and reported as a miss.  The checksum is computed
        *outside* the lock — hashing a multi-megabyte payload under
        the global lock would serialise every concurrent reader behind
        it — and the cache state is re-checked afterwards: if the
        entry was replaced or evicted while hashing, the lookup
        retries against whatever is current, so verification is always
        of the entry actually returned.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is None:
                    return None
                if not self.verify:
                    self._entries.move_to_end(key)
                    return entry
            digest = entry.checksum()  # outside the lock, on purpose
            with self._lock:
                if self._entries.get(key) is not entry:
                    continue  # replaced/evicted while hashing; retry
                if digest != self._digests.get(key):
                    del self._entries[key]
                    self._digests.pop(key, None)
                    self._bytes -= entry.nbytes
                    self.corruptions_detected += 1
                    return None
                self._entries.move_to_end(key)
                return entry

    def put(self, key: str, entry: CacheEntry) -> int:
        """Admit ``entry`` under ``key``; returns evictions performed.

        Oversized entries (``entry.nbytes > max_bytes``) are not
        admitted — evicting the whole cache for one un-reusable blob
        is worse than recomputing it.
        """
        size = entry.nbytes
        if size > self.max_bytes:
            return 0
        evicted = 0
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[key] = entry
            if self.verify:
                self._digests[key] = entry.checksum()
            self._bytes += size
            while self._bytes > self.max_bytes and self._entries:
                victim_key, victim = self._entries.popitem(last=False)
                self._digests.pop(victim_key, None)
                self._bytes -= victim.nbytes
                evicted += 1
        return evicted

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._digests.clear()
            self._bytes = 0
