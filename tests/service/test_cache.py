"""Tests for the content key and the byte-budgeted LRU result cache."""

import dataclasses

import numpy as np
import pytest

from repro.api import PricingRequest
from repro.finance import generate_batch
from repro.service import CacheEntry, ResultCache, request_key

STEPS = 16


@pytest.fixture(scope="module")
def batch():
    return tuple(generate_batch(n_options=6, seed=11).options)


def _request(batch, **overrides):
    kwargs = dict(options=batch, steps=STEPS, kernel="iv_b")
    kwargs.update(overrides)
    return PricingRequest(**kwargs)


def _entry(n=1, value=1.0):
    return CacheEntry.freeze([np.full(n, value, dtype=np.float64)])


class TestRequestKey:
    def test_identical_content_hashes_identically(self, batch):
        assert request_key(_request(batch)) == request_key(_request(batch))

    def test_rebuilt_options_hash_identically(self, batch):
        rebuilt = tuple(dataclasses.replace(option) for option in batch)
        assert request_key(_request(batch)) == request_key(_request(rebuilt))

    @pytest.mark.parametrize("override", [
        {"steps": STEPS * 2},
        {"kernel": "reference"},
        {"precision": "single"},
        {"task": "greeks"},
    ])
    def test_value_affecting_fields_change_the_key(self, batch, override):
        assert (request_key(_request(batch, **override))
                != request_key(_request(batch)))

    def test_any_option_field_changes_the_key(self, batch):
        options = list(batch)
        options[2] = dataclasses.replace(options[2],
                                         volatility=options[2].volatility
                                         + 1e-12)
        assert (request_key(_request(tuple(options)))
                != request_key(_request(batch)))

    def test_greeks_bumps_change_the_key(self, batch):
        base = _request(batch, task="greeks")
        bumped = _request(batch, task="greeks", bump_vol=2e-3)
        assert request_key(base) != request_key(bumped)

    def test_delivery_knobs_do_not_change_the_key(self, batch):
        # strict and workers shape error handling and speed, never the
        # numbers — requests differing only there must share an entry
        assert (request_key(_request(batch, strict=False, workers=2))
                == request_key(_request(batch)))

    def test_option_order_changes_the_key(self, batch):
        assert (request_key(_request(tuple(reversed(batch))))
                != request_key(_request(batch)))


class TestResultCache:
    def test_get_miss_then_hit(self):
        cache = ResultCache(1024)
        assert cache.get("k") is None
        entry = _entry()
        assert cache.put("k", entry) == 0
        assert cache.get("k") is entry
        assert cache.bytes_used == entry.nbytes

    def test_lru_eviction_order(self):
        # budget for exactly two one-float entries
        cache = ResultCache(16)
        cache.put("a", _entry())
        cache.put("b", _entry())
        cache.get("a")  # refresh: b is now least recently used
        assert cache.put("c", _entry()) == 1
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None

    def test_oversized_entry_not_admitted(self):
        cache = ResultCache(16)
        cache.put("a", _entry())
        assert cache.put("big", _entry(n=4)) == 0
        assert cache.get("big") is None
        assert cache.get("a") is not None  # nothing was evicted for it

    def test_replacing_a_key_reuses_its_budget(self):
        cache = ResultCache(16)
        cache.put("a", _entry(value=1.0))
        assert cache.put("a", _entry(value=2.0)) == 0
        assert len(cache) == 1
        assert cache.bytes_used == 8
        assert cache.get("a").block[0, 0] == 2.0

    def test_zero_budget_disables_the_cache(self):
        cache = ResultCache(0)
        assert cache.put("a", _entry()) == 0
        assert cache.get("a") is None
        assert cache.bytes_used == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(-1)

    def test_clear(self):
        cache = ResultCache(1024)
        cache.put("a", _entry())
        cache.clear()
        assert len(cache) == 0 and cache.bytes_used == 0

    def test_frozen_arrays_are_read_only_copies(self):
        source = np.ones(3)
        entry = CacheEntry.freeze([source])
        source[0] = 7.0
        assert entry.block[0, 0] == 1.0
        with pytest.raises(ValueError):
            entry.block[0, 1] = 2.0

    def test_entry_nbytes_counts_greeks_columns(self):
        price = CacheEntry.freeze([np.ones(2)])
        greeks = CacheEntry.freeze([np.full(2, float(row))
                                    for row in range(6)])
        assert price.block.shape == (1, 2) and price.nbytes == 16
        assert greeks.block.shape == (6, 2) and greeks.nbytes == 96
        assert greeks.block.flags.owndata
        assert np.array_equal(greeks.block[4], [4.0, 4.0])


class TestVerification:
    @staticmethod
    def _flip_bit(entry, row=0):
        block = entry.block
        block.setflags(write=True)
        try:
            block[row].view(np.uint64)[0] ^= np.uint64(1)
        finally:
            block.setflags(write=False)

    def test_corrupted_hit_is_discarded_and_counted(self):
        cache = ResultCache(1024, verify=True)
        entry = _entry()
        cache.put("k", entry)
        self._flip_bit(entry)
        assert cache.get("k") is None
        assert cache.corruptions_detected == 1
        assert len(cache) == 0 and cache.bytes_used == 0

    def test_clean_hit_survives_verification(self):
        cache = ResultCache(1024, verify=True)
        entry = _entry()
        cache.put("k", entry)
        assert cache.get("k") is entry
        assert cache.corruptions_detected == 0

    def test_verification_off_serves_corrupted_bytes(self):
        # the contrast case: without verify the cache cannot tell
        cache = ResultCache(1024, verify=False)
        entry = _entry()
        cache.put("k", entry)
        self._flip_bit(entry)
        assert cache.get("k") is entry

    def test_greeks_columns_are_checksummed_too(self):
        entry = CacheEntry.freeze([np.ones(1)] * 6)
        cache = ResultCache(1024, verify=True)
        cache.put("k", entry)
        self._flip_bit(entry, row=4)  # vega
        assert cache.get("k") is None
        assert cache.corruptions_detected == 1

    def test_eviction_drops_the_digest(self):
        cache = ResultCache(8, verify=True)
        cache.put("a", _entry())
        cache.put("b", _entry())  # evicts a
        assert cache.get("a") is None
        assert cache._digests.keys() == {"b"}


class TestThreadedStress:
    def test_concurrent_churn_at_tiny_budget(self):
        """Satellite stress: get/put/clear churn must not corrupt state.

        A tiny budget forces constant eviction while readers race
        writers; afterwards the cache must be exactly consistent —
        byte accounting matches the surviving entries, residency never
        exceeded the budget, and every hit returned a valid entry.
        Worker 0 additionally flips bits in entries it admitted while
        they may still be resident, so the verify-mode hit path (hash
        outside the lock, re-check, discard on mismatch) is exercised
        under the same churn.
        """
        import threading

        budget = 64  # eight one-float entries
        cache = ResultCache(budget, verify=True)
        keys = [f"key-{i}" for i in range(32)]
        errors = []
        start = threading.Barrier(8)

        def worker(seed):
            rng = np.random.default_rng(seed)
            mine = []
            start.wait()
            try:
                for step in range(400):
                    key = keys[int(rng.integers(len(keys)))]
                    action = step % 4
                    if action == 0:
                        entry = _entry(value=float(seed))
                        cache.put(key, entry)
                        mine.append(entry)
                    elif action == 1 and seed == 0 and mine:
                        # live silent corruption: racing readers must
                        # discard, never serve, the flipped entry
                        TestVerification._flip_bit(
                            mine[int(rng.integers(len(mine)))])
                    elif action == 3 and step % 100 == 99:
                        cache.clear()
                    else:
                        hit = cache.get(key)
                        if hit is not None:
                            assert hit.block.shape == (1, 1)
                    assert cache.bytes_used <= budget
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,))
                   for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # final accounting is exact, not merely bounded
        assert cache.bytes_used == sum(
            entry.nbytes for entry in cache._entries.values())
        assert cache.bytes_used <= budget
        assert set(cache._digests) <= set(cache._entries)
        # Corruptions may or may not have been *observed* (a flipped
        # entry can be evicted before any reader hashes it), but the
        # counter must never go backwards or explode past the flips.
        assert 0 <= cache.corruptions_detected <= 400


class TestVerificationLocking:
    """The verify-mode hit path must hash outside the global lock."""

    def test_checksum_runs_outside_the_lock(self):
        # Regression: get() used to compute the blake2b payload digest
        # while holding the cache lock, serialising every concurrent
        # reader behind hashing.
        cache = ResultCache(1024, verify=True)
        held_during_hash = []

        class _ProbeEntry(CacheEntry):
            def checksum(entry_self):
                free = cache._lock.acquire(blocking=False)
                if free:
                    cache._lock.release()
                held_during_hash.append(not free)
                return CacheEntry.checksum(entry_self)

        entry = _ProbeEntry.freeze([np.ones(1)])
        cache.put("k", entry)
        # Admission hashes under the lock (cheap, once); only the hit
        # path's hashing matters for reader concurrency.
        held_during_hash.clear()
        assert cache.get("k") is entry
        assert held_during_hash == [False]

    def test_replaced_while_hashing_retries_to_current_entry(self):
        cache = ResultCache(1024, verify=True)
        replacement = _entry(value=2.0)

        class _SwappedEntry(CacheEntry):
            def checksum(entry_self):
                # Swap the key out from under the in-progress get() —
                # only possible when hashing runs outside the lock.
                if cache._lock.acquire(blocking=False):
                    cache._lock.release()
                    if cache._entries.get("k") is entry_self:
                        cache.put("k", replacement)
                return CacheEntry.checksum(entry_self)

        cache.put("k", _SwappedEntry.freeze([np.ones(1)]))
        # get() hashes the old entry, notices it is no longer current,
        # and retries against (and verifies) the replacement.
        assert cache.get("k") is replacement
        assert cache.corruptions_detected == 0
