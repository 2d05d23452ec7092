"""The memo and affirmation caches: LRU mechanics and poison rejection."""

import pytest

from repro.crypto.hashing import sha256
from repro.logic import checker as _checker
from repro.service.cache import (
    LRU,
    AffirmationCache,
    TxMemoTable,
    install_affirmation_cache,
)


class TestLRU:
    def test_get_put_roundtrip(self):
        lru = LRU(4)
        lru.put("a", 1)
        assert lru.get("a") == 1
        assert lru.get("missing") is None
        assert lru.hits == 1
        assert lru.misses == 1

    def test_capacity_evicts_least_recent(self):
        lru = LRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")  # refresh "a": "b" is now least recent
        lru.put("c", 3)
        assert lru.get("b") is None
        assert lru.get("a") == 1
        assert lru.get("c") == 3
        assert lru.evictions == 1

    def test_put_existing_key_updates_without_evicting(self):
        lru = LRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("a", 10)
        assert len(lru) == 2
        assert lru.get("a") == 10
        assert lru.evictions == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRU(0)


class TestTxMemoTable:
    TXID = b"\x11" * 32

    def test_miss_then_hit(self):
        memo = TxMemoTable()
        digest = sha256(b"payload")
        assert not memo.lookup(self.TXID, digest)
        memo.record(self.TXID, digest)
        assert memo.lookup(self.TXID, digest)
        assert memo.hits == 1
        assert memo.misses == 1

    def test_poisoned_entry_rejected_and_evicted(self):
        memo = TxMemoTable()
        digest = sha256(b"payload")
        memo.record(self.TXID, digest)
        memo.poison(self.TXID, b"\x00" * 32)
        # The digest check catches the corruption: no hit, entry gone.
        assert not memo.lookup(self.TXID, digest)
        assert (memo.hits, memo.misses, memo.poison_rejected) == (0, 0, 1)
        # The table is empty again, so an honest re-record works.
        memo.record(self.TXID, digest)
        assert memo.lookup(self.TXID, digest)

    def test_capacity_bounds_entries(self):
        memo = TxMemoTable(capacity=2)
        for i in range(5):
            memo.record(bytes([i]) * 32, sha256(bytes([i])))
        assert len(memo) == 2


class TestAffirmationCacheInstall:
    def test_install_returns_previous_and_restores(self):
        original = _checker.AFFIRMATION_CACHE
        first = AffirmationCache()
        second = AffirmationCache()
        try:
            assert install_affirmation_cache(first) is original
            assert install_affirmation_cache(second) is first
            assert install_affirmation_cache(None) is second
            assert _checker.AFFIRMATION_CACHE is None
        finally:
            install_affirmation_cache(original)
        assert _checker.AFFIRMATION_CACHE is original
