"""The memo and affirmation caches: held admissions, poison rejection and
the affirmation cache's install hook (LRU mechanics: ``tests/test_lru.py``)."""

import pytest

from repro.core.verifier import Admission
from repro.crypto.hashing import sha256
from repro.logic import checker as _checker
from repro.lru import LRU
from repro.service import cache
from repro.service.cache import TxMemoTable, install_affirmation_cache


class TestTxMemoTable:
    TXID = b"\x11" * 32
    HASH = sha256(b"transaction")
    BLOCK = sha256(b"block")
    HELD = Admission(HASH, BLOCK, frozenset({b"\x22" * 32}), resolved=None)

    def test_miss_then_hit(self):
        memo = TxMemoTable()
        assert memo.get(self.TXID) is None
        assert memo.judge(self.TXID, None, self.HASH, self.BLOCK) is None
        memo.record(self.TXID, self.HELD)
        held = memo.get(self.TXID)
        assert held is self.HELD
        assert memo.judge(self.TXID, held, self.HASH, self.BLOCK) is self.HELD
        # The read is not counted: only the judgement is.
        assert (memo.hits, memo.misses, memo.poison_rejected) == (1, 1, 0)

    @pytest.mark.parametrize("stale", ["hash", "block"])
    def test_an_entry_under_other_hashes_is_evicted_not_believed(self, stale):
        """Another transaction under the txid, or its carrier re-confirmed
        in another block by a reorg."""
        memo = TxMemoTable()
        memo.record(self.TXID, self.HELD)
        asked = {"hash": self.HASH, "block": self.BLOCK, stale: sha256(b"x")}
        held = memo.get(self.TXID)
        assert memo.judge(self.TXID, held, asked["hash"], asked["block"]) is None
        assert (memo.hits, memo.misses, memo.poison_rejected) == (0, 0, 1)
        assert len(memo) == 0

    def test_poisoned_entry_rejected_and_evicted(self):
        memo = TxMemoTable()
        memo.record(self.TXID, self.HELD)
        memo.poison(self.TXID, b"\x00" * 32)
        # The hash check catches the corruption: no hit, entry gone.
        held = memo.get(self.TXID)
        assert held.hash != self.HASH
        assert memo.judge(self.TXID, held, self.HASH, self.BLOCK) is None
        assert (memo.hits, memo.misses, memo.poison_rejected) == (0, 0, 1)
        # The table is empty again, so an honest re-record works.
        assert len(memo) == 0
        memo.record(self.TXID, self.HELD)
        held = memo.get(self.TXID)
        assert memo.judge(self.TXID, held, self.HASH, self.BLOCK) is self.HELD

    def test_a_stale_read_leaves_a_fresh_admission_held(self):
        """A request read a stale entry; another request recorded a fresh
        admission before the first judged what it read.  The stale entry
        is rejected, and the fresh one is not evicted in its place."""
        memo = TxMemoTable()
        stale = self.HELD._replace(block_hash=sha256(b"replaced block"))
        memo.record(self.TXID, stale)
        held = memo.get(self.TXID)
        fresh = self.HELD._replace(refs=frozenset())
        memo.record(self.TXID, fresh)
        assert memo.judge(self.TXID, held, self.HASH, self.BLOCK) is None
        assert (memo.hits, memo.misses, memo.poison_rejected) == (0, 0, 1)
        assert memo.get(self.TXID) is fresh

    def test_capacity_bounds_entries(self, monkeypatch):
        monkeypatch.setattr(cache, "MEMO_CAPACITY", 2)
        memo = TxMemoTable()
        for i in range(5):
            memo.record(bytes([i]) * 32, self.HELD)
        assert len(memo) == 2


class TestAffirmationCacheInstall:
    def test_install_returns_previous_and_restores(self):
        original = _checker.AFFIRMATION_CACHE
        first = LRU(4)
        second = LRU(4)
        try:
            assert install_affirmation_cache(first) is original
            assert install_affirmation_cache(second) is first
            assert install_affirmation_cache(None) is second
            assert _checker.AFFIRMATION_CACHE is None
        finally:
            install_affirmation_cache(original)
        assert _checker.AFFIRMATION_CACHE is original
