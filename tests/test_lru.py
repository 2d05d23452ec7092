"""The one bounded map: recency, eviction, and the pair ``put`` hands back."""

import pytest

from repro.lru import LRU


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
        assert lru.put("c", 3) == ("b", 2)
        assert lru.get("b") is None
        assert lru.get("a") == 1
        assert lru.get("c") == 3

    def test_put_existing_key_updates_without_evicting(self):
        lru = LRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.put("a", 10) is None
        assert len(lru) == 2
        assert lru.get("a") == 10

    def test_put_returns_the_evicted_pair_in_least_recent_order(self):
        lru = LRU(3)
        assert [lru.put(k, k.upper()) for k in "abc"] == [None] * 3
        lru.put("a", "A")  # a refreshed by put: b is now least recent
        assert "b" in lru  # asked, not used: b stays least recent
        assert lru.put("d", "D") == ("b", "B")
        assert lru.put("e", "E") == ("c", "C")
        assert lru.put("f", "F") == ("a", "A")
        assert len(lru) == 3

    def test_put_brings_an_overfull_map_back_to_its_bound(self):
        # A child forked in the middle of another thread's put starts one
        # entry over; its next put evicts down to the capacity.
        lru = LRU(2)
        for key in "abc":
            lru._entries[key] = key.upper()
        assert lru.put("d", "D") == ("b", "B")
        assert len(lru) == 2 and "c" in lru and "d" in lru

    def test_pop_and_clear(self):
        lru = LRU(2)
        lru.put("a", 1)
        assert lru.pop("a") == 1
        assert lru.pop("a") is None
        lru.put("b", 2)
        lru.clear()
        assert len(lru) == 0 and "b" not in lru

    def test_evict_drops_only_the_value_it_read(self):
        lru = LRU(2)
        read, stored = object(), object()
        lru.put("a", read)
        lru.evict("a", read)
        assert "a" not in lru
        lru.evict("a", read)  # not held: nothing to drop
        # Another thread stored a value after this one read: it stays.
        lru.put("a", stored)
        lru.evict("a", read)
        assert lru.get("a") is stored

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            LRU(0)
