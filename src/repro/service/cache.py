"""The verification service's two cache layers.

Both are sound by construction, which is the whole point — a caching
verifier that can be talked into a wrong verdict is worse than no
verifier:

* :class:`TxMemoTable` memoizes *per-transaction typecheck outcomes
  keyed by txid*.  Soundness rests on chain embedding: a carrier's txid
  commits to the Typecoin transaction's full serialization (the §3
  correspondence check), and the block that confirmed it fixes the
  world its condition was discharged in — so the digest covers the
  presented bytes and that block's hash, and the same (txid, digest)
  pair can never name a different judgement.  Every lookup compares a
  digest re-derived from both — a stored one that disagrees (poisoned,
  or recorded under a block a reorg replaced) is evicted, counted, and
  the transaction is re-checked from scratch.  The memo stores only
  the boolean outcome; output propositions are always recomputed from
  the presented transaction, so a poisoned entry can at worst cause a
  recheck, never a wrong type.

* :class:`AffirmationCache` is the sigcache pattern applied to the
  proof checker's hottest leaf: ECDSA verification of ``assert`` /
  ``assert!`` affirmations.  The result is a pure function of
  (principal, pubkey, payload digest, signature), so a bounded LRU over
  that 4-tuple is malleability-safe for the same reason
  :mod:`repro.bitcoin.sigcache` is — the signature bytes are part of
  the key.  Install it with :func:`install_affirmation_cache`; the
  service installs one at construction and restores the previous one
  at close.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro import obs
from repro.logic import checker as _checker

__all__ = [
    "AffirmationCache",
    "LRU",
    "TxMemoTable",
    "install_affirmation_cache",
]


class LRU:
    """A minimal thread-safe bounded LRU map (move-to-front on hit)."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key, value) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            self._entries[key] = value
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def evict(self, key) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class TxMemoTable:
    """txid → typecheck-outcome memo with digest-checked lookups."""

    def __init__(self, capacity: int = 4096):
        self._lru = LRU(capacity)
        self.poison_rejected = 0

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def hits(self) -> int:
        return self._lru.hits

    @property
    def misses(self) -> int:
        return self._lru.misses

    def lookup(self, txid: bytes, digest: bytes) -> bool:
        """True when ``txid`` is memoized as checked *for these bytes*.

        A stored digest that disagrees with the presented one is a
        poisoned entry, or one a reorg made stale: it is evicted and
        counted, and the caller re-checks from scratch — the explicit
        "rejected by digest check" path the chaos scenario exercises.
        """
        stored = self._lru.get(txid)
        if stored is None:
            if obs.ENABLED:
                obs.inc("service.memo_misses_total")
            return False
        if stored != digest:
            self.poison_rejected += 1
            self._lru.evict(txid)
            if obs.ENABLED:
                obs.inc("service.memo_poison_rejected_total")
                obs.emit("service.poison_rejected", txid=txid.hex()[:16])
            return False
        if obs.ENABLED:
            obs.inc("service.memo_hits_total")
        return True

    def record(self, txid: bytes, digest: bytes) -> None:
        """Memoize a successful typecheck of ``txid`` at ``digest``."""
        self._lru.put(txid, digest)

    def poison(self, txid: bytes, fake_digest: bytes) -> None:
        """Deliberately corrupt the entry for ``txid`` (fault injection).

        This is the chaos layer's cache-poisoning injector: it plants an
        entry whose digest cannot match any honestly-presented bytes, so
        the next lookup must take the rejection path.
        """
        self._lru.put(txid, fake_digest)


class AffirmationCache(LRU):
    """Bounded LRU over affirmation-signature verification results.

    Keys are ``(principal_key_hash, pubkey, payload_digest, signature)``
    tuples built by :func:`repro.logic.checker.verify_affirmation`; values
    are booleans.  Subclasses :class:`LRU` only to give the installed
    object a distinguishable type in introspection and tests.
    """

    def __init__(self, capacity: int = 1 << 14):
        super().__init__(capacity)


def install_affirmation_cache(cache: AffirmationCache | None):
    """Install (or, with ``None``, remove) the checker-level cache.

    Returns the previously installed cache so callers can restore it —
    the service does this at close, keeping the global hook's lifetime
    exactly the service's.
    """
    previous = _checker.AFFIRMATION_CACHE
    _checker.AFFIRMATION_CACHE = cache
    return previous
