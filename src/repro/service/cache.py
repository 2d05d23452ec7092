"""The verification service's two cache layers.

Both are sound by construction, which is the whole point — a caching
verifier that can be talked into a wrong verdict is worse than no
verifier:

* :class:`TxMemoTable` holds, per carrier txid, what ``admit``
  accepted after a full check: T's hash, the confirming block's hash,
  T's references and its ``this``-resolved basis and outputs.  It is
  keyed by content the prover shows, never by object identity: a
  carrier's txid fixes the carrier, T's hash fixes T (the §3
  correspondence check tied the two), and the block's hash fixes the
  world and prefix T was checked in — so a presented T with the held
  hash, confirmed in the held block, is owed the same judgement and the
  same resolution.  An entry under other hashes (poisoned, or recorded
  under a block a reorg replaced) is evicted, counted, and the
  transaction is checked from scratch.

* The affirmation cache is the sigcache pattern applied to the proof
  checker's hottest leaf: ECDSA verification of ``assert`` /
  ``assert!`` affirmations.  The result is a pure function of
  (principal, pubkey, payload digest, signature), so a bounded
  :class:`~repro.lru.LRU` over that 4-tuple is malleability-safe for
  the same reason :mod:`repro.bitcoin.sigcache` is — the signature
  bytes are part of the key.  Install it with
  :func:`install_affirmation_cache`; the service installs one at
  construction and restores the previous one at close.
"""

from __future__ import annotations

import threading

from repro import obs
from repro.core.validate import Resolved
from repro.core.verifier import Admission
from repro.lf.basis import Basis
from repro.logic import checker as _checker
from repro.lru import LRU

__all__ = ["TxMemoTable", "install_affirmation_cache"]


class TxMemoTable:
    """carrier txid → the :class:`~repro.core.verifier.Admission` that
    ``admit`` recorded, believed only under the same hashes."""

    def __init__(self, capacity: int = 4096):
        self._lru = LRU(capacity)
        # Counted here by outcome, not by the LRU: a found entry whose
        # hashes disagree is neither a hit nor a miss.  Requests look up
        # from several threads, so the counts move under a lock.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.poison_rejected = 0

    def __len__(self) -> int:
        return len(self._lru)

    def _count(self, outcome: str) -> None:
        with self._lock:
            setattr(self, outcome, getattr(self, outcome) + 1)
        if obs.ENABLED:
            obs.inc(f"service.memo_{outcome}_total")

    def refs(self, txid: bytes, txn_hash: bytes) -> frozenset[bytes] | None:
        """The references of the transaction held under ``txid``, if it
        has this hash (uncounted: they are a function of T alone)."""
        held = self._lru.get(txid)
        return held.refs if held is not None and held.hash == txn_hash else None

    def lookup(self, txid: bytes, txn_hash: bytes, block_hash: bytes):
        """The admission held for ``txid`` if it was of a transaction with
        ``txn_hash`` confirmed in block ``block_hash``, else None.  An
        entry under other hashes (poisoned, or made stale by a reorg) is
        evicted and counted — the path the chaos scenario exercises."""
        held = self._lru.get(txid)
        if held is None:
            self._count("misses")
        elif held.hash != txn_hash or held.block_hash != block_hash:
            self._lru.pop(txid)
            self._count("poison_rejected")
            if obs.ENABLED:
                obs.emit("service.poison_rejected", txid=txid.hex()[:16])
            held = None
        else:
            self._count("hits")
        return held

    def record(self, txid: bytes, admission: Admission) -> None:
        self._lru.put(txid, admission)

    def poison(self, txid: bytes, fake_hash: bytes) -> None:
        """Plant a wrong entry for ``txid`` (fault injection): under a hash
        no presented transaction has, resolving to no outputs at all."""
        self._lru.put(txid, Admission(
            fake_hash, fake_hash, frozenset(), Resolved(Basis(), ())
        ))


def install_affirmation_cache(cache: LRU | None):
    """Install (or, with ``None``, remove) the checker-level cache.

    Returns the previously installed cache so callers can restore it —
    the service does this at close, keeping the global hook's lifetime
    exactly the service's.
    """
    previous = _checker.AFFIRMATION_CACHE
    _checker.AFFIRMATION_CACHE = cache
    return previous
