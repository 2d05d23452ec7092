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
  same resolution.  A request reads each presented txid once
  (:meth:`~TxMemoTable.get`, for the references) and ``admit`` judges
  what that read found (:meth:`~TxMemoTable.judge`).  An entry under
  other hashes (poisoned, or recorded under a block a reorg replaced) is
  evicted, counted, and the transaction is checked from scratch.

* The affirmation cache is the sigcache pattern applied to the proof
  checker's hottest leaf: ECDSA verification of ``assert`` /
  ``assert!`` affirmations.  The result is a pure function of
  (principal, pubkey, payload digest, signature), so a bounded
  :class:`~repro.lru.LRU` over that 4-tuple is malleability-safe for
  the same reason :mod:`repro.bitcoin.sigcache` is — the signature
  bytes are part of the key.  Install it with
  :func:`install_affirmation_cache`; each service opens one at
  construction and closes it at close, and the hook is the newest live
  service's (``None`` when no service is live).
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

MEMO_CAPACITY = 4096


class TxMemoTable:
    """carrier txid → the :class:`~repro.core.verifier.Admission` that
    ``admit`` recorded, believed only under the same hashes; it holds
    ``MEMO_CAPACITY``, read at construction."""

    def __init__(self):
        self._lru = LRU(MEMO_CAPACITY)
        # Counted here by outcome, not by the LRU: a found entry whose
        # hashes disagree is neither a hit nor a miss.  Requests judge
        # from several threads, so each thread counts into its own list
        # (no lock on the request path: ``get`` already took the map's)
        # and a read sums them.
        self._every: list[list[int]] = []  # per thread: hits, misses, rejections
        self._counts = _ThreadCounts(self._every)

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def hits(self) -> int:
        return sum(counts[0] for counts in self._every)

    @property
    def misses(self) -> int:
        return sum(counts[1] for counts in self._every)

    @property
    def poison_rejected(self) -> int:
        return sum(counts[2] for counts in self._every)

    def get(self, txid: bytes) -> Admission | None:
        """The admission held under ``txid``, whatever its hashes — the one
        read a request makes of a presented transaction (uncounted: what
        it is worth is for :meth:`judge` to say)."""
        return self._lru.get(txid)

    def judge(
        self, txid: bytes, held: Admission | None, txn_hash: bytes,
        block_hash: bytes,
    ) -> Admission | None:
        """``held`` (what :meth:`get` read under ``txid``) if it admitted a
        transaction with ``txn_hash`` confirmed in block ``block_hash``,
        else None; counted as a hit, a miss or a rejection.  An entry under
        other hashes (poisoned, or made stale by a reorg) is evicted unless
        another request has since recorded a fresh one — the path the
        chaos scenario exercises."""
        counts = self._counts.outcomes
        if held is None:
            counts[1] += 1
            if obs.ENABLED:
                obs.inc("service.memo_misses_total")
            return None
        if held.hash == txn_hash and held.block_hash == block_hash:
            counts[0] += 1
            if obs.ENABLED:
                obs.inc("service.memo_hits_total")
            return held
        self._lru.evict(txid, held)
        counts[2] += 1
        if obs.ENABLED:
            obs.inc("service.memo_poison_rejected_total")
            obs.emit("service.poison_rejected", txid=txid.hex()[:16])
        return None

    def record(self, txid: bytes, admission: Admission) -> None:
        self._lru.put(txid, admission)

    def poison(self, txid: bytes, fake_hash: bytes) -> None:
        """Plant a wrong entry for ``txid`` (fault injection): under a hash
        no presented transaction has, resolving to no outputs at all."""
        self._lru.put(txid, Admission(
            fake_hash, fake_hash, frozenset(), Resolved(Basis(), ())
        ))


class _ThreadCounts(threading.local):
    """One thread's memo outcomes: ``threading.local`` runs ``__init__``
    once in each thread that reads it, so each list joins ``every`` (an
    atomic append) the first time its thread judges."""

    def __init__(self, every: list):
        self.outcomes = [0, 0, 0]
        every.append(self.outcomes)


def install_affirmation_cache(cache: LRU | None):
    """Install (or, with ``None``, remove) the checker-level cache;
    returns the one it replaced."""
    previous = _checker.AFFIRMATION_CACHE
    _checker.AFFIRMATION_CACHE = cache
    return previous


# The live services' affirmation caches, oldest first.  The hook is the
# newest's, and ``None`` once none is live: services may close in any
# order, so a closing one cannot hand back what it found at its start.
_LIVE_AFFIRMATIONS: list[LRU] = []
_LIVE_LOCK = threading.Lock()


def open_affirmation_cache(cache: LRU) -> None:
    """A service starts: its cache is the newest live one, and the hook."""
    with _LIVE_LOCK:
        _LIVE_AFFIRMATIONS.append(cache)
        install_affirmation_cache(cache)


def close_affirmation_cache(cache: LRU) -> None:
    """A service closes: the hook becomes the newest cache still live."""
    with _LIVE_LOCK:
        _LIVE_AFFIRMATIONS.remove(cache)
        install_affirmation_cache(
            _LIVE_AFFIRMATIONS[-1] if _LIVE_AFFIRMATIONS else None
        )
