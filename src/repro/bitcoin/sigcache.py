"""Bounded signature-verification cache shared across validation contexts.

A transaction's scripts are verified twice on the happy path: once at
mempool acceptance and again when a block containing it is connected.  The
ECDSA check is by far the dominant cost, and its verdict is a pure function
of ``(digest, pubkey, signature)``.  Caching by that full triple is sound
even under signature malleability (Andrychowicz et al., PAPERS.md): a
malleated signature is *different bytes* and simply misses the cache — it
never inherits the original's verdict.

Negative verdicts are cached too, for the same reason: the triple pins the
exact check, so a recorded ``False`` can only be returned for a byte-equal
re-ask.

Beside the triples the same LRU holds *txids*: "every input script of this
transaction authorised its spend" (Bitcoin Core's script-execution cache).
A txid commits to every scriptSig and, through each prevout's txid, to the
scriptPubKey it spends, which is everything the interpreter reads; what it
does not pin — inputs unspent, maturity, value — ``check_tx_inputs`` checks
on every call, and finality stays with its callers.  Positives only: a
failure names its input and must be re-derived.  A malleated copy has
another txid and misses.  The key must grow (height, flags) the day
``script.py`` gains an opcode that reads them (CLTV/CSV, the parked
channels item).

The cache is a bounded :class:`~repro.lru.LRU` over both key shapes.
Mempool acceptance and block connect are the same call,
``check_tx_inputs``, and it consults one process-wide default instance, so
work done at acceptance is skipped at connect.  Differential tests swap it
out or disable it entirely via :func:`set_default_cache`.
"""

from __future__ import annotations

from repro import obs
from repro.lru import LRU

DEFAULT_MAX_ENTRIES = 65_536

class SignatureCache:
    """Bounded LRU of ECDSA verdicts by triple — digest, pubkey bytes,
    signature bytes without the hashtype byte — and script verdicts by
    txid (always True)."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        self._lru = LRU(max_entries)

    def __len__(self) -> int:
        return len(self._lru)

    def get(self, digest: bytes, pubkey: bytes, sig: bytes) -> bool | None:
        """The cached verdict for the triple, or ``None`` on a miss."""
        verdict = self._lru.get((digest, pubkey, sig))
        if obs.ENABLED:
            obs.inc(
                "sigcache.misses_total" if verdict is None
                else "sigcache.hits_total"
            )
        return verdict

    def put(self, digest: bytes, pubkey: bytes, sig: bytes, verdict: bool) -> None:
        """Record a verdict, evicting the least-recently-used on overflow."""
        self._lru.put((digest, pubkey, sig), verdict)

    def has_tx(self, txid: bytes) -> bool:
        """Has every input script of ``txid`` authorised its spend before?"""
        if self._lru.get(txid) is None:
            return False
        if obs.ENABLED:
            obs.inc("sigcache.tx_hits_total")
        return True

    def __contains__(self, txid: bytes) -> bool:
        """Is ``txid``'s verdict held?  Not a hit: neither counted nor moved."""
        return txid in self._lru

    def put_tx(self, txid: bytes) -> None:
        """Record that every input script of ``txid`` authorised its spend."""
        self._lru.put(txid, True)

    def clear(self) -> None:
        self._lru.clear()


_default_cache: SignatureCache | None = SignatureCache()


def default_cache() -> SignatureCache | None:
    """The process-wide shared cache, or ``None`` when caching is disabled."""
    return _default_cache


def set_default_cache(cache: SignatureCache | None) -> SignatureCache | None:
    """Replace the shared cache (``None`` disables); returns the old one."""
    global _default_cache
    old = _default_cache
    _default_cache = cache
    return old
