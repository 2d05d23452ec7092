"""Crash recovery: turn an on-disk store back into a live blockchain.

The one-call entry point a restarting node uses::

    store = BlockStore(path).open()       # truncates any torn tail
    chain = recover_chain(store, params)  # replays to the committed tip

The chain comes back at the exact committed tip — the last block whose
log record survived intact — with a byte-identical UTXO set, and the
store re-attached so new connects keep appending where the log left off.
Nothing is fetched from peers and no script is re-verified; recovery
cost is bounded by decode + UTXO apply of the post-snapshot suffix.
"""

from __future__ import annotations

from repro import obs
from repro.bitcoin.chain import Blockchain, ChainParams
from repro.store.store import BlockStore


def recover_chain(
    store: BlockStore, params: ChainParams | None = None
) -> Blockchain:
    """Rebuild a :class:`Blockchain` from ``store`` and attach it.

    The store must already be :meth:`~BlockStore.open`-ed (which is what
    truncates torn tails).  An empty store yields a fresh genesis-only
    chain with the store attached — first boot and recovery are the same
    code path.
    """
    if obs.ENABLED:
        with obs.trace_span(
            "store.recover", metric="store.recover_seconds"
        ):
            chain = _recover_inner(store, params)
        obs.inc("store.recoveries_total")
        obs.emit(
            "store.recovered",
            height=chain.height,
            tip=chain.tip.block.hash,
            blocks=len(chain._active) - 1,
            from_snapshot=bool(store._manifest.get("snapshot")),
        )
        return chain
    return _recover_inner(store, params)


def _recover_inner(
    store: BlockStore, params: ChainParams | None
) -> Blockchain:
    chain = Blockchain.restore(store.recover(), params)
    chain.attach_store(store)
    return chain
