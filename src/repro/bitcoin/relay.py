"""Block and transaction gossip — the flood-relay protocol handler.

One :class:`Relay` per :class:`~repro.bitcoin.network.Node`, in the shape
of :class:`~repro.bitcoin.sync.SyncSession`: it holds the node and owns
the state only gossip reads (seen-sets, orphan pool, hop bookkeeping).
The way in is ``Node.submit_block`` / ``Node.submit_transaction``; compact
reconstruction rejoins at :meth:`Relay._accept_block`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

from repro import obs
from repro.bitcoin.block import Block
from repro.bitcoin.mempool import (
    MempoolError,
    MempoolMissingInputError,
    MempoolValidationError,
)
from repro.bitcoin.sync import start_sync
from repro.bitcoin.transaction import Transaction
from repro.bitcoin.validation import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.bitcoin.network import Node

# Misbehavior points per offense (see Node.penalize).  An honest node never
# relays a consensus-invalid block — it validates before relaying — so two
# invalid blocks cross the default ban threshold.  Consensus-invalid
# transactions are nearly as damning, except a "missing or spent input"
# can reach us innocently (the input was spent while the tx was in flight,
# e.g. either side of a double-spend race), so it costs only a token amount.
POINTS_INVALID_BLOCK = 50
POINTS_INVALID_TX = 10
POINTS_STALE_TX = 2


class Relay:
    """One node's half of block and transaction gossip."""

    def __init__(self, node: "Node"):
        self.node = node
        self.reset()

    def reset(self) -> None:
        """Forget everything — what a crash does to a process's memory."""
        # Relay-hop distance of each known block from its origin (obs
        # bookkeeping; written only under obs.ENABLED).
        self._block_hops: dict[bytes, int] = {}
        # Orphans: block hash -> (block, arrival hop), insertion-ordered
        # for eviction, plus a parent-hash index for adoption on parent
        # arrival (which resumes the propagation tree at that hop).
        self._orphans: OrderedDict[bytes, tuple[Block, int]] = OrderedDict()
        self._orphans_by_parent: dict[bytes, list[bytes]] = {}
        # Seen sets are insertion-ordered and bounded (LRU-ish FIFO): a
        # hash evicted and re-received is deduplicated against the chain /
        # mempool instead, so boundedness never breaks correctness.
        self._seen_blocks: OrderedDict[bytes, None] = OrderedDict()
        self._seen_blocks[self.node.chain.genesis.hash] = None
        self._seen_txs: OrderedDict[bytes, None] = OrderedDict()

    def _remember(self, seen: OrderedDict, key: bytes, kind: str) -> None:
        seen[key] = None
        evicted = 0
        while len(seen) > self.node.seen_limit:
            seen.popitem(last=False)
            evicted += 1
        if evicted and obs.ENABLED:
            obs.inc("net.seen_evicted_total", evicted)
            obs.emit(
                "seen.evicted", node=self.node.name, pool=kind, count=evicted
            )

    def _record_hop(
        self, obj_hash: bytes, origin: "Node | None", hop: int, redundant: bool
    ) -> None:
        """Emit one ``relay.hop`` event (obs-enabled paths only).

        Redundant receives are recorded too — they are part of the
        propagation story (gossip fan-in) — but flagged by counter so
        the tree reconstruction can use first-seen arrivals alone.
        """
        node = self.node
        trace = node.sim.trace_ids.get(obj_hash)
        if trace is None:
            return  # originated before obs was enabled, or untraced kind
        obs.inc("relay.hops_total")
        if redundant:
            obs.inc("relay.redundant_total")
        obs.emit(
            "relay.hop",
            **{
                "trace": trace,
                "from": origin.name if origin is not None else node.name,
                "to": node.name,
                "hop": hop,
                "sim_time": node.sim.now,
            },
        )

    def _first_sight(
        self, block_hash: bytes, origin: "Node | None", hop: int
    ) -> bool:
        """Seen-set bookkeeping for a block or its compact announcement;
        False when the hash was seen before."""
        seen = block_hash in self._seen_blocks
        if obs.ENABLED:
            self._record_hop(block_hash, origin, hop, redundant=seen)
        if seen:
            return False
        self._remember(self._seen_blocks, block_hash, "block")
        if obs.ENABLED:
            self._block_hops[block_hash] = hop
        return True

    def _submit_block(
        self, block: Block, origin: "Node | None", hop: int
    ) -> None:
        if self._first_sight(block.hash, origin, hop):
            self._accept_block(block, origin, hop)

    def _accept_block(
        self, block: Block, origin: "Node | None", hop: int
    ) -> None:
        """Validate, store, and relay a block whose seen-set bookkeeping is
        done — the shared tail of full-block receipt and compact-block
        reconstruction."""
        node = self.node
        if node.chain.has_block(block.hash):
            # Re-delivered after seen-set eviction: already stored.
            return
        if not node.chain.has_block(block.header.prev_hash):
            self._park_orphan(block, origin, hop)
            return
        try:
            node.chain.add_block(block)
        except ValidationError as exc:
            if obs.ENABLED:
                obs.inc("chain.blocks_rejected_total")
                obs.emit("block.rejected", hash=block.hash, reason=str(exc))
            node.penalize(
                origin, POINTS_INVALID_BLOCK, f"invalid block: {exc}"
            )
            return
        if obs.ENABLED:
            birth = node.sim.block_births.get(block.hash)
            if birth is not None:
                obs.observe(
                    "net.block_propagation_seconds", node.sim.now - birth
                )
        node.mempool.remove_confirmed(list(block.txs))
        node.mempool.revalidate()
        self._relay_block(block, hop, origin)
        # Adopt any orphans waiting on this block.
        for child_hash in self._orphans_by_parent.pop(block.hash, []):
            if child_hash not in self._orphans:
                continue  # evicted while parked
            child, child_hop = self._orphans.pop(child_hash)
            self._seen_blocks.pop(child_hash, None)
            if obs.ENABLED:
                obs.emit(
                    "orphan.resolved", hash=child_hash, parent=block.hash
                )
            self._submit_block(child, None, child_hop)

    def _park_orphan(
        self, block: Block, origin: "Node | None", hop: int = 0
    ) -> None:
        """Hold a parent-less block in the bounded orphan pool and kick a
        catch-up sync with whoever sent it (we are evidently behind)."""
        if block.hash in self._orphans:
            return
        self._orphans[block.hash] = (block, hop)
        self._orphans_by_parent.setdefault(
            block.header.prev_hash, []
        ).append(block.hash)
        if obs.ENABLED:
            obs.inc("mempool.orphans_total")
            obs.emit(
                "orphan.parked",
                hash=block.hash,
                parent=block.header.prev_hash,
            )
        while len(self._orphans) > self.node.orphan_limit:
            old_hash, (old, _) = self._orphans.popitem(last=False)
            # Evicted is forgotten, as adopted is: a hash left "seen" could
            # never be delivered again, by gossip or by a catch-up sync.
            self._seen_blocks.pop(old_hash, None)
            siblings = self._orphans_by_parent.get(old.header.prev_hash)
            if siblings is not None:
                if old_hash in siblings:
                    siblings.remove(old_hash)
                if not siblings:
                    self._orphans_by_parent.pop(old.header.prev_hash, None)
            if obs.ENABLED:
                obs.inc("mempool.orphans_evicted_total")
                obs.emit(
                    "orphan.evicted",
                    hash=old_hash,
                    parent=old.header.prev_hash,
                )
        if origin is not None and origin.alive:
            start_sync(self.node, origin, reason="orphan")

    def _relay_block(
        self, block: Block, hop: int = 0, origin: "Node | None" = None
    ) -> None:
        # Never echo a block back to the peer it arrived from: the sender
        # already has it, and at swarm scale the echoes double block
        # traffic (they show up as redundant relay.hop receives).
        node = self.node
        targets = [peer for peer in node.peers if peer is not origin]
        if not targets:
            return
        if obs.ENABLED:
            obs.inc("net.blocks_relayed_total", len(targets))
        next_hop = hop + 1
        cb = None
        if node.compact_relay and any(p.compact_relay for p in targets):
            # One announcement per relay, for the peers that opted in too.
            cb = node.compact.announcement(block)
            cb_size = cb.serialized_size()
        full_size = 0
        for peer in targets:
            if cb is not None and peer.compact_relay:
                node.send_to(
                    peer,
                    lambda p=peer: p.submit_compact_block(cb, node, next_hop),
                    msg="compact",
                    size=cb_size,
                )
            else:
                if not full_size:
                    full_size = block.serialized_size()
                node.send_to(
                    peer,
                    lambda p=peer: p.submit_block(block, node, next_hop),
                    msg="block",
                    size=full_size,
                )

    def _submit_transaction(
        self, tx: Transaction, origin: "Node | None", hop: int
    ) -> bool:
        node = self.node
        if obs.ENABLED:
            if origin is None:
                # A locally-submitted transaction (wallet): the trace
                # starts here.
                node.sim.mint_trace("tx", tx.txid)
            self._record_hop(
                tx.txid, origin, hop, redundant=tx.txid in self._seen_txs
            )
        if tx.txid in self._seen_txs:
            return False
        self._remember(self._seen_txs, tx.txid, "tx")
        if (
            tx.txid in node.mempool
            or node.chain.get_transaction(tx.txid) is not None
        ):
            # The seen-set is bounded, so a duplicate can outlive its
            # entry.  Consult the pools the way the block path consults
            # the chain: an already-held transaction must not be
            # re-validated (spurious stale-tx penalties for innocent
            # re-senders) or re-relayed (relay storms at swarm scale).
            if obs.ENABLED:
                obs.inc("net.duplicates_suppressed_total")
            return False
        try:
            node.mempool.accept(tx)
        except MempoolValidationError as exc:
            stale = isinstance(exc, MempoolMissingInputError)
            points = POINTS_STALE_TX if stale else POINTS_INVALID_TX
            node.penalize(origin, points, f"invalid tx: {exc}")
            return False
        except MempoolError:
            # Policy refusals (dust, fees, non-standard, duplicates) are
            # not evidence of malice: honest peers relay under different
            # policies.
            return False
        # As with blocks, never echo a transaction back to its sender.
        targets = [peer for peer in node.peers if peer is not origin]
        if targets:
            if obs.ENABLED:
                obs.inc("net.txs_relayed_total", len(targets))
            next_hop = hop + 1
            tx_size = len(tx.serialize())
            for peer in targets:
                node.send_to(
                    peer,
                    lambda p=peer: p.submit_transaction(
                        tx, origin=node, hop=next_hop
                    ),
                    msg="tx",
                    size=tx_size,
                )
        return True
