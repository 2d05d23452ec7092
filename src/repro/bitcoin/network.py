"""A discrete-event peer-to-peer network and mining simulator.

The paper's security story (§1, items 3–6) is statistical: block discovery
is a Poisson process split between honest miners and an attacker, blocks
propagate with latency, and a transaction is "confirmed" once enough blocks
bury it that the attacker's chance of out-racing the network is negligible.
This module provides:

* :class:`Simulation` — a seeded event queue with simulated time;
* :class:`Node` — a full node (chain + mempool + orphan pool) that relays;
* :class:`PoissonMiner` — a miner finding blocks at rate hashrate/work;
* :func:`nakamoto_reversal_probability` — the analytic curve of Nakamoto's
  whitepaper, which experiment E1 compares the simulator against;
* :func:`simulate_race` — the attacker-vs-network block race.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.bitcoin import compact as compact_relay_mod
from repro.bitcoin.block import Block
from repro.bitcoin.chain import Blockchain, ChainParams
from repro.bitcoin.compact import CompactBlock
from repro.bitcoin.mempool import Mempool, MempoolError, MempoolValidationError
from repro.bitcoin.miner import Miner
from repro.bitcoin.pow import block_work
from repro.bitcoin.transaction import Transaction
from repro.bitcoin.validation import ValidationError
from repro.bitcoin.wallet import Wallet

# Misbehavior points per offense (see Node.penalize).  An honest node never
# relays a consensus-invalid block — it validates before relaying — so two
# invalid blocks cross the default ban threshold.  Consensus-invalid
# transactions are nearly as damning, except a "missing or spent input"
# can reach us innocently (the input was spent while the tx was in flight,
# e.g. either side of a double-spend race), so it costs only a token amount.
# A compact-block announcement the sender then refuses to back with data
# (no blocktxn / no full block / a block that doesn't match its own hash)
# also scores: an honest sender always has the block it announced.  Short-id
# *collisions* never score — per BIP 152 they can happen to honest peers.
POINTS_INVALID_BLOCK = 50
POINTS_INVALID_TX = 10
POINTS_STALE_TX = 2
POINTS_BAD_COMPACT = 10
DEFAULT_BAN_THRESHOLD = 100

# Compact-relay round-trip recovery: how long to wait for a blocktxn or
# full-block reply before retrying, and how many attempts per stage.  The
# timeout scales with the attempt number (fixed schedule, no RNG: recovery
# scheduling must not perturb the seeded hop-delay streams).
COMPACT_TXN_TIMEOUT = 30.0
COMPACT_MAX_ATTEMPTS = 2

# Per-message-kind relay byte series (obs).  Kinds outside this table
# count toward the total only.
_BYTE_SERIES = {
    "block": "relay.block_bytes_total",
    "tx": "relay.tx_bytes_total",
    "compact": "relay.compact_bytes_total",
    "getblocktxn": "relay.getblocktxn_bytes_total",
    "blocktxn": "relay.blocktxn_bytes_total",
    "getblock": "relay.getblock_bytes_total",
    "sync": "relay.sync_bytes_total",
}


# How an event-loop run stopped.  Callers (and the event-loop gauges) use
# the distinction to tell starvation — the queue ran dry — from an
# intentional stop at the time limit or a satisfied predicate.
STOP_DRAINED = "drained"
STOP_TIME_LIMIT = "time_limit"
STOP_PREDICATE = "predicate"


class Simulation:
    """A seeded discrete-event scheduler with simulated seconds."""

    def __init__(self, seed: int = 0):
        self.now = 0.0
        self.seed = seed
        self.rng = random.Random(seed)
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self.events_processed = 0
        # First time each block hash entered the network (simulated
        # seconds); feeds the block-propagation latency histogram.
        self.block_births: dict[bytes, float] = {}
        # Causal trace ids, minted at a block's or transaction's origin
        # (miner / wallet submission) and carried by every relay.hop
        # event — the propagation tree is reconstructable from the event
        # log alone.  Populated only under obs.ENABLED.
        self.trace_ids: dict[bytes, str] = {}
        self._trace_seq = 0

    def mint_trace(self, kind: str, obj_hash: bytes) -> str:
        """A deterministic trace id for a newly-originated block or tx.

        Call only behind an ``obs.ENABLED`` guard: disabled runs carry
        no trace state at all.
        """
        trace = self.trace_ids.get(obj_hash)
        if trace is None:
            self._trace_seq += 1
            trace = f"{kind}{self._trace_seq}-{obj_hash.hex()[:8]}"
            self.trace_ids[obj_hash] = trace
        return trace

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, action))

    def _dispatch(self, time: float, action: Callable[[], None]) -> None:
        self.now = time
        self.events_processed += 1
        action()
        if obs.ENABLED:
            obs.inc("net.events_total")

    def run_until(self, end_time: float) -> str:
        """Process events up to ``end_time``; returns how the run stopped
        (:data:`STOP_DRAINED` or :data:`STOP_TIME_LIMIT`)."""
        while self._queue and self._queue[0][0] <= end_time:
            time, _, action = heapq.heappop(self._queue)
            self._dispatch(time, action)
        self.now = max(self.now, end_time)
        return STOP_DRAINED if not self._queue else STOP_TIME_LIMIT

    def run_while(self, predicate: Callable[[], bool], limit: float) -> str:
        """Process events while ``predicate()`` holds, up to ``limit`` time.

        Returns how the run stopped: :data:`STOP_DRAINED` (queue empty —
        starvation), :data:`STOP_PREDICATE` (the predicate released the
        loop), or :data:`STOP_TIME_LIMIT` (next event lies past ``limit``).
        """
        while self._queue and predicate() and self._queue[0][0] <= limit:
            time, _, action = heapq.heappop(self._queue)
            self._dispatch(time, action)
        if not self._queue:
            return STOP_DRAINED
        if not predicate():
            return STOP_PREDICATE
        return STOP_TIME_LIMIT


@dataclass
class Node:
    """A full node participating in block and transaction gossip.

    Beyond the happy path, the node carries the chaos-layer machinery:
    per-edge fault policies (``set_link_policy``), peer misbehavior
    scoring with disconnect/ban (``penalize``), crash/restart with
    optional chain persistence, and bounded seen-sets and orphan pool so
    an adversary cannot grow memory without limit.
    """

    name: str
    sim: Simulation
    params: ChainParams
    latency: float = 2.0  # mean one-hop propagation delay, seconds
    chain: Blockchain = field(init=False)
    mempool: Mempool = field(init=False)
    peers: list["Node"] = field(default_factory=list)
    seen_limit: int = 10_000  # per-kind cap on the seen-hash sets
    orphan_limit: int = 64  # cap on parked parent-less blocks
    ban_threshold: int = DEFAULT_BAN_THRESHOLD
    # Start a catch-up sync with the sender whenever an orphan arrives.
    # Off by default: on a loss-free network gossip always delivers the
    # parent, and the extra sync traffic would perturb the seeded random
    # stream of existing perfect-network experiments (E1/A1).  Chaos runs
    # (repro.bitcoin.faults.run_chaos) turn it on — with dropped messages
    # an orphan is evidence the parent may never arrive on its own.
    auto_sync: bool = False
    # BIP 152-style compact block relay (repro.bitcoin.compact).  Off by
    # default for the same reason as auto_sync: the getblocktxn/blocktxn
    # round-trips draw extra hop delays from the seeded stream, so the
    # pinned full-relay experiments must never take this path.  Compact
    # announcements are only sent when *both* endpoints opted in.
    compact_relay: bool = False
    # Durable persistence (repro.store).  None keeps the node fully
    # in-memory — the pre-store behavior, and what the seeded perfect-
    # network experiments pin.  A directory path gives the node a disk:
    # every connect/disconnect is logged there, and restart recovers from
    # it instead of replaying the in-memory chain.
    store_dir: str | None = None
    snapshot_interval: int = 16  # blocks between UTXO snapshots
    alive: bool = field(default=True, init=False)

    def __post_init__(self) -> None:
        with obs.node_scope(self.name if obs.ENABLED else None):
            self.chain = self._boot_chain()
        self.mempool = Mempool(self.chain)
        # Relay-hop distance of each known block / parked orphan from its
        # origin (obs bookkeeping; written only under obs.ENABLED).
        self._block_hops: dict[bytes, int] = {}
        self._orphan_hops: dict[bytes, int] = {}
        # Orphans: block hash -> Block, insertion-ordered for eviction,
        # plus a parent-hash index for adoption on parent arrival.
        self._orphans: OrderedDict[bytes, Block] = OrderedDict()
        self._orphans_by_parent: dict[bytes, list[bytes]] = {}
        # Seen sets are insertion-ordered and bounded (LRU-ish FIFO): a
        # hash evicted and re-received is deduplicated against the chain /
        # mempool instead, so boundedness never breaks correctness.
        self._seen_blocks: OrderedDict[bytes, None] = OrderedDict()
        self._seen_blocks[self.chain.genesis.hash] = None
        self._seen_txs: OrderedDict[bytes, None] = OrderedDict()
        # Cumulative wire bytes sent, by message kind ("block", "tx",
        # "compact", ...).  Maintained unconditionally — it is plain
        # arithmetic, costs no RNG draws, and the relay-byte benchmarks
        # need it on obs-disabled runs too.
        self.bytes_sent: dict[str, int] = {}
        # Compact blocks awaiting a getblocktxn/full-block round-trip:
        # block hash -> _PendingCompact.
        self._compact_pending: dict[bytes, _PendingCompact] = {}
        # Chaos-layer state: per-peer-name outbound fault policy, active
        # sync sessions, misbehavior scores, and the ban list.
        self._link_policies: dict[str, object] = {}
        self._syncs: dict[str, object] = {}
        self._misbehavior: dict[str, int] = {}
        self._banned: set[str] = set()
        self._peers_at_crash: list["Node"] = []

    def _boot_chain(self) -> Blockchain:
        """A fresh in-memory chain, or one recovered from the store
        directory (first boot and crash recovery are the same path)."""
        if self.store_dir is None:
            return Blockchain(self.params)
        from repro.store import BlockStore, recover_chain

        store = BlockStore(
            self.store_dir, snapshot_interval=self.snapshot_interval
        ).open()
        return recover_chain(store, self.params)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def connect(self, other: "Node") -> bool:
        """Create the (bidirectional) edge to ``other``; returns True if
        any direction was newly added.

        Idempotent — concurrent partition healing and crash-recovery may
        both reconnect the same edge — and refused entirely when either
        side has banned the other (or ``other`` is this node).
        """
        if other is self:
            return False
        if other.name in self._banned or self.name in other._banned:
            return False
        changed = False
        if other not in self.peers:
            self.peers.append(other)
            changed = True
        if self not in other.peers:
            other.peers.append(self)
            changed = True
        return changed

    def disconnect(self, other: "Node") -> bool:
        """Tear down the edge to ``other`` (inverse of :meth:`connect`);
        returns True if any direction existed.  Aborts in-flight sync
        sessions over the edge."""
        changed = False
        if other in self.peers:
            self.peers.remove(other)
            changed = True
        if self in other.peers:
            other.peers.remove(self)
            changed = True
        if changed:
            self._abort_sync(other.name, "disconnected")
            other._abort_sync(self.name, "disconnected")
        return changed

    def set_link_policy(self, peer: "Node", policy: object | None) -> None:
        """Install (or clear, with None) the outbound fault policy for the
        edge to ``peer`` — an object with ``plan(rng, base_delay)``, see
        :class:`repro.bitcoin.faults.LinkPolicy`."""
        if policy is None:
            self._link_policies.pop(peer.name, None)
        else:
            self._link_policies[peer.name] = policy

    def _abort_sync(self, peer_name: str, reason: str) -> None:
        session = self._syncs.get(peer_name)
        if session is not None:
            session.abort(reason)

    def _hop_delay(self) -> float:
        # Exponential jitter around the configured mean.
        return self.sim.rng.expovariate(1.0 / self.latency)

    def send_to(
        self,
        peer: "Node",
        action: Callable[[], None],
        msg: str,
        size: int = 0,
    ) -> None:
        """Schedule delivery of one message to ``peer`` over the link.

        Without a fault policy this is exactly the pre-chaos relay path —
        one exponential hop delay, one scheduled delivery — so perfect-
        network simulations are bit-for-bit unchanged.  With a policy the
        message may be dropped, duplicated, reordered, or hit a latency
        spike, each recorded as a ``fault.*`` event.

        ``size`` is the message's wire bytes, charged to :attr:`bytes_sent`
        (and the ``relay.*_bytes_total`` obs series) at send time — a
        dropped message still cost the sender its upstream bandwidth.
        """
        if size:
            self.bytes_sent[msg] = self.bytes_sent.get(msg, 0) + size
            if obs.ENABLED:
                obs.inc("relay.bytes_total", size)
                series = _BYTE_SERIES.get(msg)
                if series is not None:
                    obs.inc(series, size)
        base = self._hop_delay()
        policy = self._link_policies.get(peer.name)
        if policy is None:
            self.sim.schedule(base, action)
            return
        plan = policy.plan(self.sim.rng, base)
        if obs.ENABLED:
            edge = f"{self.name}->{peer.name}"
            if plan.dropped:
                obs.inc("fault.msgs_dropped_total")
                obs.emit("fault.drop", edge=edge, msg=msg)
            else:
                if plan.spike:
                    obs.inc("fault.latency_spikes_total")
                    obs.emit("fault.delay", edge=edge, msg=msg, extra=plan.spike)
                if plan.duplicated:
                    obs.inc("fault.msgs_duplicated_total")
                    obs.emit("fault.duplicate", edge=edge, msg=msg)
        for delay in plan.delays:
            self.sim.schedule(delay, action)

    # ------------------------------------------------------------------
    # Misbehavior scoring
    # ------------------------------------------------------------------

    def penalize(self, origin: "Node | None", points: int, reason: str) -> None:
        """Charge ``origin`` misbehavior points; ban at the threshold.

        ``origin=None`` (a locally-produced object) is never penalized.
        Banning disconnects the peer and refuses future connects from it.
        """
        if origin is None or points <= 0:
            return
        score = self._misbehavior.get(origin.name, 0) + points
        self._misbehavior[origin.name] = score
        if obs.ENABLED:
            obs.inc("peer.misbehavior_points_total", points)
            obs.emit(
                "peer.misbehavior",
                node=self.name,
                peer=origin.name,
                points=points,
                score=score,
                reason=reason,
            )
        if score >= self.ban_threshold and origin.name not in self._banned:
            self._banned.add(origin.name)
            if obs.ENABLED:
                obs.inc("peer.bans_total")
                obs.emit(
                    "peer.banned", node=self.name, peer=origin.name, score=score
                )
            self.disconnect(origin)

    def misbehavior_score(self, peer: "Node") -> int:
        return self._misbehavior.get(peer.name, 0)

    def is_banned(self, peer: "Node") -> bool:
        return peer.name in self._banned

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: drop mempool, orphans and seen-txs, sever all edges.

        With a store directory the node's "disk" is the store (its file
        handles are closed, like a dying process's); without one the
        chain object survives in memory standing in for a disk.  Whether
        restart reloads either is :meth:`restart`'s choice.  In-flight
        deliveries to this node are silently lost (the delivery guard
        checks ``alive``), exactly like frames to a dead host.
        """
        if not self.alive:
            return
        self.alive = False
        self._peers_at_crash = list(self.peers)
        for peer in list(self.peers):
            self.disconnect(peer)
        self.mempool.clear()
        self._orphans.clear()
        self._orphans_by_parent.clear()
        self._seen_txs.clear()
        self._compact_pending.clear()
        if self.chain.store is not None:
            self.chain.store.close()
        if obs.ENABLED:
            obs.inc("fault.crashes_total")
            obs.emit("fault.crash", node=self.name)
            from repro.obs import flight

            flight.trigger("node.crash", sim_time=self.sim.now)

    def restart(self, persist_chain: bool = True, resync: bool = True) -> None:
        """Come back up, optionally reloading the persisted chain, then
        reconnect to the pre-crash peers and catch-up sync with each.

        With a store directory, ``persist_chain=True`` runs real crash
        recovery — scan the logs, truncate any torn tail, and rebuild the
        exact committed state from disk — and ``persist_chain=False``
        **deletes the store** before booting (lost storage: the node
        restarts from genesis and must re-download everything).  Without
        one, True replays the in-memory chain's exported blocks through
        full validation (a pruned node re-reading its block files) and
        False just resets to genesis.
        """
        if self.alive:
            return
        if self.store_dir is not None:
            if not persist_chain:
                from repro.store import BlockStore

                BlockStore(self.store_dir).wipe()
            self.chain = self._boot_chain()
        elif persist_chain:
            blocks = self.chain.export_active()
            chain = Blockchain(self.params)
            for block in blocks:
                chain.add_block(block)
            self.chain = chain
        else:
            self.chain = Blockchain(self.params)
        self.mempool = Mempool(self.chain)
        self._seen_blocks = OrderedDict()
        self._seen_blocks[self.chain.genesis.hash] = None
        self.alive = True
        if obs.ENABLED:
            obs.inc("fault.restarts_total")
            obs.emit("fault.restart", node=self.name, persisted=persist_chain)
        peers, self._peers_at_crash = self._peers_at_crash, []
        from repro.bitcoin.sync import start_sync

        for peer in peers:
            self.connect(peer)
            if resync and peer in self.peers:
                start_sync(self, peer, reason="restart")

    # ------------------------------------------------------------------
    # Gossip
    # ------------------------------------------------------------------

    def _remember(self, seen: OrderedDict, key: bytes, kind: str) -> None:
        seen[key] = None
        evicted = 0
        while len(seen) > self.seen_limit:
            seen.popitem(last=False)
            evicted += 1
        if evicted and obs.ENABLED:
            obs.inc("net.seen_evicted_total", evicted)
            obs.emit("seen.evicted", node=self.name, pool=kind, count=evicted)

    def submit_block(
        self, block: Block, origin: "Node | None" = None, hop: int = 0
    ) -> None:
        """Accept a locally-mined or received block, then relay it.

        ``origin`` is the peer the block arrived from (None when locally
        produced); consensus-invalid blocks charge it misbehavior points.
        ``hop`` is the relay distance from the block's origin (0 at the
        miner) — threaded so ``relay.hop`` events carry the propagation
        tree's depth.
        """
        if not self.alive:
            return
        if obs.ENABLED:
            with obs.node_scope(self.name):
                self._submit_block(block, origin, hop)
        else:
            self._submit_block(block, origin, hop)

    def _submit_block(
        self, block: Block, origin: "Node | None", hop: int
    ) -> None:
        if obs.ENABLED:
            self._record_hop(
                "block", block.hash, origin, hop,
                redundant=block.hash in self._seen_blocks,
            )
        if block.hash in self._seen_blocks:
            return
        self._remember(self._seen_blocks, block.hash, "block")
        if obs.ENABLED:
            self._block_hops[block.hash] = hop
        self._accept_block(block, origin, hop)

    def _accept_block(
        self, block: Block, origin: "Node | None", hop: int
    ) -> None:
        """Validate, store, and relay a block whose seen-set bookkeeping is
        done — the shared tail of full-block receipt and compact-block
        reconstruction."""
        if self.chain.has_block(block.hash):
            # Re-delivered after seen-set eviction: already stored.
            return
        if not self.chain.has_block(block.header.prev_hash):
            self._park_orphan(block, origin, hop)
            return
        try:
            self.chain.add_block(block)
        except ValidationError as exc:
            if obs.ENABLED:
                obs.inc("chain.blocks_rejected_total")
                obs.emit("block.rejected", hash=block.hash, reason=str(exc))
                from repro.obs import flight

                flight.trigger("block.rejected", sim_time=self.sim.now)
            self.penalize(
                origin, POINTS_INVALID_BLOCK, f"invalid block: {exc}"
            )
            return
        if obs.ENABLED:
            birth = self.sim.block_births.get(block.hash)
            if birth is not None:
                obs.observe(
                    "net.block_propagation_seconds", self.sim.now - birth
                )
        self.mempool.remove_confirmed(list(block.txs))
        self.mempool.revalidate()
        self._relay_block(block, hop, origin)
        # Adopt any orphans waiting on this block.
        for child_hash in self._orphans_by_parent.pop(block.hash, []):
            child = self._orphans.pop(child_hash, None)
            if child is None:
                continue  # evicted while parked
            self._seen_blocks.pop(child.hash, None)
            if obs.ENABLED:
                obs.emit(
                    "orphan.resolved", hash=child.hash, parent=block.hash
                )
            self._submit_block(
                child, None, self._orphan_hops.pop(child.hash, 0)
            )

    def _record_hop(
        self,
        kind: str,
        obj_hash: bytes,
        origin: "Node | None",
        hop: int,
        redundant: bool,
    ) -> None:
        """Emit one ``relay.hop`` event (obs-enabled paths only).

        Redundant receives are recorded too — they are part of the
        propagation story (gossip fan-in) — but flagged by counter so
        the tree reconstruction can use first-seen arrivals alone.
        """
        trace = self.sim.trace_ids.get(obj_hash)
        if trace is None:
            return  # originated before obs was enabled, or untraced kind
        obs.inc("relay.hops_total")
        if redundant:
            obs.inc("relay.redundant_total")
        obs.emit(
            "relay.hop",
            **{
                "trace": trace,
                "from": origin.name if origin is not None else self.name,
                "to": self.name,
                "hop": hop,
                "sim_time": self.sim.now,
            },
        )

    def _park_orphan(
        self, block: Block, origin: "Node | None", hop: int = 0
    ) -> None:
        """Hold a parent-less block in the bounded orphan pool and kick a
        catch-up sync with whoever sent it (we are evidently behind)."""
        if block.hash in self._orphans:
            return
        self._orphans[block.hash] = block
        self._orphans_by_parent.setdefault(
            block.header.prev_hash, []
        ).append(block.hash)
        if obs.ENABLED:
            # Remember the arrival hop so adoption (after the parent
            # arrives) resumes the propagation tree at the right depth.
            self._orphan_hops[block.hash] = hop
            obs.inc("mempool.orphans_total")
            obs.emit(
                "orphan.parked",
                hash=block.hash,
                parent=block.header.prev_hash,
            )
        while len(self._orphans) > self.orphan_limit:
            old_hash, old = self._orphans.popitem(last=False)
            siblings = self._orphans_by_parent.get(old.header.prev_hash)
            if siblings is not None:
                if old_hash in siblings:
                    siblings.remove(old_hash)
                if not siblings:
                    self._orphans_by_parent.pop(old.header.prev_hash, None)
            if obs.ENABLED:
                self._orphan_hops.pop(old_hash, None)
                obs.inc("mempool.orphans_evicted_total")
                obs.emit(
                    "orphan.evicted",
                    hash=old_hash,
                    parent=old.header.prev_hash,
                )
        if self.auto_sync and origin is not None and origin.alive:
            from repro.bitcoin.sync import start_sync

            start_sync(self, origin, reason="orphan")

    def _relay_block(
        self, block: Block, hop: int = 0, origin: "Node | None" = None
    ) -> None:
        # Never echo a block back to the peer it arrived from: the sender
        # already has it, and at swarm scale the echoes double block
        # traffic (they show up as redundant relay.hop receives).
        targets = [peer for peer in self.peers if peer is not origin]
        if not targets:
            return
        if obs.ENABLED:
            obs.inc("net.blocks_relayed_total", len(targets))
        next_hop = hop + 1
        cb: CompactBlock | None = None
        cb_size = 0
        full_size = 0
        if self.compact_relay and any(p.compact_relay for p in targets):
            # One announcement per relay, salted with the sender's name so
            # every sender keys short ids differently (grinding a collision
            # against one peer's key buys nothing against another's).
            cb = CompactBlock.from_block(block, salt=self.name.encode())
            cb_size = cb.serialized_size()
        for peer in targets:
            if cb is not None and peer.compact_relay:
                self.send_to(
                    peer,
                    lambda p=peer: p.submit_compact_block(
                        cb, origin=self, hop=next_hop
                    ),
                    msg="compact",
                    size=cb_size,
                )
            else:
                if not full_size:
                    full_size = block.serialized_size()
                self.send_to(
                    peer,
                    lambda p=peer: p.submit_block(
                        block, origin=self, hop=next_hop
                    ),
                    msg="block",
                    size=full_size,
                )

    def submit_transaction(
        self, tx: Transaction, origin: "Node | None" = None, hop: int = 0
    ) -> bool:
        if not self.alive:
            return False
        if obs.ENABLED:
            with obs.node_scope(self.name):
                return self._submit_transaction(tx, origin, hop)
        return self._submit_transaction(tx, origin, hop)

    def _submit_transaction(
        self, tx: Transaction, origin: "Node | None", hop: int
    ) -> bool:
        if obs.ENABLED:
            if origin is None:
                # A locally-submitted transaction (wallet): the trace
                # starts here.
                self.sim.mint_trace("tx", tx.txid)
            self._record_hop(
                "tx", tx.txid, origin, hop,
                redundant=tx.txid in self._seen_txs,
            )
        if tx.txid in self._seen_txs:
            return False
        self._remember(self._seen_txs, tx.txid, "tx")
        if (
            tx.txid in self.mempool
            or self.chain.get_transaction(tx.txid) is not None
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
            self.mempool.accept(tx)
        except MempoolValidationError as exc:
            reason = str(exc)
            points = (
                POINTS_STALE_TX
                if "missing or spent input" in reason
                else POINTS_INVALID_TX
            )
            self.penalize(origin, points, f"invalid tx: {reason}")
            return False
        except MempoolError:
            # Policy refusals (dust, fees, non-standard, duplicates) are
            # not evidence of malice: honest peers relay under different
            # policies.
            return False
        # As with blocks, never echo a transaction back to its sender.
        targets = [peer for peer in self.peers if peer is not origin]
        if targets:
            if obs.ENABLED:
                obs.inc("net.txs_relayed_total", len(targets))
            next_hop = hop + 1
            tx_size = len(tx.serialize())
            for peer in targets:
                self.send_to(
                    peer,
                    lambda p=peer: p.submit_transaction(
                        tx, origin=self, hop=next_hop
                    ),
                    msg="tx",
                    size=tx_size,
                )
        return True

    # ------------------------------------------------------------------
    # Compact block relay (BIP 152-style; repro.bitcoin.compact)
    # ------------------------------------------------------------------

    def submit_compact_block(
        self, cb: CompactBlock, origin: "Node | None" = None, hop: int = 0
    ) -> None:
        """Receive a compact announcement: reconstruct from the mempool,
        round-trip ``getblocktxn`` for misses, fall back to the full block
        on collision or failure (see module docs in repro.bitcoin.compact).
        """
        if not self.alive:
            return
        if obs.ENABLED:
            with obs.node_scope(self.name):
                self._submit_compact_block(cb, origin, hop)
        else:
            self._submit_compact_block(cb, origin, hop)

    def _submit_compact_block(
        self, cb: CompactBlock, origin: "Node | None", hop: int
    ) -> None:
        if obs.ENABLED:
            obs.inc("compact.blocks_total")
            self._record_hop(
                "block", cb.hash, origin, hop,
                redundant=cb.hash in self._seen_blocks,
            )
        if cb.hash in self._seen_blocks or cb.hash in self._compact_pending:
            return
        self._remember(self._seen_blocks, cb.hash, "block")
        if obs.ENABLED:
            self._block_hops[cb.hash] = hop
        if self.chain.has_block(cb.hash):
            return
        try:
            result = compact_relay_mod.reconstruct(cb, self.mempool)
        except compact_relay_mod.MalformedCompactError as exc:
            # No honest sender builds an announcement like this.  Forget
            # the hash so a real block with this header (if one exists)
            # is not shadowed by the garbage announcement.
            self._seen_blocks.pop(cb.hash, None)
            self.penalize(
                origin, POINTS_BAD_COMPACT, f"malformed compact block: {exc}"
            )
            return
        if obs.ENABLED:
            if result.collisions:
                obs.inc("compact.collisions_total", result.collisions)
            obs.emit(
                "compact.received",
                node=self.name,
                hash=cb.hash,
                txs=cb.tx_count,
                missing=len(result.missing),
            )
        if result.complete:
            block = compact_relay_mod.finalize(cb, result.txs)
            if block is not None:
                if obs.ENABLED:
                    obs.inc("compact.reconstructed_total")
                self._accept_block(block, origin, hop)
                return
            # Every slot filled, but the merkle root disagrees: a short id
            # matched the wrong mempool transaction (innocent collision).
            # Fetch the full block; nobody is penalized.
            if origin is None or not origin.alive:
                self._give_up_compact(cb.hash, resync=False)
                return
            self._compact_pending[cb.hash] = _PendingCompact(
                compact=cb, origin=origin, hop=hop,
                txs=list(result.txs), missing=list(result.missing),
            )
            self._fallback_full(cb.hash, reason="false-match")
            return
        if obs.ENABLED:
            obs.inc("compact.misses_total", len(result.missing))
        if origin is None or not origin.alive:
            # Nobody to round-trip with; forget the announcement so a
            # later full relay or sync can deliver the block.
            self._seen_blocks.pop(cb.hash, None)
            return
        self._compact_pending[cb.hash] = _PendingCompact(
            compact=cb, origin=origin, hop=hop,
            txs=list(result.txs), missing=list(result.missing),
        )
        self._request_block_txns(cb.hash, attempt=1)

    def _request_block_txns(self, block_hash: bytes, attempt: int) -> None:
        """Ask the announcing peer for the block's missing transactions."""
        pending = self._compact_pending.get(block_hash)
        if pending is None:
            return
        origin = pending.origin
        pending.req_seq += 1
        req = pending.req_seq
        indexes = tuple(pending.missing)
        if obs.ENABLED:
            obs.inc("compact.roundtrips_total")
            obs.emit(
                "compact.getblocktxn",
                node=self.name,
                peer=origin.name,
                hash=block_hash,
                indexes=len(indexes),
            )
        self.send_to(
            origin,
            lambda: origin._serve_block_txns(self, block_hash, indexes, req),
            msg="getblocktxn",
            size=compact_relay_mod.getblocktxn_size(len(indexes)),
        )
        self.sim.schedule(
            COMPACT_TXN_TIMEOUT * attempt,
            lambda: self._on_compact_timeout(
                block_hash, req, attempt, stage="blocktxn"
            ),
        )

    def _serve_block_txns(
        self,
        requester: "Node",
        block_hash: bytes,
        indexes: tuple[int, ...],
        req: int,
    ) -> None:
        """Peer side of ``getblocktxn``: reply with the requested
        transactions, or None if we don't actually have the block."""
        if not self.alive:
            return
        entry = self.chain.entry(block_hash)
        payload = None
        if entry is not None and all(
            0 <= i < len(entry.block.txs) for i in indexes
        ):
            payload = tuple(entry.block.txs[i] for i in indexes)
        size = (
            compact_relay_mod.blocktxn_size(payload)
            if payload is not None
            else 40
        )
        self.send_to(
            requester,
            lambda: requester._on_block_txns(block_hash, req, payload),
            msg="blocktxn",
            size=size,
        )

    def _on_block_txns(
        self,
        block_hash: bytes,
        req: int,
        payload: "tuple[Transaction, ...] | None",
    ) -> None:
        if not self.alive:
            return
        pending = self._compact_pending.get(block_hash)
        if pending is None or pending.req_seq != req:
            return  # resolved, superseded, or timed out meanwhile
        with obs.node_scope(self.name if obs.ENABLED else None):
            if payload is None or len(payload) != len(pending.missing):
                # The peer announced a block it cannot back with data: an
                # honest sender always can.  (Distinct from a short-id
                # collision, which is never penalized.)
                if obs.ENABLED:
                    obs.inc("compact.withheld_total")
                    obs.emit(
                        "compact.withheld",
                        node=self.name,
                        peer=pending.origin.name,
                        hash=block_hash,
                    )
                self.penalize(
                    pending.origin,
                    POINTS_BAD_COMPACT,
                    "compact announcement not backed by blocktxn",
                )
                self._give_up_compact(block_hash, resync=False)
                return
            for slot, tx in zip(pending.missing, payload):
                pending.txs[slot] = tx
            block = compact_relay_mod.finalize(
                pending.compact, tuple(pending.txs)
            )
            if block is None:
                # Merkle mismatch *after* an honest round-trip: one of our
                # local short-id matches was a false positive.  Innocent —
                # fall back to the full block.
                self._fallback_full(block_hash, reason="merkle-mismatch")
                return
            del self._compact_pending[block_hash]
            if obs.ENABLED:
                obs.inc("compact.reconstructed_total")
            self._accept_block(block, pending.origin, pending.hop)

    def _fallback_full(
        self, block_hash: bytes, reason: str, attempt: int = 1
    ) -> None:
        """Give up on reconstruction and request the full block."""
        pending = self._compact_pending.get(block_hash)
        if pending is None:
            return
        origin = pending.origin
        if not pending.fell_back:
            pending.fell_back = True
            if obs.ENABLED:
                obs.inc("compact.fallback_total")
                obs.emit(
                    "compact.fallback",
                    node=self.name,
                    hash=block_hash,
                    reason=reason,
                )
        pending.req_seq += 1
        req = pending.req_seq
        self.send_to(
            origin,
            lambda: origin._serve_full_block(self, block_hash, req),
            msg="getblock",
            size=compact_relay_mod.GETBLOCK_SIZE,
        )
        self.sim.schedule(
            COMPACT_TXN_TIMEOUT * attempt,
            lambda: self._on_compact_timeout(
                block_hash, req, attempt, stage="fullblock"
            ),
        )

    def _serve_full_block(
        self, requester: "Node", block_hash: bytes, req: int
    ) -> None:
        if not self.alive:
            return
        entry = self.chain.entry(block_hash)
        block = entry.block if entry is not None else None
        size = block.serialized_size() if block is not None else 40
        self.send_to(
            requester,
            lambda: requester._on_full_block(block_hash, req, block),
            msg="block",
            size=size,
        )

    def _on_full_block(
        self, block_hash: bytes, req: int, block: Block | None
    ) -> None:
        if not self.alive:
            return
        pending = self._compact_pending.get(block_hash)
        if pending is None or pending.req_seq != req:
            return
        with obs.node_scope(self.name if obs.ENABLED else None):
            if block is None or block.hash != block_hash:
                if obs.ENABLED:
                    obs.inc("compact.withheld_total")
                    obs.emit(
                        "compact.withheld",
                        node=self.name,
                        peer=pending.origin.name,
                        hash=block_hash,
                    )
                self.penalize(
                    pending.origin,
                    POINTS_BAD_COMPACT,
                    "compact announcement not backed by a full block",
                )
                self._give_up_compact(block_hash, resync=False)
                return
            del self._compact_pending[block_hash]
            self._accept_block(block, pending.origin, pending.hop)

    def _on_compact_timeout(
        self, block_hash: bytes, req: int, attempt: int, stage: str
    ) -> None:
        if not self.alive:
            return
        pending = self._compact_pending.get(block_hash)
        if pending is None or pending.req_seq != req:
            return  # a reply (or a newer request) won the race
        if attempt < COMPACT_MAX_ATTEMPTS:
            if stage == "blocktxn":
                self._request_block_txns(block_hash, attempt + 1)
            else:
                self._fallback_full(
                    block_hash, reason="timeout-retry", attempt=attempt + 1
                )
        elif stage == "blocktxn":
            self._fallback_full(block_hash, reason="timeout")
        else:
            self._give_up_compact(block_hash, resync=True)

    def _give_up_compact(self, block_hash: bytes, resync: bool) -> None:
        """Abandon a pending reconstruction entirely.

        The hash is un-remembered so a later relay or catch-up sync can
        still deliver the block; with ``resync`` (the lossy-link give-up
        path) and ``auto_sync`` on, a sync with the announcing peer is
        kicked immediately.
        """
        pending = self._compact_pending.pop(block_hash, None)
        if pending is None:
            return
        if not self.chain.has_block(block_hash):
            self._seen_blocks.pop(block_hash, None)
        if (
            resync
            and self.auto_sync
            and pending.origin.alive
            and pending.origin in self.peers
        ):
            from repro.bitcoin.sync import start_sync

            start_sync(self, pending.origin, reason="compact")


@dataclass
class _PendingCompact:
    """A compact block mid-recovery (missing txs or full-block fetch)."""

    compact: CompactBlock
    origin: Node
    hop: int
    txs: list[Transaction | None]
    missing: list[int]
    req_seq: int = 0
    fell_back: bool = False


class PoissonMiner:
    """A miner that finds blocks as a Poisson process.

    Rather than grinding real nonces, block discovery times are sampled
    exponentially with mean ``block_work(bits) / hashrate`` — statistically
    the same process, fast enough to simulate weeks of network time.  The
    memorylessness of the exponential justifies re-sampling on every tip
    change (paper §1 item 4: miners always restart on the newest block).
    """

    def __init__(
        self,
        node: Node,
        hashrate: float,
        miner_id: int,
        enabled: bool = True,
        key_hash: bytes | None = None,
    ):
        self.node = node
        self.hashrate = hashrate
        self.miner_id = miner_id
        self.enabled = enabled
        self.blocks_found = 0
        if key_hash is None:
            key = Wallet.from_seed(b"miner" + miner_id.to_bytes(4, "big"))
            key_hash = key.key_hash
        self._key_hash = key_hash
        self._miner = Miner(node.chain, key_hash)
        self._extra_nonce = 0

    def start(self) -> None:
        self._schedule_next()

    def _mean_time(self) -> float:
        bits = self.node.chain.required_bits(self.node.chain.tip.block.hash)
        return block_work(bits) / self.hashrate

    def _schedule_next(self) -> None:
        delay = self.node.sim.rng.expovariate(1.0 / self._mean_time())
        self.node.sim.schedule(delay, self._on_found)

    def _on_found(self) -> None:
        if self.enabled and self.node.alive:
            if self._miner.chain is not self.node.chain:
                # The node restarted and reloaded (or reset) its chain;
                # mine on the live object, not the pre-crash one.
                self._miner = Miner(self.node.chain, self._key_hash)
            self._extra_nonce += 1
            # Anchor simulated seconds at the genesis timestamp so header
            # times track the simulation clock (the retarget rule reads them).
            wall = self.node.chain.genesis.header.timestamp + int(self.node.sim.now)
            timestamp = max(wall, self.node.chain.median_time_past() + 1)
            # Attribute the template-build span to the mining node.
            with obs.node_scope(self.node.name if obs.ENABLED else None):
                block = self._miner.assemble(
                    self.node.mempool,
                    timestamp=timestamp,
                    extra_nonce=self._extra_nonce,
                )
            self.blocks_found += 1
            if obs.ENABLED:
                self.node.sim.block_births.setdefault(
                    block.hash, self.node.sim.now
                )
                # The causal trace for this block starts at its miner.
                self.node.sim.mint_trace("blk", block.hash)
            self.node.submit_block(block)
        self._schedule_next()


def build_network(
    sim: Simulation,
    node_count: int,
    params: ChainParams | None = None,
    latency: float = 2.0,
    node_cls: type[Node] = Node,
) -> list[Node]:
    """A ring-plus-chords topology of ``node_count`` full nodes."""
    params = params or ChainParams(
        max_target=2**252, retarget_window=2**31, require_pow=False
    )
    nodes = [
        node_cls(f"node{i}", sim, params, latency) for i in range(node_count)
    ]
    for i, node in enumerate(nodes):
        node.connect(nodes[(i + 1) % node_count])
        if node_count > 4:
            node.connect(nodes[(i + node_count // 2) % node_count])
    return nodes


# ----------------------------------------------------------------------
# The attacker race (paper §1 item 5, experiment E1)
# ----------------------------------------------------------------------


def nakamoto_reversal_probability(q: float, z: int) -> float:
    """Nakamoto's analytic probability that an attacker with hashpower
    fraction ``q`` ever reverses a transaction buried ``z`` blocks deep.

    P = 1 - Σ_{k=0}^{z} e^{-λ} λ^k / k! · (1 - (q/p)^{z-k}),  λ = z·q/p.
    """
    if not 0 <= q < 0.5:
        raise ValueError("attacker share must be in [0, 0.5)")
    if z < 0:
        raise ValueError("depth must be non-negative")
    if q == 0:
        return 0.0 if z > 0 else 1.0
    p = 1.0 - q
    lam = z * q / p
    total = 0.0
    for k in range(z + 1):
        poisson = math.exp(-lam) * lam**k / math.factorial(k)
        total += poisson * (1.0 - (q / p) ** (z - k))
    return 1.0 - total


def simulate_race(
    q: float,
    z: int,
    trials: int,
    rng: random.Random,
    max_deficit: int = 60,
) -> float:
    """Monte-Carlo estimate of the reversal probability.

    Each trial: the attacker pre-mines while the honest network produces the
    ``z`` confirmation blocks (each new block is the attacker's with
    probability q), then the remaining race is a biased random walk the
    attacker wins by ever pulling level — Nakamoto's success criterion,
    since a tied private chain released strategically out-paces the public
    one.  A deficit beyond ``max_deficit`` is scored as a loss (the tail is
    astronomically small).
    """
    if q == 0:
        return 0.0
    wins = 0
    rand = rng.random  # bound-method hoist: ~2M draws per table row
    floor = -max_deficit
    for _ in range(trials):
        # Phase 1: attacker mines privately while z honest blocks appear.
        attacker = 0
        honest = 0
        while honest < z:
            if rand() < q:
                attacker += 1
            else:
                honest += 1
        deficit = honest - attacker
        if deficit <= 0:
            wins += 1
            continue
        # Phase 2: gambler's-ruin walk from -deficit toward 0 (a tie).
        position = -deficit
        while floor < position < 0:
            position += 1 if rand() < q else -1
        if position >= 0:
            wins += 1
    return wins / trials


def reversal_probability_exact(q: float, z: int, max_lead: int = 400) -> float:
    """Exact reversal probability under the same model as the simulator.

    The attacker's block count while the honest chain mines its ``z``
    confirmations is negative-binomially distributed (Nakamoto approximates
    it with a Poisson); from a deficit d the catch-up probability is
    (q/p)^d.  Summing gives the exact curve :func:`simulate_race` estimates.
    """
    if not 0 <= q < 0.5:
        raise ValueError("attacker share must be in [0, 0.5)")
    if q == 0:
        return 0.0 if z > 0 else 1.0
    if z == 0:
        return 1.0
    p = 1.0 - q
    ratio = q / p
    total = 0.0
    for k in range(z + max_lead):
        # P(attacker has k blocks when the z-th honest block appears).
        weight = math.comb(z + k - 1, k) * p**z * q**k
        catch_up = 1.0 if k >= z else ratio ** (z - k)
        total += weight * catch_up
    return total


@dataclass
class RaceOutcome:
    """Result of one full-simulator double-spend race."""

    attacker_won: bool
    honest_blocks: int
    attacker_blocks: int
    duration: float


def simulate_race_full(
    q: float,
    z: int,
    sim_seed: int,
    horizon_blocks: int = 200,
) -> RaceOutcome:
    """One attacker-vs-network race on real chain objects.

    An honest miner (share 1-q) and an attacker (share q) mine from the same
    genesis; the attacker withholds blocks (its own chain) and wins if its
    branch ever exceeds the honest branch's work after the honest branch has
    buried the victim transaction ``z`` deep.  This validates the abstract
    walk in :func:`simulate_race` against full consensus machinery — when
    the attacker finally announces its branch, honest nodes *reorganize to
    it*, demonstrating the state reversal the paper guards against.
    """
    sim = Simulation(seed=sim_seed)
    params = ChainParams(
        max_target=2**252, retarget_window=2**31, require_pow=False
    )
    honest_node = Node("honest", sim, params)
    attacker_node = Node("attacker", sim, params)
    # The attacker is *not* connected: it mines in private.  Scale total
    # hashpower so the network-wide block interval is the canonical 600 s.
    total_rate = block_work(
        honest_node.chain.required_bits(honest_node.chain.tip.block.hash)
    ) / 600.0
    honest_miner = PoissonMiner(honest_node, total_rate * (1 - q), miner_id=1)
    attacker_miner = PoissonMiner(attacker_node, total_rate * q, miner_id=2)
    honest_miner.start()
    attacker_miner.start()

    def attacker_caught_up() -> bool:
        # Nakamoto's criterion: a private chain that has pulled *level* wins,
        # since the attacker releases it the moment it edges ahead.
        return honest_node.chain.height >= z and (
            attacker_node.chain.tip.chain_work
            >= honest_node.chain.tip.chain_work
        )

    def race_open() -> bool:
        if honest_node.chain.height >= horizon_blocks:
            return False
        return not attacker_caught_up()

    sim.run_while(race_open, limit=1e12)
    won = attacker_caught_up()
    if won and (
        attacker_node.chain.tip.chain_work > honest_node.chain.tip.chain_work
    ):
        # Publish the private branch: the honest node reorganizes onto it
        # (a tie is a win on paper but only a strictly heavier branch
        # displaces the public chain).
        branch = []
        entry = attacker_node.chain.tip
        while entry.prev is not None:
            branch.append(entry.block)
            entry = attacker_node.chain.entry(entry.prev)
        for block in reversed(branch):
            honest_node.submit_block(block)
    return RaceOutcome(
        attacker_won=won,
        honest_blocks=honest_node.chain.height,
        attacker_blocks=attacker_node.chain.height,
        duration=sim.now,
    )
