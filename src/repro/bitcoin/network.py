"""A discrete-event peer-to-peer network and mining simulator.

The paper's security story (§1, items 3–6) is statistical: block discovery
is a Poisson process split between honest miners and an attacker, blocks
propagate with latency, and a transaction is "confirmed" once enough blocks
bury it that the attacker's chance of out-racing the network is negligible.
This module provides:

* :class:`Simulation` — a seeded event queue with simulated time;
* :class:`Node` — a full node: topology and link faults, peer scoring,
  crash/restart, and the entry points every delivery takes, each one
  call into a protocol handler (:mod:`repro.bitcoin.relay`,
  :mod:`repro.bitcoin.compact`, :mod:`repro.bitcoin.sync`);
* :class:`PoissonMiner` — a miner finding blocks at rate hashrate/work.

The attacker-vs-network race E1 runs on it is :mod:`repro.bitcoin.race`.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.bitcoin.block import Block
from repro.bitcoin.chain import Blockchain, ChainParams
from repro.bitcoin.compact import CompactBlock, CompactRelay
from repro.bitcoin.mempool import Mempool
from repro.bitcoin.miner import Miner
from repro.bitcoin.pow import block_work
from repro.bitcoin.relay import Relay
from repro.bitcoin.sync import start_sync
from repro.bitcoin.transaction import Transaction
from repro.bitcoin.wallet import Wallet
from repro.store import BlockStore, recover_chain

# Misbehavior score at which a peer is banned; what each offense costs is
# declared beside the handler that detects it.
DEFAULT_BAN_THRESHOLD = 100

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

    A dispatcher: the ``submit_*`` entry points hand each delivery to a
    protocol handler (``relay``, ``compact``; catch-up sessions in
    ``_syncs``) that owns the state only it reads.  What stays here is
    what the protocols share: the chain and mempool, per-edge fault
    policies (``set_link_policy``), peer misbehavior scoring with
    disconnect/ban (``penalize``), and crash/restart.
    """

    name: str
    sim: Simulation
    params: ChainParams
    latency: float = 2.0  # mean one-hop propagation delay, seconds
    chain: Blockchain = field(init=False)
    mempool: Mempool = field(init=False)
    peers: list["Node"] = field(default_factory=list)
    # BIP 152-style compact block relay (repro.bitcoin.compact).  Off by
    # default: the getblocktxn/blocktxn round-trips draw extra hop delays
    # from the seeded stream, so the pinned full-relay experiments must
    # never take this path.  Compact announcements are only sent when
    # *both* endpoints opted in.
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
        # Cumulative wire bytes sent, by message kind ("block", "tx",
        # "compact", ...).  Maintained unconditionally — it is plain
        # arithmetic, costs no RNG draws, and the relay-byte benchmarks
        # need it on obs-disabled runs too.
        self.bytes_sent: dict[str, int] = {}
        self.relay = Relay(self)
        self.compact = CompactRelay(self)
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
        if score >= DEFAULT_BAN_THRESHOLD and origin.name not in self._banned:
            self._banned.add(origin.name)
            if obs.ENABLED:
                obs.inc("peer.bans_total")
                obs.emit(
                    "peer.banned", node=self.name, peer=origin.name, score=score
                )
            self.disconnect(origin)

    def is_banned(self, peer: "Node") -> bool:
        return peer.name in self._banned

    # ------------------------------------------------------------------
    # Crash / restart
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: drop the mempool and every handler's state, sever
        all edges.

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
        self.relay.reset()
        self.compact.reset()
        if self.chain.store is not None:
            self.chain.store.close()
        if obs.ENABLED:
            obs.inc("fault.crashes_total")
            obs.emit("fault.crash", node=self.name)

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
        self.alive = True
        if obs.ENABLED:
            obs.inc("fault.restarts_total")
            obs.emit("fault.restart", node=self.name, persisted=persist_chain)
        peers, self._peers_at_crash = self._peers_at_crash, []
        for peer in peers:
            self.connect(peer)
            if resync and peer in self.peers:
                start_sync(self, peer, reason="restart")

    # ------------------------------------------------------------------
    # Entry points: every delivery to this node is one of these
    # ------------------------------------------------------------------

    def _deliver(self, handle: Callable, *message):
        """Hand one delivery to a protocol handler — unless the node is
        down (frames to a dead host are lost) — as this node under obs."""
        if not self.alive:
            return None
        if obs.ENABLED:
            with obs.node_scope(self.name):
                return handle(*message)
        return handle(*message)

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
        self._deliver(self.relay._submit_block, block, origin, hop)

    def submit_transaction(
        self, tx: Transaction, origin: "Node | None" = None, hop: int = 0
    ) -> bool:
        """Admit a transaction to the mempool and relay it; True if it
        was new and accepted."""
        return bool(
            self._deliver(self.relay._submit_transaction, tx, origin, hop)
        )

    def submit_compact_block(
        self, cb: CompactBlock, origin: "Node | None" = None, hop: int = 0
    ) -> None:
        """Receive a compact announcement: reconstruct from the mempool,
        round-trip ``getblocktxn`` for misses, fall back to the full block
        on collision or failure (see module docs in repro.bitcoin.compact).
        """
        self._deliver(self.compact._submit_compact_block, cb, origin, hop)


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
        key_hash: bytes | None = None,
    ):
        self.node = node
        self.hashrate = hashrate
        self.miner_id = miner_id
        self.enabled = True  # cleared to pause the miner
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
            # Attribute the template's events (a retarget) to the mining node.
            with obs.node_scope(self.node.name if obs.ENABLED else None):
                block = self._miner.assemble(
                    self.node.mempool,
                    timestamp=timestamp,
                    extra_nonce=self._extra_nonce,
                )
            self.blocks_found += 1
            if obs.ENABLED:
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
