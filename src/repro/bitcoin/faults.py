"""Chaos layer: fault injection for the P2P network simulator.

The paper's security argument (§1 items 3–6) is statistical — a
confirmation is trustworthy only because honest nodes converge *despite*
latency, message loss, crashes, and an active attacker.  A simulator
with a perfect network proves nothing about that claim; this module
turns it into a testbed:

* :class:`LinkPolicy` — seeded per-edge drop / duplicate / reorder
  probabilities and latency spikes, consulted by :meth:`Node.send_to`;
* :class:`Partition` — severs the edges between node groups at a
  simulated time and heals them later, kicking a headers-first catch-up
  sync (:mod:`repro.bitcoin.sync`) on every healed edge;
* :class:`ByzantinePeer` — an adversary that feeds invalid blocks,
  stale-tip forks, double-spends, and orphan spam, countered by per-peer
  misbehavior scoring with ban thresholds and the bounded orphan pool;
* :data:`PROFILES` / :func:`run_chaos` — named, seeded fault scenarios
  whose convergence the chaos benchmark and
  ``tests/bitcoin/test_chaos.py::TestChaosScenarios`` assert.

Everything draws randomness from the simulation's seeded RNG, so every
chaos run — including the attacker's schedule — is exactly reproducible
from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import os
import random

from repro import obs
from repro.bitcoin.block import Block, build_block
from repro.bitcoin.chain import Blockchain, ChainParams, block_subsidy
from repro.bitcoin.compact import CompactBlock, PrefilledTransaction
from repro.bitcoin.network import Node, PoissonMiner, Simulation, build_network
from repro.bitcoin.pow import block_work, target_to_bits
from repro.bitcoin.script import Script
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.sync import start_sync
from repro.bitcoin.transaction import OutPoint, Transaction, TxIn, TxOut
from repro.bitcoin.utxo import UTXOEntry
from repro.bitcoin.wallet import Wallet
from repro.store.framing import scan_records
from repro.store.store import BLOCK_LOG_MAGIC, BLOCK_LOG_NAME

__all__ = [
    "LinkPlan",
    "LinkPolicy",
    "Partition",
    "ByzantinePeer",
    "ALL_BEHAVIORS",
    "BYZANTINE_BEHAVIORS",
    "ChaosProfile",
    "ChaosResult",
    "KillMidWriteResult",
    "PROFILES",
    "install_link_policy",
    "inject_supply_inflation",
    "inject_torn_write",
    "converged",
    "run_chaos",
    "run_kill_mid_write",
]


# ----------------------------------------------------------------------
# Faulty links
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LinkPlan:
    """The fate of one message: zero, one, or two scheduled deliveries."""

    delays: tuple[float, ...]
    dropped: bool = False
    duplicated: bool = False
    spike: float = 0.0  # extra latency added by a spike, if any


REORDER_WINDOW = 10.0  # max extra jitter seconds, reordered or echoed


@dataclass(frozen=True)
class LinkPolicy:
    """Per-edge fault probabilities, evaluated per message.

    Installed on a node with :meth:`Node.set_link_policy` (directional —
    each end of an edge can fail differently).  All draws come from the
    simulation RNG passed to :meth:`plan`, and draws are skipped for
    zero-probability faults, so a policy only perturbs the random stream
    for the faults it actually configures.
    """

    drop: float = 0.0  # P(message silently lost)
    duplicate: float = 0.0  # P(delivered twice)
    reorder: float = 0.0  # P(extra jitter lets later messages overtake)
    spike: float = 0.0  # P(latency spike)
    spike_mean: float = 30.0  # mean extra seconds when spiked

    def plan(self, rng: random.Random, base_delay: float) -> LinkPlan:
        if self.drop > 0.0 and rng.random() < self.drop:
            return LinkPlan(delays=(), dropped=True)
        delay = base_delay
        spike = 0.0
        if self.spike > 0.0 and rng.random() < self.spike:
            spike = rng.expovariate(1.0 / self.spike_mean)
            delay += spike
        if self.reorder > 0.0 and rng.random() < self.reorder:
            delay += rng.uniform(0.0, REORDER_WINDOW)
        if self.duplicate > 0.0 and rng.random() < self.duplicate:
            echo = delay + rng.uniform(0.0, REORDER_WINDOW)
            return LinkPlan(
                delays=(delay, echo), duplicated=True, spike=spike
            )
        return LinkPlan(delays=(delay,), spike=spike)


def install_link_policy(nodes: list[Node], policy: LinkPolicy | None) -> int:
    """Apply one policy to every existing edge among ``nodes``, both
    directions; returns the number of directed edges configured."""
    edges = 0
    for node in nodes:
        for peer in node.peers:
            node.set_link_policy(peer, policy)
            edges += 1
    return edges


# ----------------------------------------------------------------------
# Partitions
# ----------------------------------------------------------------------


class Partition:
    """Severs every edge between two node groups, healing them later.

    Healing reconnects exactly the edges it severed (bans are honored —
    a node that banned its ex-peer during the partition stays
    disconnected) and starts a catch-up sync in both directions on each
    healed edge, so both sides converge to the most-work chain.
    """

    def __init__(
        self, sim: Simulation, group_a: list[Node], group_b: list[Node]
    ):
        self.sim = sim
        self.group_a = group_a
        self.group_b = group_b
        self.active = False
        self._severed: list[tuple[Node, Node]] = []

    def _groups_label(self) -> str:
        return (
            ",".join(n.name for n in self.group_a)
            + "|"
            + ",".join(n.name for n in self.group_b)
        )

    def begin(self) -> int:
        """Sever the cross-group edges now; returns how many were cut."""
        if self.active:
            return 0
        self.active = True
        for a in self.group_a:
            for b in self.group_b:
                if b in a.peers:
                    a.disconnect(b)
                    self._severed.append((a, b))
        if obs.ENABLED:
            obs.inc("fault.partitions_total")
            obs.emit("fault.partition", groups=self._groups_label())
        return len(self._severed)

    def heal(self) -> int:
        """Restore the severed edges and sync both ways; returns how many
        edges came back."""
        if not self.active:
            return 0
        self.active = False
        severed, self._severed = self._severed, []
        healed = 0
        if obs.ENABLED:
            obs.inc("fault.heals_total")
            obs.emit("fault.heal", groups=self._groups_label())
        for a, b in severed:
            a.connect(b)
            if b not in a.peers:
                continue  # ban or crash kept the edge down
            healed += 1
            start_sync(a, b, reason="heal")
            start_sync(b, a, reason="heal")
        return healed

    def schedule(self, at: float, heal_at: float) -> None:
        """Arrange the episode: sever at ``at``, heal at ``heal_at``
        (absolute simulated times)."""
        if heal_at <= at:
            raise ValueError("heal must come after the partition begins")
        self.sim.schedule(max(0.0, at - self.sim.now), self.begin)
        self.sim.schedule(max(0.0, heal_at - self.sim.now), self.heal)


# ----------------------------------------------------------------------
# Adversarial peers
# ----------------------------------------------------------------------

BYZANTINE_BEHAVIORS = (
    "invalid_block",
    "stale_fork",
    "orphan_spam",
    "double_spend",
)

#: Every behavior an adversary can be configured with.  The default
#: tuple above is frozen (the seeded byzantine profiles replay their
#: exact attack schedule); protocol-specific attacks are opt-in.
ALL_BEHAVIORS = BYZANTINE_BEHAVIORS + ("garbage_compact",)

FORK_DEPTH = 3  # how far behind the tip a ``stale_fork`` block branches
SPAM_BATCH = 8  # orphans per ``orphan_spam``, short ids per ``garbage_compact``
ATTACK_INTERVAL = 1800.0  # sim-seconds between a ``ByzantinePeer``'s attacks


class ByzantinePeer:
    """An adversary wrapped around a normal :class:`Node`.

    The underlying node gossips honestly (so the attacker stays connected
    and informed), while this controller periodically pushes attacks at
    its peers every :data:`ATTACK_INTERVAL`, cycling through ``behaviors``:

    * ``invalid_block`` — a block with wrong difficulty bits: consensus-
      invalid, worth :data:`~repro.bitcoin.relay.POINTS_INVALID_BLOCK`
      misbehavior points at each victim (two of these cross the ban
      threshold);
    * ``stale_fork`` — a valid block extending the ancestor
      :data:`FORK_DEPTH` blocks behind the tip: costs the victims storage
      but no reorg (the most-work rule holds), and no penalty — honest
      races produce stale blocks too;
    * ``orphan_spam`` — :data:`SPAM_BATCH` blocks with fabricated parent
      hashes, parked in the victims' orphan pools until the bounded pool
      evicts them;
    * ``double_spend`` — two conflicting signed spends of the same
      mature output, each half of the network fed a different one; if
      the attacker has no funds yet it falls back to conflicting spends
      of a fabricated outpoint (consensus-invalid, penalized);
    * ``garbage_compact`` — a compact announcement (plausible header,
      prefilled coinbase) whose short ids match nothing anywhere: each
      victim round-trips ``getblocktxn``, the attacker cannot back the
      announcement with data, and the victim scores
      :data:`~repro.bitcoin.compact.POINTS_BAD_COMPACT` withheld points
      (ten of these cross the ban threshold).

    Give the wrapped node a :class:`PoissonMiner` with
    ``key_hash=byz.wallet.key_hash`` to fund real double-spends.
    """

    def __init__(
        self,
        node: Node,
        behaviors: tuple[str, ...] = BYZANTINE_BEHAVIORS,
    ):
        unknown = set(behaviors) - set(ALL_BEHAVIORS)
        if unknown:
            raise ValueError(f"unknown byzantine behaviors: {sorted(unknown)}")
        if not behaviors:
            raise ValueError("at least one behavior required")
        self.node = node
        self.behaviors = tuple(behaviors)
        self.wallet = Wallet.from_seed(b"byzantine:" + node.name.encode())
        self.attacks_sent: dict[str, int] = {b: 0 for b in self.behaviors}
        self._ticks = 0
        self._nonce = 0
        self._spent: set[OutPoint] = set()

    def start(self) -> None:
        self.node.sim.schedule(ATTACK_INTERVAL, self._tick)

    def _tick(self) -> None:
        if self.node.alive and self.node.peers:
            behavior = self.behaviors[self._ticks % len(self.behaviors)]
            getattr(self, "_attack_" + behavior)()
            self.attacks_sent[behavior] += 1
        self._ticks += 1
        self.node.sim.schedule(ATTACK_INTERVAL, self._tick)

    # -- helpers -------------------------------------------------------

    def _coinbase(self, height: int) -> Transaction:
        self._nonce += 1
        tag = Script(
            [height.to_bytes(4, "little"), self._nonce.to_bytes(4, "little")]
        )
        return Transaction(
            vin=[TxIn(OutPoint.null(), tag)],
            vout=[
                TxOut(block_subsidy(height), p2pkh_script(self.wallet.key_hash))
            ],
        )

    def _broadcast_block(self, block: Block) -> None:
        for peer in self.node.peers:
            self.node.send_to(
                peer,
                lambda p=peer: p.submit_block(block, origin=self.node),
                msg="block",
            )

    # -- attacks -------------------------------------------------------

    def _attack_invalid_block(self) -> None:
        chain = self.node.chain
        tip = chain.tip
        height = tip.height + 1
        bits = chain.required_bits(tip.block.hash)
        block = build_block(
            prev_hash=tip.block.hash,
            txs=[self._coinbase(height)],
            timestamp=chain.median_time_past() + 1,
            bits=bits + 1,  # consensus-invalid: wrong difficulty bits
        )
        self._broadcast_block(block)

    def _attack_stale_fork(self) -> None:
        chain = self.node.chain
        height = max(0, chain.height - FORK_DEPTH)
        prev = chain.block_at(height)
        block = build_block(
            prev_hash=prev.hash,
            txs=[self._coinbase(height + 1)],
            timestamp=chain.median_time_past(prev.hash) + 1,
            bits=chain.required_bits(prev.hash),
        )
        self._broadcast_block(block)

    def _attack_orphan_spam(self) -> None:
        rng = self.node.sim.rng
        chain = self.node.chain
        tip = chain.tip
        for _ in range(SPAM_BATCH):
            fake_parent = bytes(rng.getrandbits(8) for _ in range(32))
            block = build_block(
                prev_hash=fake_parent,
                txs=[self._coinbase(1)],
                timestamp=tip.block.header.timestamp + 1,
                bits=tip.block.header.bits,
            )
            self._broadcast_block(block)

    def _attack_double_spend(self) -> None:
        chain = self.node.chain
        fee = 10_000
        spendables = [
            s
            for s in self.wallet.spendables(chain)
            if s.outpoint not in self._spent and s.output.value > 2 * fee
        ]
        if spendables:
            sp = spendables[0]
            self._spent.add(sp.outpoint)
            value = sp.output.value - fee
            tx_a = Transaction(
                vin=[TxIn(sp.outpoint)],
                vout=[TxOut(value, p2pkh_script(self.wallet.key_hash))],
            )
            tx_b = Transaction(
                vin=[TxIn(sp.outpoint)],
                vout=[TxOut(value, p2pkh_script(b"\x42" * 20))],
            )
            scripts = [sp.output.script_pubkey]
            tx_a = self.wallet.sign_all(tx_a, scripts)
            tx_b = self.wallet.sign_all(tx_b, scripts)
        else:
            # Unfunded: conflicting spends of a fabricated outpoint.
            # Consensus-invalid at every victim (missing input).
            rng = self.node.sim.rng
            fake = OutPoint(bytes(rng.getrandbits(8) for _ in range(32)), 0)
            tx_a = Transaction(
                vin=[TxIn(fake)],
                vout=[TxOut(50_000, p2pkh_script(self.wallet.key_hash))],
            )
            tx_b = Transaction(
                vin=[TxIn(fake)],
                vout=[TxOut(50_000, p2pkh_script(b"\x42" * 20))],
            )
        for index, peer in enumerate(self.node.peers):
            tx = tx_a if index % 2 == 0 else tx_b
            self.node.send_to(
                peer,
                lambda p=peer, t=tx: p.submit_transaction(t, origin=self.node),
                msg="tx",
            )

    def _attack_garbage_compact(self) -> None:
        """A compact announcement nothing can reconstruct or back.

        The header plausibly extends the victim's tip and the coinbase is
        prefilled, so the announcement survives the malformedness checks;
        the short ids are random, so every victim misses on all of them
        and round-trips ``getblocktxn`` straight back to the attacker —
        who has no such block and must answer None, converting each
        announcement into withheld-data misbehavior points at every peer.
        """
        rng = self.node.sim.rng
        chain = self.node.chain
        tip = chain.tip
        height = tip.height + 1
        coinbase = self._coinbase(height)
        shell = build_block(
            prev_hash=tip.block.hash,
            txs=[coinbase],
            timestamp=chain.median_time_past() + 1,
            bits=chain.required_bits(tip.block.hash),
        )
        cb = CompactBlock(
            header=shell.header,
            nonce=rng.getrandbits(64),
            short_ids=tuple(
                bytes(rng.getrandbits(8) for _ in range(6))
                for _ in range(SPAM_BATCH)
            ),
            prefilled=(PrefilledTransaction(0, coinbase),),
        )
        size = cb.serialized_size()
        for peer in self.node.peers:
            self.node.send_to(
                peer,
                lambda p=peer: p.submit_compact_block(cb, origin=self.node),
                msg="compact",
                size=size,
            )

    # -- reporting -----------------------------------------------------

    def banned_by(self, nodes: list[Node]) -> list[str]:
        """Names of the given nodes that have banned this adversary."""
        return [n.name for n in nodes if n.is_banned(self.node)]


# ----------------------------------------------------------------------
# Chaos profiles and the scenario runner
# ----------------------------------------------------------------------


# Every chaos scenario runs on one network: NODE_COUNT nodes at the
# simulator's default hop latency, MINER_COUNT honest miners splitting a
# hashrate that finds a block every BLOCK_INTERVAL seconds, faults firing
# for DURATION simulated seconds.
NODE_COUNT = 6
MINER_COUNT = 4
BLOCK_INTERVAL = 600.0
DURATION = 40 * 3600.0


@dataclass(frozen=True)
class ChaosProfile:
    """A named fault scenario on the one chaos network.  A crashed node
    restarts from its persisted chain; an adversary attacks every
    half hour."""

    name: str
    link: LinkPolicy | None = None
    partition_at: float | None = None
    heal_at: float | None = None
    crash_at: float | None = None
    restart_at: float | None = None
    byzantine: tuple[str, ...] = ()
    byzantine_mines: bool = False  # fund the adversary for double-spends
    compact_relay: bool = False  # opt every node into compact block relay
    convergence_budget: float = 4 * 3600.0  # grace period after DURATION


@dataclass
class ChaosResult:
    """Outcome of one seeded chaos run."""

    profile: str
    seed: int
    converged: bool
    convergence_time: float | None
    height: int
    tip: bytes
    blocks_found: int
    events_processed: int
    utxo_consistent: bool
    byzantine_banned_by: list[str] = field(default_factory=list)
    stop_reason: str = ""
    # Runtime invariant monitors (repro.obs.monitor), when enabled.
    monitor_checks: int = 0
    monitor_violations: int = 0


def converged(nodes: list[Node]) -> bool:
    """Do all live nodes agree on one most-work tip?"""
    tips = {n.chain.tip.block.hash for n in nodes if n.alive}
    return len(tips) == 1


def utxo_sets_match(nodes: list[Node]) -> bool:
    """Do all live nodes hold identical UTXO sets?  (With identical tips
    this must hold — divergence here means consensus state corruption.)"""
    live = [n for n in nodes if n.alive]
    if not live:
        return True
    reference = live[0].chain.utxos.snapshot()
    return all(n.chain.utxos.snapshot() == reference for n in live[1:])


PROFILES: dict[str, ChaosProfile] = {
    # 10% loss plus duplicates, reordering, and latency spikes on every
    # edge for the whole run.
    "lossy": ChaosProfile(
        name="lossy",
        link=LinkPolicy(
            drop=0.10, duplicate=0.05, reorder=0.10, spike=0.05,
            spike_mean=45.0,
        ),
    ),
    # One clean 2-partition episode: 8 simulated hours of divergent
    # mining, then heal and converge.
    "partitioned": ChaosProfile(
        name="partitioned",
        partition_at=8 * 3600.0,
        heal_at=16 * 3600.0,
    ),
    # A funded adversary cycling through every attack behavior.
    "byzantine": ChaosProfile(
        name="byzantine",
        byzantine=BYZANTINE_BEHAVIORS,
        byzantine_mines=True,
    ),
    # Compact relay under the same lossy links: getblocktxn/blocktxn
    # round-trips get dropped too, so the timeout -> retry -> full-block
    # fallback ladder must carry convergence.
    "compact-lossy": ChaosProfile(
        name="compact-lossy",
        compact_relay=True,
        link=LinkPolicy(
            drop=0.10, duplicate=0.05, reorder=0.10, spike=0.05,
            spike_mean=45.0,
        ),
    ),
    # An adversary feeding unreconstructable compact announcements; the
    # withheld-data penalty must get it banned while the honest swarm
    # keeps converging over compact relay.
    "compact-byzantine": ChaosProfile(
        name="compact-byzantine",
        compact_relay=True,
        byzantine=("garbage_compact",),
    ),
    # The acceptance scenario: 10% drop everywhere, one 2-partition
    # episode, one crash/restart, and one byzantine peer — all at once.
    "inferno": ChaosProfile(
        name="inferno",
        link=LinkPolicy(drop=0.10, duplicate=0.03, reorder=0.05),
        partition_at=6 * 3600.0,
        heal_at=12 * 3600.0,
        crash_at=20 * 3600.0,
        restart_at=24 * 3600.0,
        byzantine=BYZANTINE_BEHAVIORS,
        convergence_budget=8 * 3600.0,
    ),
}


# ----------------------------------------------------------------------
# Durable-store faults: kill-mid-write (torn/corrupt log tails)
# ----------------------------------------------------------------------


def inject_torn_write(
    store_dir: str,
    rng: random.Random,
    mode: str = "truncate",
    node: str = "",
) -> int:
    """Damage the tail of a (closed) store's block log at a seeded offset.

    Models the two ways a mid-append process death leaves the log:

    * ``truncate`` — the final record is cut short at a random byte (the
      write never finished reaching the disk);
    * ``corrupt`` — one random byte inside the final record's payload is
      flipped (a sector went bad under the write), so its CRC fails.

    Either way the damage is confined to the last record: recovery must
    truncate it and come back at the previous committed tip.  Returns the
    number of bytes damaged (0 if the log holds no records yet).
    """
    path = os.path.join(store_dir, BLOCK_LOG_NAME)
    scan = scan_records(path, BLOCK_LOG_MAGIC)
    if not scan.records:
        return 0
    size = os.path.getsize(path)
    last_start = scan.records[-1][0]
    if mode == "truncate":
        cut = rng.randrange(last_start + 1, size)
        with open(path, "r+b") as fh:
            fh.truncate(cut)
        damaged = size - cut
    elif mode == "corrupt":
        # Skip the 8-byte record header so the flip lands in the payload
        # and is caught as a CRC mismatch, not a framing tear.
        position = rng.randrange(last_start + 8, size)
        with open(path, "r+b") as fh:
            fh.seek(position)
            original = fh.read(1)
            fh.seek(position)
            fh.write(bytes([original[0] ^ 0xFF]))
        damaged = 1
    else:
        raise ValueError(f"unknown torn-write mode {mode!r}")
    if obs.ENABLED:
        obs.inc("fault.torn_writes_total")
        obs.emit(
            "fault.torn_write",
            node=node,
            file=BLOCK_LOG_NAME,
            mode=mode,
            bytes=damaged,
        )
    return damaged


INFLATION = 50 * 100_000_000  # one early block subsidy


def inject_supply_inflation(node: Node) -> OutPoint:
    """Corrupt a node's UTXO table by conjuring ``INFLATION`` satoshis
    from nowhere — the bug class the ``supply`` invariant monitor exists to
    catch (value that no coinbase ever minted).

    The bogus entry is added directly to the UTXO set, bypassing
    validation, exactly as a state-corruption bug would.  Returns the
    fabricated outpoint so a test can clean it up afterwards.
    """
    outpoint = OutPoint(b"\xfa" * 28 + bytes(4), 0xFFFF_FF00)
    node.chain.utxos.add(
        outpoint,
        UTXOEntry(
            output=TxOut(INFLATION, p2pkh_script(b"\x99" * 20)),
            height=node.chain.height,
            is_coinbase=False,
        ),
    )
    if obs.ENABLED:
        obs.inc("fault.inflations_total")
        obs.emit("fault.inflation", node=node.name, amount=INFLATION)
    return outpoint


@dataclass
class KillMidWriteResult:
    """Outcome of one seeded kill-mid-write scenario."""

    seed: int
    mode: str
    pre_crash_height: int
    recovered_height: int
    tip_match: bool  # recovered tip == independently replayed tip
    utxo_match: bool  # recovered UTXO size + value match that replay
    refetched_blocks: int  # blocks the catch-up sync must re-download
    converged: bool
    final_height: int

    @property
    def ok(self) -> bool:
        return (
            self.tip_match
            and self.utxo_match
            and self.converged
            # Only the torn-off suffix may be re-fetched from peers.
            and self.refetched_blocks <= 1
        )


def _monitor_boundary(nodes: list[Node]) -> None:
    """Force every per-node invariant check on the live nodes (scenario
    boundaries bypass the monitors' sampling)."""
    if not obs.ENABLED:
        return
    from repro.obs.monitor import monitors

    registry = monitors()
    if not registry.enabled:
        return
    for node in nodes:
        if node.alive:
            registry.check_node(node)


KILL_HEIGHT = 24  # the victim's height when it is killed


def run_kill_mid_write(
    store_dir: str,
    seed: int = 0,
    mode: str = "truncate",
) -> KillMidWriteResult:
    """Kill a store-backed node mid-append and verify durable recovery.

    One miner drives a two-node network (so the log is pure connects —
    no reorgs) while the victim persists every block to ``store_dir``.
    At height ``KILL_HEIGHT`` the victim crashes and the block log's tail is
    damaged at a seeded offset (:func:`inject_torn_write`).  On restart
    the victim must recover to the last *committed* block — verified
    byte-for-byte against an independent full-validation replay of the
    same prefix — and then rejoin the network fetching only the torn-off
    suffix from its peer.  The monitors check the victim, its store
    included, after recovery and after convergence.  Deterministic per
    (seed, mode).
    """
    sim = Simulation(seed=seed)
    params = ChainParams(
        max_target=2**252, retarget_window=2**31, require_pow=False
    )
    victim = Node(
        "victim",
        sim,
        params,
        store_dir=store_dir,
        snapshot_interval=8,
    )
    peer = Node("peer", sim, params)
    victim.connect(peer)

    total_rate = block_work(target_to_bits(2**252)) / 600.0
    miner = PoissonMiner(peer, total_rate, miner_id=1)
    miner.start()
    sim.run_while(
        lambda: victim.chain.height < KILL_HEIGHT, limit=1e9
    )

    pre_height = victim.chain.height
    committed_blocks = victim.chain.export_active()
    victim.crash()  # closes the store's file handles
    inject_torn_write(store_dir, sim.rng, mode=mode, node=victim.name)
    victim.restart(persist_chain=True, resync=True)

    _monitor_boundary([victim])
    recovered_height = victim.chain.height
    recovered_tip = victim.chain.tip.block.hash
    # Independent oracle: full-validation replay of the committed prefix.
    oracle = Blockchain(params)
    for block in committed_blocks[:recovered_height]:
        oracle.add_block(block)
    tip_match = oracle.tip.block.hash == recovered_tip
    utxo_match = (
        oracle.utxos.serialized_size()
        == victim.chain.utxos.serialized_size()
        and oracle.utxos.total_value() == victim.chain.utxos.total_value()
    )

    # Rejoin: the restart kicked a catch-up sync; only the torn-off
    # suffix (plus whatever the miner found meanwhile) may be fetched.
    sim.run_while(
        lambda: not converged([victim, peer]), limit=sim.now + 48 * 3600.0
    )
    _monitor_boundary([victim])
    return KillMidWriteResult(
        seed=seed,
        mode=mode,
        pre_crash_height=pre_height,
        recovered_height=recovered_height,
        tip_match=tip_match,
        utxo_match=utxo_match,
        refetched_blocks=pre_height - recovered_height,
        converged=converged([victim, peer]),
        final_height=victim.chain.height,
    )


def run_chaos(profile: ChaosProfile, seed: int = 0) -> ChaosResult:
    """Execute one seeded chaos scenario and report convergence.

    Honest miners split the network hashrate; the configured faults fire
    on their schedule; after ``DURATION`` the run continues until
    every honest node agrees on one tip (or the convergence budget runs
    out).  Deterministic: the same (profile, seed) always yields the
    same result.
    """
    sim = Simulation(seed=seed)
    nodes = build_network(sim, NODE_COUNT)
    for node in nodes:
        node.compact_relay = profile.compact_relay
    honest = list(nodes)

    byz: ByzantinePeer | None = None
    if profile.byzantine:
        byz_node = nodes[-1]
        honest = nodes[:-1]
        byz = ByzantinePeer(byz_node, behaviors=profile.byzantine)
        byz.start()

    total_rate = block_work(target_to_bits(2**252)) / BLOCK_INTERVAL
    miner_count = min(MINER_COUNT, len(honest))
    shares = miner_count + (1 if byz is not None and profile.byzantine_mines else 0)
    miners = [
        PoissonMiner(honest[i], total_rate / shares, miner_id=i)
        for i in range(miner_count)
    ]
    if byz is not None and profile.byzantine_mines:
        # The adversary mines too (honestly publishing), funding the
        # mature outputs its double-spends need.
        miners.append(
            PoissonMiner(
                byz.node,
                total_rate / shares,
                miner_id=1000,
                key_hash=byz.wallet.key_hash,
            )
        )
    for miner in miners:
        miner.start()

    if profile.link is not None:
        install_link_policy(nodes, profile.link)

    if profile.partition_at is not None:
        if profile.heal_at is None:
            raise ValueError("a partition needs a heal time")
        half = len(nodes) // 2
        partition = Partition(sim, nodes[:half], nodes[half:])
        partition.schedule(profile.partition_at, profile.heal_at)

    if profile.crash_at is not None:
        if profile.restart_at is None or profile.restart_at <= profile.crash_at:
            raise ValueError("restart must come after the crash")
        victim = honest[1 % len(honest)]
        sim.schedule(profile.crash_at, victim.crash)
        sim.schedule(profile.restart_at, victim.restart)

    sim.run_until(DURATION)
    _monitor_boundary(honest)
    stop_reason = sim.run_while(
        lambda: not converged(honest),
        limit=DURATION + profile.convergence_budget,
    )
    _monitor_boundary(honest)
    monitor_checks = monitor_violations = 0
    if obs.ENABLED:
        from repro.obs.monitor import monitors

        monitor_checks = monitors().checks_run
        monitor_violations = len(monitors().violations)
    is_converged = converged(honest)
    live = [n for n in honest if n.alive]
    tip = live[0].chain.tip
    return ChaosResult(
        profile=profile.name,
        seed=seed,
        converged=is_converged,
        convergence_time=sim.now if is_converged else None,
        height=tip.height,
        tip=tip.block.hash,
        blocks_found=sum(m.blocks_found for m in miners),
        events_processed=sim.events_processed,
        utxo_consistent=utxo_sets_match(honest) if is_converged else False,
        byzantine_banned_by=byz.banned_by(honest) if byz is not None else [],
        stop_reason=stop_reason,
        monitor_checks=monitor_checks,
        monitor_violations=monitor_violations,
    )
