"""claim-lifecycle and claim-lifecycle-faults.

The paper's whole path under load: a population of wallets submits
Typecoin transactions to an eight-node swarm, miners confirm them, and a
verifier behind the verification service typechecks each claim once its
carrier has one confirmation at the service's node.

Open loop in simulated time: every event fires at its scheduled time
whatever the system is doing, and a claim's latency counts from that
scheduled time.  Closed in wall time: the event loop is single-threaded.
The generator is therefore never late (lateness is reported as 0).
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass

from repro.backoff import derive_rng
from repro.bitcoin.faults import (
    LinkPolicy,
    Partition,
    converged,
    inject_torn_write,
    install_link_policy,
    utxo_sets_match,
)
from repro.bitcoin.network import Node, PoissonMiner, Simulation, build_network
from repro.bitcoin.population import (
    PopulationConfig,
    SyntheticPopulation,
    fund_wallets,
)
from repro.bitcoin.pow import block_work, target_to_bits
from repro.bitcoin.transaction import OutPoint
from repro.bitcoin.wallet import Wallet
from repro.core.builder import simple_transfer
from repro.core.overlay import OverlayError
from repro.core.transaction import TypecoinOutput
from repro.core.wallet import ClientError, TypecoinClient
from repro.logic.propositions import One
from repro.service import ServiceClient, VerificationService
from repro.store import BlockStore

from bench.common import (
    CorrectnessError,
    Round,
    Window,
    check_verdict,
    fresh_process_caches,
    percentile,
    replay_verdict,
    sha256_hex,
    store_log_bytes,
)

# The shape of the load — who submits when, hop delays, block times — is
# fixed by this constant, and ``--seed`` derives every key instead (so
# every address, txid, signature and claim bundle differs between seeds).
# A seed-dependent schedule moved throughput by more than 10 % between
# seeds (share of transfers, blocks inside the horizon), which would hide
# any change smaller than that.
SHAPE_SEED = 7

NODES = 8
MINER_NODES = (3, 6)
SERVICE_NODE = 0
BLOCK_INTERVAL = 600.0  # combined mean, simulated seconds
TICK = 30.0  # verifier poll period, simulated seconds
EVENT_RATE = 0.05  # the population's mean events per simulated second
DRAIN = 20 * BLOCK_INTERVAL  # room after the last event for its block
SETTLE = 6 * BLOCK_INTERVAL  # room after the run for every tip to agree
CLIENT_KEYS = 4  # TypecoinClient derives this many keys from its seed

# No message is dropped: transaction relay has no retransmission, so a
# lost ``tx`` message can strand a claim for ever (see README, leads).
FAULT_LINK = LinkPolicy(duplicate=0.05, reorder=0.10, spike=0.02)
# Cut off two nodes that neither mine nor host the service: both miners
# stay on one side, so healing brings no deep reorg, which at one
# confirmation would un-acknowledge verified claims.
ISOLATED_NODES = (4, 5)
PARTITION_SHARE = 0.25  # of the horizon, starting at one third of it
OUTAGE_SHARE = 0.10  # of the horizon, starting at two thirds of it


class SubmitRefused(Exception):
    """The node did not admit the carrier to its mempool."""


class NodeNet:
    """The two things :class:`TypecoinClient` asks of a network — a chain
    to read and a way to send — served by simulated nodes.  A wallet has
    two configured peers.  It reads the chain of whichever live one has
    more work, because a node that is cut off or has just restarted
    offers outputs that the network has already seen spent; and it
    broadcasts to both, because a transaction that reaches only a
    cut-off node is never relayed again."""

    def __init__(self, home: Node, backup: Node):
        self.peers = (home, backup)

    @property
    def chain(self):
        live = [node for node in self.peers if node.alive]
        return max(live, key=lambda node: node.chain.tip.chain_work).chain

    def send(self, tx) -> bytes:
        # Every peer is offered the transaction: no short-circuit.
        admitted = [node.submit_transaction(tx) for node in self.peers]
        if not any(admitted):
            raise SubmitRefused(tx.txid_hex)
        return tx.txid


@dataclass
class Inputs:
    seed: int
    events: list[tuple[float, int]]  # (simulated time, wallet)
    wallets: dict[int, Wallet]  # keys derived once: key generation is input
    funding: list  # blocks every node boots from
    horizon: float  # simulated time of the last event
    digests: dict[str, str]


@dataclass
class Claim:
    wallet: int
    due: float  # scheduled submit time
    outpoint: OutPoint | None = None
    verified_at: float | None = None
    status: str = "pending"  # pending | ok | refused | invalid | infra


def client_seed(seed: int, wallet: int) -> bytes:
    return b"bench-%d-wallet-%d" % (seed, wallet)


def setup(seed: int, sizes: dict) -> Inputs:
    events = sizes["events"]
    population = SyntheticPopulation(
        PopulationConfig(wallets=1_000_000, seed=SHAPE_SEED)
    )
    # The schedule is a function of (seed, window): take the first
    # ``events`` of a window long enough to hold them at the mean rate.
    duration = 1.5 * events / EVENT_RATE
    trace = population.trace(0.0, duration)
    while len(trace) < events:
        duration *= 2
        trace = population.trace(0.0, duration)
    trace = trace[:events]
    wallets = {}
    for _at, wallet in trace:
        if wallet not in wallets:
            keys = Wallet.from_seed(client_seed(seed, wallet), CLIENT_KEYS)
            for key in keys.keys:
                key.public.key_hash  # derive now, not inside a window
            wallets[wallet] = keys
    # One funded output per event, so no submit waits for change.
    funding = fund_wallets([wallets[w].key_hash for _at, w in trace])
    schedule = b"".join(struct.pack("<dI", at, w) for at, w in trace)
    return Inputs(
        seed=seed,
        events=trace,
        wallets=wallets,
        funding=funding,
        horizon=trace[-1][0],
        digests={
            "population": population.trace_digest(0.0, duration),
            "schedule": sha256_hex(schedule),
            "funding_blocks": sha256_hex(*(b.serialize() for b in funding)),
        },
    )


class _Swarm:
    """One round's fresh state: simulation, nodes, miners, clients, service."""

    def __init__(self, inputs: Inputs, store_dir: str, faults: bool):
        self.store_dir = store_dir
        self.sim = Simulation(seed=SHAPE_SEED)

        def make_node(name, sim, params, latency):
            if name == f"node{SERVICE_NODE}":
                return Node(name, sim, params, latency, store_dir=store_dir)
            return Node(name, sim, params, latency)

        self.nodes = build_network(self.sim, NODES, node_cls=make_node)
        self.reorgs = 0
        for node in self.nodes:
            for block in inputs.funding:
                if not node.chain.add_block(block):
                    raise RuntimeError("node rejected the funding prefix")
            self._watch_reorgs(node)
            if faults:
                # Under loss an orphan's parent may never arrive by gossip.
                node.auto_sync = True
        self.service_node = self.nodes[SERVICE_NODE]
        rate = block_work(target_to_bits(2**252)) / BLOCK_INTERVAL
        self.miners = [
            PoissonMiner(self.nodes[i], rate / len(MINER_NODES), miner_id=i)
            for i in MINER_NODES
        ]
        self.clients: dict[int, TypecoinClient] = {}
        for wallet, keys in inputs.wallets.items():
            net = NodeNet(
                self.nodes[wallet % NODES],
                self.nodes[(wallet + NODES // 2) % NODES],
            )
            client = TypecoinClient(net, client_seed(inputs.seed, wallet))
            client.wallet = keys
            self.clients[wallet] = client
        self.service: VerificationService | None = None
        self.verifier: ServiceClient | None = None
        self.services_closed: list[VerificationService] = []
        self._connect_service()

    def _watch_reorgs(self, node: Node) -> None:
        def on_reorg(_disconnected, _connected):
            self.reorgs += 1

        node.chain.add_reorg_listener(on_reorg)

    def _connect_service(self) -> None:
        """(Re)build the service over the service node's current chain —
        a restart replaces the chain object, and a restarted service
        starts with a cold memo."""
        if self.service is not None:
            self.service.close()
            self.services_closed.append(self.service)
            self._watch_reorgs(self.service_node)  # the new chain object
        self.service = VerificationService(self.service_node.chain)
        self.verifier = ServiceClient(self.service, sleep=lambda _delay: None)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
        store = self.service_node.chain.store
        if store is not None:
            store.close()


def run_round(inputs: Inputs, tracer, scratch, faults: bool) -> Round:
    fresh_process_caches()
    store_dir = scratch.fresh_dir()
    swarm = _Swarm(inputs, store_dir, faults)
    try:
        return _drive(swarm, inputs, tracer, faults)
    finally:
        swarm.close()
        scratch.discard(store_dir)


def _drive(swarm: _Swarm, inputs: Inputs, tracer, faults: bool) -> Round:
    sim = swarm.sim
    claims = [Claim(wallet, due) for due, wallet in inputs.events]
    holding: dict[int, OutPoint] = {}  # wallet -> its last verified claim
    waiting: list[Claim] = []  # submitted, not yet verified
    submit_ms: list[float] = []
    state = {"submitted": 0, "healed_at": None, "converged_at": None}
    window = Window(tracer)

    def submit(claim: Claim) -> None:
        with tracer.harness():
            client = swarm.clients[claim.wallet]
            start = time.perf_counter()
            client.sync()
            # Transfer the wallet's last verified claim if its node still
            # holds it (a fork may have unconfirmed it); else a fresh grant.
            held = holding.get(claim.wallet)
            spends = []
            if (
                held is not None
                and client.ledger.output(held.txid, held.index) is not None
                and client.net.chain.utxos.get(held) is not None
            ):
                spends = [client.input_for(held)]
                del holding[claim.wallet]
            txn = simple_transfer(
                spends, [TypecoinOutput(One(), 600, client.pubkey)]
            )
            try:
                carrier = client.submit(txn)
            except (SubmitRefused, ClientError, OverlayError):
                claim.status = "refused"
            else:
                claim.outpoint = OutPoint(carrier.txid, 0)
                waiting.append(claim)
            submit_ms.append((time.perf_counter() - start) * 1e3)
            state["submitted"] += 1

    def tick() -> None:
        with tracer.harness():
            _verify_waiting()
            if faults and state["healed_at"] is not None:
                if state["converged_at"] is None and converged(swarm.nodes):
                    state["converged_at"] = sim.now
        if state["submitted"] < len(claims) or waiting:
            sim.schedule(TICK, tick)

    def _verify_waiting() -> None:
        node = swarm.service_node
        if not node.alive:
            return
        if swarm.service.chain is not node.chain:
            swarm._connect_service()
        still = []
        for claim in waiting:
            client = swarm.clients[claim.wallet]
            txid = claim.outpoint.txid
            if node.chain.confirmations(txid) < 1:
                still.append(claim)
                continue
            client.sync()
            if txid not in client.known:
                still.append(claim)  # the client's own node is behind
                continue
            bundle = client.claim_bundle(claim.outpoint, One())
            verdict = swarm.verifier.verify(bundle)
            with window.untimed():
                want = replay_verdict(node.chain, bundle)
            check_verdict(verdict, want, f"claim of wallet {claim.wallet}")
            if verdict.status == "ok":
                claim.status = "ok"
                claim.verified_at = sim.now
                holding[claim.wallet] = claim.outpoint
            elif verdict.status == "invalid":
                claim.status = "invalid"
            else:
                claim.status = "infra"
        waiting[:] = still

    for claim in claims:
        sim.schedule(claim.due, lambda c=claim: submit(c))
    sim.schedule(TICK, tick)
    for miner in swarm.miners:
        miner.start()
    if faults:
        install_link_policy(swarm.nodes, FAULT_LINK)
        isolated = [swarm.nodes[i] for i in ISOLATED_NODES]
        rest = [n for n in swarm.nodes if n not in isolated]
        cut_at = inputs.horizon / 3
        heal_at = cut_at + PARTITION_SHARE * inputs.horizon
        Partition(sim, rest, isolated).schedule(cut_at, heal_at)
        sim.schedule(heal_at, lambda: state.update(healed_at=sim.now))
        crash_at = 2 * inputs.horizon / 3
        torn = derive_rng("bench-torn-write", SHAPE_SEED)

        def crash() -> None:
            swarm.service_node.crash()
            inject_torn_write(swarm.store_dir, torn)

        sim.schedule(crash_at, crash)
        sim.schedule(
            crash_at + OUTAGE_SHARE * inputs.horizon,
            lambda: swarm.service_node.restart(persist_chain=True),
        )

    with window:
        sim.run_while(
            lambda: state["submitted"] < len(claims) or bool(waiting),
            limit=inputs.horizon + DRAIN,
        )

    # Untimed from here: let every tip settle, then check the end state.
    # Mining goes on, because only the next block ends a fork between two
    # tips of equal work.
    sim.run_while(lambda: not converged(swarm.nodes), limit=sim.now + SETTLE)
    if not converged(swarm.nodes):
        raise CorrectnessError("live nodes did not converge on one tip")
    if not utxo_sets_match(swarm.nodes):
        raise CorrectnessError("live nodes disagree on the UTXO set")
    _check_still_verifiable(swarm, claims)

    for claim in waiting:
        claim.status = "unverified"
    ok = [c for c in claims if c.status == "ok"]
    commit = sorted(c.verified_at - c.due for c in ok)
    digest = sha256_hex(
        *sorted(
            c.outpoint.txid + struct.pack("<d", c.verified_at) for c in ok
        )
    )
    services = swarm.services_closed + [swarm.service]
    memo_hits = sum(s.memo.hits for s in services)
    memo_misses = sum(s.memo.misses for s in services)
    sent: dict[str, int] = {}
    for node in swarm.nodes:
        for kind, amount in node.bytes_sent.items():
            sent[kind] = sent.get(kind, 0) + amount
    counts = {
        "e2e.commit_sim_p50_s": percentile(commit, 0.50) if commit else 0.0,
        "e2e.commit_sim_p99_s": percentile(commit, 0.99) if commit else 0.0,
        "bitcoin.chain.reorgs": swarm.reorgs,
        "bitcoin.miner.blocks": sum(m.blocks_found for m in swarm.miners),
        "bitcoin.network.tx_bytes": sent.get("tx", 0),
        "bitcoin.network.block_bytes": sum(
            amount for kind, amount in sent.items() if kind != "tx"
        ),
        "service.memo_hits": memo_hits,
        "service.memo_misses": memo_misses,
        "service.shed": sum(s.shed for s in services),
        "store.log_bytes": store_log_bytes(BlockStore(swarm.store_dir)),
        "harness.sim_events": sim.events_processed,
        "harness.generator_late_sim_s": 0.0,
        "harness.converge_sim_s": (
            state["converged_at"] - state["healed_at"]
            if state["converged_at"] is not None
            else 0.0
        ),
    }
    return window.round(
        len(claims), len(claims) - len(ok), submit_ms, digest, counts
    )


def _check_still_verifiable(swarm: _Swarm, claims: list[Claim]) -> None:
    """Every claim that was answered ``ok`` still verifies against the
    service node's final chain — through a partition's reorg, and through
    the crash, torn write and recovery.  Later transfers may have spent
    it, which is not a loss."""
    chain = swarm.service_node.chain
    for claim in claims:
        if claim.status != "ok":
            continue
        bundle = swarm.clients[claim.wallet].claim_bundle(claim.outpoint, One())
        if replay_verdict(chain, bundle, require_unspent=False) != "ok":
            raise CorrectnessError(
                f"the claim verified at {claim.verified_at:.0f} sim-s was lost"
            )
