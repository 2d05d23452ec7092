"""Chaos-layer tests: faulty links, partitions, crash/recovery, sync,
misbehavior scoring, and the seeded scenario runner.

The perfect-network simulator (test_network.py) shows convergence when
nothing goes wrong; these tests show it *despite* loss, duplication,
partitions, crashes and an active adversary.  (That with no faults
configured the chaos machinery changes nothing is test_network.py's
seeded-trajectory pin.)
"""

import random

import pytest

from repro import obs
from repro.bitcoin.block import build_block
from repro.bitcoin.chain import Blockchain, ChainParams, block_subsidy
from repro.bitcoin.compact import CompactBlock, PrefilledTransaction
from repro.bitcoin.faults import (
    BYZANTINE_BEHAVIORS,
    ByzantinePeer,
    ChaosProfile,
    LinkPolicy,
    PROFILES,
    Partition,
    converged,
    install_link_policy,
    run_chaos,
    utxo_sets_match,
)
from repro.bitcoin.mempool import (
    MempoolMissingInputError,
    MempoolValidationError,
)
from repro.bitcoin.network import (
    DEFAULT_BAN_THRESHOLD,
    Node,
    PoissonMiner,
    Simulation,
    build_network,
)
from repro.bitcoin.pow import block_work, target_to_bits
from repro.bitcoin.relay import (
    POINTS_INVALID_BLOCK,
    POINTS_INVALID_TX,
    POINTS_STALE_TX,
)
from repro.bitcoin.script import Script
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.sync import SyncConfig, start_sync
from repro.bitcoin.transaction import COIN, OutPoint, Transaction, TxIn, TxOut
from repro.bitcoin.utxo import COINBASE_MATURITY
from repro.bitcoin.wallet import Wallet

PARAMS = ChainParams(max_target=2**252, retarget_window=2**31, require_pow=False)
TOTAL_RATE = block_work(target_to_bits(2**252)) / 600.0


def make_nodes(count, seed=1, latency=2.0, connect=True):
    sim = Simulation(seed=seed)
    if connect:
        return sim, build_network(sim, count, latency=latency)
    return sim, [Node(f"node{i}", sim, PARAMS, latency) for i in range(count)]


def mine_to(node, height, miner_id=1, rate=TOTAL_RATE, key_hash=None):
    """Grow ``node``'s chain to ``height`` then stop the miner."""
    miner = PoissonMiner(node, rate, miner_id=miner_id, key_hash=key_hash)
    miner.start()
    node.sim.run_while(lambda: node.chain.height < height, limit=1e12)
    miner.enabled = False
    return miner


def coinbase_for(height, key_hash=b"\x33" * 20, nonce=0):
    tag = Script([height.to_bytes(4, "little"), nonce.to_bytes(4, "little")])
    return Transaction(
        vin=[TxIn(OutPoint.null(), tag)],
        vout=[TxOut(block_subsidy(height), p2pkh_script(key_hash))],
    )


def invalid_block_on(chain, nonce=0):
    """A block extending the tip with consensus-invalid difficulty bits."""
    tip = chain.tip
    return build_block(
        prev_hash=tip.block.hash,
        txs=[coinbase_for(tip.height + 1, nonce=nonce)],
        timestamp=chain.median_time_past() + 1,
        bits=chain.required_bits(tip.block.hash) + 1,
    )


def orphan_block(nonce=0):
    """A block whose parent no one has."""
    fake_parent = bytes([nonce + 1]) * 32
    return build_block(
        prev_hash=fake_parent,
        txs=[coinbase_for(1, nonce=nonce)],
        timestamp=1_300_000_000,
        bits=target_to_bits(2**252),
    )


def unbacked_announcement(chain):
    """A compact announcement extending the tip that no mempool can
    reconstruct: the receiver is left waiting on a getblocktxn."""
    coinbase = coinbase_for(chain.height + 1)
    shell = build_block(
        prev_hash=chain.tip.block.hash,
        txs=[coinbase],
        timestamp=chain.median_time_past() + 1,
        bits=chain.required_bits(chain.tip.block.hash),
    )
    return CompactBlock(
        header=shell.header,
        nonce=1,
        short_ids=(b"\x01" * 6,),
        prefilled=(PrefilledTransaction(0, coinbase),),
    )


@pytest.fixture
def obs_on():
    """Observability enabled against private state, restored afterwards."""
    was_enabled = obs.ENABLED
    saved_registry = obs.set_registry(obs.Registry())
    saved_events = obs.set_event_log(obs.EventLog())
    obs.enable()
    yield
    obs.set_registry(saved_registry)
    obs.set_event_log(saved_events)
    obs.ENABLED = was_enabled


def event_kinds():
    return [e["kind"] for e in obs.events().snapshot()]


class TestLinkPolicy:
    def test_plan_is_deterministic(self):
        policy = LinkPolicy(drop=0.2, duplicate=0.2, reorder=0.3, spike=0.2)
        plans_a = [policy.plan(random.Random(5), 2.0) for _ in range(1)]
        plans_b = [policy.plan(random.Random(5), 2.0) for _ in range(1)]
        assert plans_a == plans_b

    def test_certain_drop(self):
        plan = LinkPolicy(drop=1.0).plan(random.Random(0), 2.0)
        assert plan.dropped
        assert plan.delays == ()

    def test_certain_duplicate(self):
        plan = LinkPolicy(duplicate=1.0).plan(random.Random(0), 2.0)
        assert plan.duplicated
        assert len(plan.delays) == 2
        assert plan.delays[0] == 2.0  # original delivery keeps base delay
        assert plan.delays[1] >= plan.delays[0]  # echo trails the original

    def test_zero_probability_faults_draw_no_randomness(self):
        # A policy with every fault at probability zero must not consume
        # RNG draws — this is what keeps fault-free runs bit-identical.
        rng = random.Random(9)
        state = rng.getstate()
        plan = LinkPolicy().plan(rng, 3.5)
        assert rng.getstate() == state
        assert plan.delays == (3.5,)
        assert not plan.dropped and not plan.duplicated

    def test_null_policy_preserves_seeded_stream(self):
        """An installed all-zero policy yields the same chain as no policy."""

        def run(install):
            sim, nodes = make_nodes(4, seed=11)
            if install:
                install_link_policy(nodes, LinkPolicy())
            miner = PoissonMiner(nodes[0], TOTAL_RATE, miner_id=1)
            miner.start()
            sim.run_until(4 * 3600)
            return nodes[0].chain.tip.block.hash

        assert run(False) == run(True)

    def test_install_counts_directed_edges(self):
        _, nodes = make_nodes(6)
        edges = install_link_policy(nodes, LinkPolicy(drop=0.5))
        # Ring + chords on 6 nodes: 9 undirected edges, 18 directed.
        assert edges == 18
        cleared = install_link_policy(nodes, None)
        assert cleared == edges

    def test_dropped_messages_stall_gossip(self):
        sim, nodes = make_nodes(2, seed=3)
        install_link_policy(nodes, LinkPolicy(drop=1.0))
        mine_to(nodes[0], 3)
        sim.run_until(sim.now + 3600)
        assert nodes[0].chain.height >= 3
        assert nodes[1].chain.height == 0  # everything was dropped

    def test_fault_events_recorded(self, obs_on):
        sim, nodes = make_nodes(2, seed=4)
        install_link_policy(nodes, LinkPolicy(drop=0.5, duplicate=0.4))
        mine_to(nodes[0], 5)
        sim.run_until(sim.now + 3600)
        reg = obs.registry()
        dropped = reg.counter("fault.msgs_dropped_total").value
        duplicated = reg.counter("fault.msgs_duplicated_total").value
        assert dropped > 0 and duplicated > 0
        kinds = set(event_kinds())
        assert "fault.drop" in kinds and "fault.duplicate" in kinds


class TestConnectDisconnect:
    def test_connect_is_idempotent(self):
        _, (a, b) = make_nodes(2, connect=False)
        assert a.connect(b) is True
        assert a.connect(b) is False
        assert b.connect(a) is False
        assert a.peers == [b] and b.peers == [a]

    def test_connect_self_refused(self):
        _, (a,) = make_nodes(1, connect=False)
        assert a.connect(a) is False
        assert a.peers == []

    def test_disconnect_inverse(self):
        _, (a, b) = make_nodes(2, connect=False)
        a.connect(b)
        assert a.disconnect(b) is True
        assert a.disconnect(b) is False
        assert a.peers == [] and b.peers == []

    def test_disconnect_aborts_sync(self):
        sim, (a, b) = make_nodes(2, connect=False)
        a.connect(b)
        mine_to(b, 5, miner_id=2)
        session = start_sync(a, b)
        assert session is not None and not session.done
        a.disconnect(b)
        assert session.done and not session.succeeded
        assert a._syncs == {}

    def test_banned_peer_cannot_reconnect(self):
        _, (a, b) = make_nodes(2, connect=False)
        a.connect(b)
        a.penalize(b, DEFAULT_BAN_THRESHOLD, "test")
        assert a.is_banned(b)
        assert b not in a.peers  # ban disconnects
        assert a.connect(b) is False
        assert b.connect(a) is False


class TestBoundedPools:
    def test_seen_tx_set_is_bounded(self):
        _, (node,) = make_nodes(1, connect=False)
        node.seen_limit = 5
        for i in range(12):
            tx = Transaction(
                vin=[TxIn(OutPoint(bytes([i + 1]) * 32, 0))],
                vout=[TxOut(50_000, p2pkh_script(b"\x11" * 20))],
            )
            node.submit_transaction(tx)
        assert len(node.relay._seen_txs) <= 5

    def test_orphan_pool_is_bounded(self):
        _, (node,) = make_nodes(1, connect=False)
        node.orphan_limit = 3
        for i in range(8):
            node.submit_block(orphan_block(nonce=i))
        assert len(node.relay._orphans) <= 3
        # The by-parent index shrinks with the pool.
        index = node.relay._orphans_by_parent
        indexed = sum(len(v) for v in index.values())
        assert indexed == len(node.relay._orphans)

    def test_eviction_is_observable(self, obs_on):
        _, (node,) = make_nodes(1, connect=False)
        node.orphan_limit = 2
        for i in range(5):
            node.submit_block(orphan_block(nonce=i))
        reg = obs.registry()
        assert reg.counter("mempool.orphans_evicted_total").value == 3
        assert event_kinds().count("orphan.evicted") == 3

    def test_orphan_still_adopted_after_pressure(self):
        """A parked orphan that survives eviction connects when its parent
        arrives."""
        sim, (a, b) = make_nodes(2, connect=False)
        mine_to(a, 2)
        blocks = a.chain.export_active()
        b.submit_block(blocks[1])  # child first: parked as orphan
        assert b.chain.height == 0 and len(b.relay._orphans) == 1
        b.submit_block(blocks[0])  # parent arrives: both connect
        assert b.chain.height == 2
        assert b.relay._orphans == {}

    def test_evicted_orphan_can_be_delivered_again(self):
        """An orphan evicted from the full pool is forgotten, not left
        "seen": left seen, no relay and no catch-up sync could ever hand
        the node that block again, and a sync asked for it for ever."""
        sim, (a, b) = make_nodes(2, connect=False)
        mine_to(a, 80)
        blocks = a.chain.export_active()
        for block in blocks[1:]:  # 79 orphans against orphan_limit = 64
            b.submit_block(block)
        b.submit_block(blocks[0])
        assert b.chain.height == 1  # blocks 2..16 were evicted
        a.connect(b)
        session = start_sync(b, a)
        sim.run_until(sim.now + 50_000)
        assert session.done and session.succeeded
        assert b.chain.height == 80
        assert session.blocks_fetched == 15  # the evicted ones, no more


class TestMisbehavior:
    def test_invalid_block_penalizes_and_bans(self):
        _, (victim, evil) = make_nodes(2, connect=False)
        victim.connect(evil)
        victim.submit_block(invalid_block_on(victim.chain, nonce=0), origin=evil)
        assert victim.misbehavior_score(evil) == POINTS_INVALID_BLOCK
        assert not victim.is_banned(evil)
        victim.submit_block(invalid_block_on(victim.chain, nonce=1), origin=evil)
        assert victim.misbehavior_score(evil) == 2 * POINTS_INVALID_BLOCK
        assert victim.is_banned(evil)
        assert evil not in victim.peers

    def test_double_spend_block_costs_the_sender_and_goes_no_further(self):
        sim, (victim, evil, bystander) = make_nodes(3, connect=False)
        victim.connect(evil)
        victim.connect(bystander)
        wallet = Wallet.from_seed(b"chaos-double-spend")
        mine_to(victim, COINBASE_MATURITY + 1, key_hash=wallet.key_hash)
        sim.run_until(sim.now + 60)
        chain = victim.chain
        assert bystander.chain.tip.block.hash == chain.tip.block.hash

        def block_with(txs, nonce):
            tip = chain.tip
            return build_block(
                prev_hash=tip.block.hash,
                txs=[coinbase_for(tip.height + 1, nonce=nonce), *txs],
                timestamp=chain.median_time_past() + 1,
                bits=chain.required_bits(tip.block.hash),
            )

        # Two different spends of the wallet's one mature coinbase.
        spends = [
            wallet.create_transaction(
                chain, [TxOut(COIN + i, p2pkh_script(wallet.key_hash))], fee=1000
            )
            for i in range(2)
        ]
        bad = block_with(spends, nonce=0)
        before = (chain.tip.block.hash, chain.utxos.snapshot())
        victim.submit_block(bad, origin=evil)
        sim.run_until(sim.now + 60)
        assert victim.misbehavior_score(evil) == POINTS_INVALID_BLOCK
        assert (chain.tip.block.hash, chain.utxos.snapshot()) == before
        assert not bystander.chain.has_block(bad.hash)
        # The event loop is intact: the next honest block goes round.
        good = block_with(spends[:1], nonce=1)
        victim.submit_block(good)
        sim.run_until(sim.now + 60)
        assert bystander.chain.tip.block.hash == good.hash

    def test_locally_produced_failures_not_penalized(self):
        _, (node,) = make_nodes(1, connect=False)
        node.submit_block(invalid_block_on(node.chain))  # origin=None
        assert node._misbehavior == {}

    def test_missing_input_tx_costs_token_points(self):
        _, (victim, peer) = make_nodes(2, connect=False)
        victim.connect(peer)
        tx = Transaction(
            vin=[TxIn(OutPoint(b"\xaa" * 32, 0))],
            vout=[TxOut(50_000, p2pkh_script(b"\x11" * 20))],
        )
        assert victim.submit_transaction(tx, origin=peer) is False
        assert victim.misbehavior_score(peer) == POINTS_STALE_TX

    def test_stale_tx_penalty_follows_the_type_not_the_message(
        self, monkeypatch
    ):
        _, (victim, peer) = make_nodes(2, connect=False)
        victim.connect(peer)
        refusals = iter(
            [
                MempoolMissingInputError("the input is gone"),
                MempoolValidationError("missing or spent input, it says"),
            ]
        )

        def refuse(tx):
            raise next(refusals)

        monkeypatch.setattr(victim.mempool, "accept", refuse)
        for nonce, points in ((1, POINTS_STALE_TX), (2, POINTS_INVALID_TX)):
            before = victim.misbehavior_score(peer)
            tx = Transaction(
                vin=[TxIn(OutPoint(bytes([nonce]) * 32, 0))],
                vout=[TxOut(50_000, p2pkh_script(b"\x11" * 20))],
            )
            assert victim.submit_transaction(tx, origin=peer) is False
            assert victim.misbehavior_score(peer) - before == points

    def test_policy_refusal_not_penalized(self):
        _, (victim, peer) = make_nodes(2, connect=False)
        victim.connect(peer)
        nonstandard = Transaction(
            vin=[TxIn(OutPoint(b"\xbb" * 32, 0))],
            vout=[TxOut(50_000, Script([b"arbitrary junk"]))],
        )
        assert victim.submit_transaction(nonstandard, origin=peer) is False
        assert victim.misbehavior_score(peer) == 0

    def test_rejected_block_emits_event(self, obs_on):
        _, (victim, evil) = make_nodes(2, connect=False)
        victim.connect(evil)
        block = invalid_block_on(victim.chain)
        victim.submit_block(block, origin=evil)
        reg = obs.registry()
        assert reg.counter("chain.blocks_rejected_total").value == 1
        rejected = [
            e for e in obs.events().snapshot() if e["kind"] == "block.rejected"
        ]
        assert len(rejected) == 1
        assert rejected[0]["data"]["hash"] == block.hash.hex()
        assert "peer.misbehavior" in event_kinds()


class TestCrashRestart:
    def setup_pair(self, seed=6, height=8):
        sim, (a, b) = make_nodes(2, seed=seed, connect=False)
        a.connect(b)
        miner = mine_to(a, height)
        sim.run_until(sim.now + 600)  # let gossip finish
        assert b.chain.height == a.chain.height
        return sim, a, b, miner

    def test_crash_severs_and_forgets(self):
        sim, a, b, _ = self.setup_pair()
        b.submit_block(orphan_block())
        b.crash()
        assert not b.alive
        assert b.peers == [] and a.peers == []
        assert len(b.mempool) == 0
        assert b.relay._orphans == {} and b.relay._seen_txs == {}
        assert b.crash() is None  # idempotent

    @pytest.mark.parametrize("handler", ["relay", "compact"])
    def test_crash_resets_every_handler(self, handler, obs_on):
        """After a crash no handler holds a parked orphan, a pending
        reconstruction, a seen transaction or bookkeeping about one: each
        is what a newly built handler is."""
        sim, a, b, _ = self.setup_pair()
        b.submit_block(orphan_block())  # parked
        b.submit_transaction(
            Transaction(
                vin=[TxIn(OutPoint(b"\xaa" * 32, 0))],
                vout=[TxOut(50_000, p2pkh_script(b"\x11" * 20))],
            )
        )
        b.submit_compact_block(unbacked_announcement(b.chain), origin=a)
        held = getattr(b, handler)
        fresh = type(held)(b)
        assert vars(held) != vars(fresh)
        b.crash()
        assert vars(held) == vars(fresh)

    def test_deliveries_to_dead_node_are_lost(self):
        sim, a, b, miner = self.setup_pair()
        b.crash()
        height_at_crash = b.chain.height
        miner.enabled = True
        sim.run_while(lambda: a.chain.height < 12, limit=1e12)
        assert b.chain.height == height_at_crash

    def test_restart_with_persisted_chain_resyncs(self):
        sim, a, b, miner = self.setup_pair()
        b.crash()
        miner.enabled = True
        sim.run_while(lambda: a.chain.height < 12, limit=1e12)
        miner.enabled = False
        b.restart(persist_chain=True)
        assert b.alive
        assert b.chain.height >= 8  # the "disk" survived
        assert a in b.peers  # reconnected to pre-crash peers
        sim.run_until(sim.now + 7200)
        assert b.chain.tip.block.hash == a.chain.tip.block.hash

    def test_restart_without_persistence_redownloads(self):
        sim, a, b, miner = self.setup_pair()
        b.crash()
        b.restart(persist_chain=False)
        assert b.chain.height == 0  # lost its disk
        sim.run_until(sim.now + 7200)
        assert b.chain.tip.block.hash == a.chain.tip.block.hash

    def test_restart_emits_events(self, obs_on):
        sim, a, b, _ = self.setup_pair(seed=8)
        b.crash()
        b.restart()
        reg = obs.registry()
        assert reg.counter("fault.crashes_total").value == 1
        assert reg.counter("fault.restarts_total").value == 1
        kinds = event_kinds()
        assert "fault.crash" in kinds and "fault.restart" in kinds


class TestChainSyncHelpers:
    def test_locator_shape(self):
        sim, (node,) = make_nodes(1, connect=False)
        mine_to(node, 40)
        locator = node.chain.locator()
        assert locator[0] == node.chain.tip.block.hash
        assert locator[-1] == node.chain.genesis.hash
        assert len(locator) < 40  # sparse toward genesis
        assert all(node.chain.has_block(h) for h in locator)

    def test_hashes_after_serves_whats_missing(self):
        sim, (ahead, behind) = make_nodes(2, connect=False)
        mine_to(ahead, 10)
        hashes = ahead.chain.hashes_after(behind.chain.locator(), limit=2000)
        assert len(hashes) == 10
        assert hashes[-1] == ahead.chain.tip.block.hash
        # Equal chains have nothing to serve.
        assert ahead.chain.hashes_after(ahead.chain.locator(), 2000) == []

    def test_hashes_after_respects_limit(self):
        sim, (ahead, behind) = make_nodes(2, connect=False)
        mine_to(ahead, 10)
        hashes = ahead.chain.hashes_after(behind.chain.locator(), limit=4)
        assert len(hashes) == 4

    def test_export_active_replays_to_same_tip(self):
        sim, (node,) = make_nodes(1, connect=False)
        mine_to(node, 6)
        replayed = Blockchain(PARAMS)
        for block in node.chain.export_active():
            replayed.add_block(block)
        assert replayed.tip.block.hash == node.chain.tip.block.hash


class TestSync:
    def test_catch_up_from_scratch(self):
        sim, (behind, ahead) = make_nodes(2, connect=False)
        mine_to(ahead, 15, miner_id=2)  # mined in isolation: no gossip
        behind.connect(ahead)
        session = start_sync(behind, ahead)
        sim.run_until(sim.now + 3600)
        assert session.done and session.succeeded
        assert session.blocks_fetched == 15
        assert behind.chain.tip.block.hash == ahead.chain.tip.block.hash

    def test_one_session_per_pair(self):
        sim, (behind, ahead) = make_nodes(2, connect=False)
        behind.connect(ahead)
        mine_to(ahead, 5, miner_id=2)
        first = start_sync(behind, ahead)
        assert first is not None
        assert start_sync(behind, ahead) is None  # collapsed into `first`

    def test_sync_survives_lossy_link(self, obs_on):
        sim, (behind, ahead) = make_nodes(2, seed=13, connect=False)
        mine_to(ahead, 12, miner_id=2)
        behind.connect(ahead)
        lossy = LinkPolicy(drop=0.3)
        behind.set_link_policy(ahead, lossy)
        ahead.set_link_policy(behind, lossy)
        session = start_sync(behind, ahead)
        sim.run_until(sim.now + 48 * 3600)
        assert session.done and session.succeeded
        assert behind.chain.tip.block.hash == ahead.chain.tip.block.hash
        # 30% loss on both legs: some request had to be retried.
        assert obs.registry().counter("sync.retries_total").value > 0

    def test_sync_against_dead_peer_fails(self, obs_on):
        sim, (behind, ahead) = make_nodes(2, connect=False)
        behind.connect(ahead)
        mine_to(ahead, 5, miner_id=2)
        ahead.alive = False
        config = SyncConfig(timeout_hops=5.0, max_retries=2)  # 10 s
        session = start_sync(behind, ahead, config=config)
        sim.run_until(sim.now + 3600)
        assert session.done and not session.succeeded
        kinds = event_kinds()
        assert "sync.timeout" in kinds and "sync.failed" in kinds
        ahead.alive = True

    def test_sync_events_tell_the_story(self, obs_on):
        sim, (behind, ahead) = make_nodes(2, connect=False)
        mine_to(ahead, 4, miner_id=2)
        behind.connect(ahead)
        start_sync(behind, ahead, reason="test")
        sim.run_until(sim.now + 3600)
        kinds = event_kinds()
        assert kinds.count("sync.started") == 1
        assert kinds.count("sync.completed") == 1
        assert "sync.headers" in kinds and "sync.request" in kinds
        assert obs.registry().counter("sync.blocks_fetched_total").value == 4


class TestPartitionHeal:
    def test_reorg_across_heal_converges_without_utxo_divergence(self):
        """Satellite (d): two isolated miner groups diverge, heal, and every
        node converges on the most-work tip with identical UTXO sets."""
        sim, nodes = make_nodes(6, seed=21)
        group_a, group_b = nodes[:3], nodes[3:]
        # Asymmetric hashrate so one branch clearly out-works the other.
        miner_a = PoissonMiner(group_a[0], TOTAL_RATE * 0.6, miner_id=1)
        miner_b = PoissonMiner(group_b[0], TOTAL_RATE * 0.4, miner_id=2)
        miner_a.start()
        miner_b.start()

        partition = Partition(sim, group_a, group_b)
        severed = partition.begin()
        assert severed > 0
        sim.run_until(8 * 3600)

        tips_before_heal = {n.chain.tip.block.hash for n in nodes}
        assert len(tips_before_heal) == 2  # genuinely divergent histories
        loser_tip = min(
            (n.chain.tip for n in (group_a[0], group_b[0])),
            key=lambda entry: entry.chain_work,
        )

        healed = partition.heal()
        assert healed == severed
        sim.run_while(lambda: not converged(nodes), limit=sim.now + 8 * 3600)

        assert converged(nodes)
        tip = nodes[0].chain.tip
        assert tip.chain_work >= loser_tip.chain_work  # most-work rule won
        assert utxo_sets_match(nodes)
        # The lighter branch was reorged away everywhere.
        assert tip.block.hash != loser_tip.block.hash

    def test_mempools_revalidated_after_heal(self):
        sim, nodes = make_nodes(4, seed=22)
        partition = Partition(sim, nodes[:2], nodes[2:])
        partition.begin()
        miner = PoissonMiner(nodes[0], TOTAL_RATE, miner_id=1)
        miner.start()
        sim.run_until(4 * 3600)
        partition.heal()
        sim.run_while(lambda: not converged(nodes), limit=sim.now + 4 * 3600)
        assert converged(nodes)
        # Nothing pending contradicts the converged chain state.
        for node in nodes:
            assert not node.mempool.revalidate()

    def test_begin_and_heal_are_idempotent(self):
        sim, nodes = make_nodes(4, seed=23)
        partition = Partition(sim, nodes[:2], nodes[2:])
        assert partition.begin() > 0
        assert partition.begin() == 0
        assert partition.heal() > 0
        assert partition.heal() == 0

    def test_schedule_validates_ordering(self):
        sim, nodes = make_nodes(4)
        partition = Partition(sim, nodes[:2], nodes[2:])
        with pytest.raises(ValueError):
            partition.schedule(at=100.0, heal_at=100.0)

    def test_partition_events(self, obs_on):
        sim, nodes = make_nodes(4, seed=24)
        partition = Partition(sim, nodes[:2], nodes[2:])
        partition.begin()
        partition.heal()
        kinds = event_kinds()
        assert "fault.partition" in kinds and "fault.heal" in kinds


class TestByzantinePeer:
    def test_unknown_behavior_rejected(self):
        _, (node,) = make_nodes(1, connect=False)
        with pytest.raises(ValueError):
            ByzantinePeer(node, behaviors=("invalid_block", "griefing"))
        with pytest.raises(ValueError):
            ByzantinePeer(node, behaviors=())

    def test_invalid_block_attacker_gets_banned(self):
        sim, nodes = make_nodes(4, seed=31)
        byz = ByzantinePeer(
            nodes[-1], behaviors=("invalid_block",), interval=600.0
        )
        byz.start()
        miner = PoissonMiner(nodes[0], TOTAL_RATE, miner_id=1)
        miner.start()
        sim.run_until(12 * 3600)
        banned = byz.banned_by(nodes[:-1])
        # Every direct honest peer of the adversary bans it (two invalid
        # blocks cross the threshold); non-neighbors never hear from it.
        direct = [n.name for n in nodes[:-1] if byz.node.name in
                  {p.name for p in n.peers} or n.is_banned(byz.node)]
        assert banned  # someone banned it
        assert all(name in banned for name in direct)
        # Once every neighbor bans it the node has no peers and the
        # attack loop idles — exactly two invalid blocks sufficed.
        assert byz.attacks_sent["invalid_block"] >= 2

    def test_orphan_spam_is_bounded(self):
        sim, nodes = make_nodes(4, seed=32)
        for node in nodes:
            node.orphan_limit = 8
        byz = ByzantinePeer(
            nodes[-1], behaviors=("orphan_spam",), interval=600.0
        )
        byz.start()
        sim.run_until(24 * 3600)
        assert byz.attacks_sent["orphan_spam"] > 10
        for node in nodes[:-1]:
            assert len(node.relay._orphans) <= 8

    def test_stale_fork_does_not_reorg_or_penalize(self):
        sim, nodes = make_nodes(4, seed=33)
        miner = PoissonMiner(nodes[0], TOTAL_RATE, miner_id=1)
        miner.start()
        sim.run_while(lambda: nodes[0].chain.height < 10, limit=1e12)
        byz = ByzantinePeer(
            nodes[-1], behaviors=("stale_fork",), interval=600.0
        )
        byz.start()
        sim.run_until(sim.now + 6 * 3600)
        assert byz.attacks_sent["stale_fork"] > 0
        for node in nodes[:-1]:
            assert node.misbehavior_score(byz.node) == 0
            assert not node.is_banned(byz.node)


class TestChaosScenarios:
    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_profile_converges_with_consistent_state(self, name):
        result = run_chaos(PROFILES[name], seed=7)
        assert result.converged, f"{name} failed to converge: {result}"
        assert result.utxo_consistent
        assert result.height > 0

    def test_acceptance_scenario_is_deterministic(self):
        first = run_chaos(PROFILES["inferno"], seed=7)
        second = run_chaos(PROFILES["inferno"], seed=7)
        assert first.tip == second.tip
        assert first.events_processed == second.events_processed
        assert first.height == second.height

    def test_different_seeds_differ(self):
        assert run_chaos(PROFILES["lossy"], seed=1).tip != run_chaos(
            PROFILES["lossy"], seed=2
        ).tip

    def test_byzantine_profile_bans_the_adversary(self):
        result = run_chaos(PROFILES["byzantine"], seed=7)
        assert result.byzantine_banned_by  # neighbors cut it off
        # The attacker's schedule is a function of the seed too.
        again = run_chaos(PROFILES["byzantine"], seed=7)
        assert (again.tip, again.events_processed) == (
            result.tip,
            result.events_processed,
        )

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            run_chaos(ChaosProfile(name="bad", partition_at=100.0))
        with pytest.raises(ValueError):
            run_chaos(ChaosProfile(name="bad", crash_at=100.0))
