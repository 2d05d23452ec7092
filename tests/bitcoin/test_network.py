"""Tests for the discrete-event network simulator and race models."""

import importlib.util
import random
from pathlib import Path

import pytest

from repro.bitcoin.chain import ChainParams
from repro.bitcoin.network import (
    STOP_DRAINED,
    STOP_PREDICATE,
    STOP_TIME_LIMIT,
    Node,
    PoissonMiner,
    Simulation,
    build_network,
)
from repro.bitcoin.pow import block_work, target_to_bits
from repro.bitcoin.race import (
    nakamoto_reversal_probability,
    reversal_probability_exact,
    simulate_race,
    simulate_race_full,
)


def total_rate_for_interval(interval=600.0):
    return block_work(target_to_bits(2**252)) / interval


class TestSimulation:
    def test_events_fire_in_order(self):
        sim = Simulation()
        fired = []
        sim.schedule(5, lambda: fired.append("b"))
        sim.schedule(1, lambda: fired.append("a"))
        sim.schedule(10, lambda: fired.append("c"))
        sim.run_until(7)
        assert fired == ["a", "b"]
        assert sim.now == 7

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulation().schedule(-1, lambda: None)

    def test_seeded_determinism(self):
        def run(seed):
            sim = Simulation(seed=seed)
            nodes = build_network(sim, 3)
            miner = PoissonMiner(nodes[0], total_rate_for_interval(), miner_id=1)
            miner.start()
            sim.run_until(3600)
            return nodes[0].chain.tip.block.hash

        assert run(7) == run(7)
        assert run(7) != run(8)


class TestGossip:
    def test_blocks_propagate_to_all_nodes(self):
        sim = Simulation(seed=1)
        nodes = build_network(sim, 5)
        miner = PoissonMiner(nodes[0], total_rate_for_interval(), miner_id=1)
        miner.start()
        sim.run_until(3600 * 4)
        heights = {node.chain.height for node in nodes}
        assert len(heights) == 1
        assert heights.pop() > 0
        tips = {node.chain.tip.block.hash for node in nodes}
        assert len(tips) == 1

    def test_competing_miners_converge(self):
        sim = Simulation(seed=2)
        nodes = build_network(sim, 4)
        rate = total_rate_for_interval()
        miners = [
            PoissonMiner(nodes[i], rate / 4, miner_id=i) for i in range(4)
        ]
        for miner in miners:
            miner.start()
        sim.run_until(3600 * 8)
        tips = {node.chain.tip.block.hash for node in nodes}
        assert len(tips) == 1
        assert sum(m.blocks_found for m in miners) >= nodes[0].chain.height

    def test_block_interval_tracks_hashrate(self):
        sim = Simulation(seed=3)
        nodes = build_network(sim, 2)
        miner = PoissonMiner(nodes[0], total_rate_for_interval(600), miner_id=1)
        miner.start()
        sim.run_until(600 * 400)
        height = nodes[0].chain.height
        mean_interval = sim.now / height
        assert 450 < mean_interval < 800  # ~600 expected


class TestRace:
    def test_analytic_decreases_exponentially(self):
        probs = [nakamoto_reversal_probability(0.1, z) for z in range(8)]
        assert probs[0] == 1.0
        for earlier, later in zip(probs[1:], probs[2:]):
            assert later < earlier
        # Six confirmations against a 10% attacker: well under a percent.
        assert probs[6] < 0.001

    def test_exact_matches_nakamoto_shape(self):
        for q in (0.05, 0.15, 0.25):
            for z in (1, 3, 5):
                exact = reversal_probability_exact(q, z)
                nak = nakamoto_reversal_probability(q, z)
                assert exact == pytest.approx(nak, rel=0.75, abs=0.02)

    def test_zero_attacker_never_wins(self):
        assert nakamoto_reversal_probability(0.0, 3) == 0.0
        assert reversal_probability_exact(0.0, 3) == 0.0
        assert simulate_race(0.0, 3, 10, random.Random(0)) == 0.0

    def test_zero_depth_always_reversible(self):
        assert nakamoto_reversal_probability(0.2, 0) == 1.0
        assert reversal_probability_exact(0.2, 0) == 1.0

    def test_majority_attacker_rejected(self):
        with pytest.raises(ValueError):
            nakamoto_reversal_probability(0.6, 3)
        with pytest.raises(ValueError):
            reversal_probability_exact(0.5, 3)

    def test_monte_carlo_matches_exact(self):
        rng = random.Random(42)
        estimate = simulate_race(0.2, 2, trials=3000, rng=rng)
        exact = reversal_probability_exact(0.2, 2)
        assert estimate == pytest.approx(exact, abs=0.03)

    def test_full_simulation_race_runs(self):
        outcome = simulate_race_full(0.3, 2, sim_seed=11, horizon_blocks=60)
        assert outcome.honest_blocks > 0
        assert outcome.duration > 0

    def test_full_simulation_weak_attacker_loses(self):
        # 5% attacker against 6 confirmations: overwhelmingly loses.
        losses = sum(
            not simulate_race_full(0.05, 6, sim_seed=s, horizon_blocks=30).attacker_won
            for s in range(5)
        )
        assert losses == 5


class TestStopReasons:
    """run_until / run_while report how they stopped (satellite 2)."""

    def test_run_until_drained(self):
        sim = Simulation()
        sim.schedule(1, lambda: None)
        assert sim.run_until(10) == STOP_DRAINED
        assert sim.now == 10

    def test_run_until_time_limit(self):
        sim = Simulation()
        sim.schedule(1, lambda: None)
        sim.schedule(50, lambda: None)
        assert sim.run_until(10) == STOP_TIME_LIMIT

    def test_run_until_empty_queue_is_drained(self):
        assert Simulation().run_until(5) == STOP_DRAINED

    def test_run_while_predicate_releases(self):
        sim = Simulation()
        fired = []
        for t in range(1, 6):
            sim.schedule(t, lambda t=t: fired.append(t))
        reason = sim.run_while(lambda: len(fired) < 2, limit=100)
        assert reason == STOP_PREDICATE
        assert fired == [1, 2]

    def test_run_while_drained(self):
        sim = Simulation()
        sim.schedule(1, lambda: None)
        assert sim.run_while(lambda: True, limit=100) == STOP_DRAINED

    def test_run_while_time_limit(self):
        sim = Simulation()
        sim.schedule(1, lambda: None)
        sim.schedule(500, lambda: None)
        assert sim.run_while(lambda: True, limit=100) == STOP_TIME_LIMIT

    def test_events_processed_counts(self):
        sim = Simulation()
        for t in range(3):
            sim.schedule(t, lambda: None)
        sim.run_until(10)
        assert sim.events_processed == 3


@pytest.fixture
def obs_on():
    """Observability enabled against private state, restored afterwards."""
    from repro import obs

    was_enabled = obs.ENABLED
    saved_registry = obs.set_registry(obs.Registry())
    saved_events = obs.set_event_log(obs.EventLog())
    obs.enable()
    yield obs
    obs.set_registry(saved_registry)
    obs.set_event_log(saved_events)
    obs.ENABLED = was_enabled


class TestSeenEviction:
    """PR 10 regression: the per-node seen set is bounded, so a held
    transaction's entry can be evicted by unrelated traffic.  A late
    duplicate arriving after eviction used to be re-validated (a spurious
    mempool rejection) and could be re-relayed; now the mempool and chain
    are consulted first and the copy is suppressed outright."""

    def _junk_tx(self, i):
        from repro.bitcoin.standard import p2pkh_script
        from repro.bitcoin.transaction import (
            OutPoint,
            Transaction,
            TxIn,
            TxOut,
        )

        return Transaction(
            vin=[TxIn(OutPoint(bytes([i]) * 32, 0))],
            vout=[TxOut(1_000, p2pkh_script(b"\x22" * 20))],
        )

    def _funded_pair(self, obs_on, seed=3):
        from repro.bitcoin.population import fund_wallets
        from repro.bitcoin.wallet import Wallet

        sim = Simulation(seed=seed)
        a, b = build_network(sim, 2)
        wallet = Wallet.from_seed(b"seen-eviction")
        for block in fund_wallets([wallet.key_hash]):
            assert a.chain.add_block(block)
            assert b.chain.add_block(block)
        return sim, a, b, wallet

    @staticmethod
    def _cap_seen(node, limit):
        """Bound ``node``'s seen sets (only its own) at ``limit``, keeping
        their most recent entries."""
        from repro.lru import LRU

        for name in ("_seen_blocks", "_seen_txs"):
            capped = LRU(limit)
            for key, value in getattr(node.relay, name)._entries.items():
                capped.put(key, value)
            setattr(node.relay, name, capped)

    def test_held_duplicate_suppressed_after_eviction(self, obs_on):
        from repro.bitcoin.standard import p2pkh_script
        from repro.bitcoin.transaction import TxOut

        sim, a, b, wallet = self._funded_pair(obs_on)
        self._cap_seen(a, 4)
        tx = wallet.create_transaction(
            a.chain,
            [TxOut(30_000, p2pkh_script(wallet.key_hash))],
            fee=10_000,
        )
        assert a.submit_transaction(tx)
        sim.run_until(120.0)
        assert tx.txid in a.mempool and tx.txid in b.mempool

        # Unrelated junk floods the bounded seen set past its cap; the
        # held transaction's entry is evicted while the tx stays pooled.
        for i in range(1, 6):
            assert not a.submit_transaction(self._junk_tx(i))
        assert tx.txid not in a.relay._seen_txs
        assert tx.txid in a.mempool

        registry = obs_on.registry()
        rejected_before = registry.counter("mempool.rejected_total").value
        bytes_before = dict(a.bytes_sent)

        # The late duplicate comes back from the peer: it must be
        # suppressed against the mempool — not re-validated (which
        # counted a spurious rejection pre-fix) and not re-relayed.
        assert not a.submit_transaction(tx, origin=b, hop=1)
        assert (
            registry.counter("net.duplicates_suppressed_total").value == 1
        )
        assert (
            registry.counter("mempool.rejected_total").value
            == rejected_before
        )
        assert a.bytes_sent == bytes_before
        assert a._misbehavior.get(b.name, 0) == 0

    def test_confirmed_duplicate_suppressed_after_eviction(self, obs_on):
        from repro.bitcoin.miner import Miner
        from repro.bitcoin.standard import p2pkh_script
        from repro.bitcoin.transaction import TxOut

        sim, a, b, wallet = self._funded_pair(obs_on, seed=4)
        self._cap_seen(a, 4)
        tx = wallet.create_transaction(
            a.chain,
            [TxOut(30_000, p2pkh_script(wallet.key_hash))],
            fee=10_000,
        )
        assert a.submit_transaction(tx)
        sim.run_until(120.0)

        # Confirm the transaction everywhere, then evict its seen entry.
        miner = Miner(a.chain, wallet.key_hash)
        block = miner.assemble(
            a.mempool, timestamp=a.chain.median_time_past() + 1
        )
        a.submit_block(block)
        assert a.chain.get_transaction(tx.txid) is not None
        sim.run_until(240.0)
        assert b.chain.get_transaction(tx.txid) is not None
        for i in range(1, 6):
            a.submit_transaction(self._junk_tx(i))
        assert tx.txid not in a.relay._seen_txs

        registry = obs_on.registry()
        rejected_before = registry.counter("mempool.rejected_total").value
        assert not a.submit_transaction(tx, origin=b, hop=1)
        assert (
            registry.counter("net.duplicates_suppressed_total").value == 1
        )
        assert (
            registry.counter("mempool.rejected_total").value
            == rejected_before
        )
        assert a._misbehavior.get(b.name, 0) == 0


# benchmarks/bench_a1_fork_rate.py's rows, as last recorded (PR 21: an
# orphan from a live sender always starts a catch-up sync with it, whose
# messages draw hop delays from the seeded stream).  A deliberate protocol
# change re-anchors these literals in the same PR; anything else that
# moves them is drift.
A1_ROWS = [
    {"latency": 2.0, "found": 353, "height": 352,
     "orphan_rate": 0.0028328611898017},
    {"latency": 20.0, "found": 377, "height": 369,
     "orphan_rate": 0.021220159151193633},
    {"latency": 180.0, "found": 362, "height": 308,
     "orphan_rate": 0.14917127071823205},
]


def a1_bench():
    root = Path(__file__).resolve().parents[2]
    spec = importlib.util.spec_from_file_location(
        "bench_a1_fork_rate", root / "benchmarks" / "bench_a1_fork_rate.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


class TestSeededTrajectory:
    """Nothing that is not a deliberate protocol change — the chaos
    machinery with no faults configured included — may perturb a single
    simulated event: the A1 ablation reproduces ``A1_ROWS`` bit for
    bit."""

    def test_a1_rows_match_recorded_baseline(self):
        bench = a1_bench()
        for row in A1_ROWS:
            assert bench.run_with_latency(row["latency"]) == row

    def test_no_catch_up_fails_on_a_loss_free_slow_network(self, obs_on):
        """A1's 180 s-a-hop row: every orphan starts a catch-up with its
        sender, and because the sync timeout is counted in hops none of
        them times out on a link that merely is slow."""
        a1_bench().run_with_latency(180.0)
        counter = obs_on.registry().counter
        assert counter("sync.sessions_total").value > 0
        assert counter("sync.failures_total").value == 0
