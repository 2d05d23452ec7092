"""End-to-end instrumentation: the pipeline populates the catalogue.

One Typecoin transaction travels build → mempool → block → ledger apply →
claim verification with observability on, and every layer's series fills.
"""

import os

import pytest

from repro import obs
from repro.bitcoin.chain import Blockchain, ChainParams
from repro.bitcoin.miner import Miner
from repro.bitcoin.network import (
    STOP_DRAINED,
    STOP_TIME_LIMIT,
    PoissonMiner,
    Simulation,
    build_network,
)
from repro.bitcoin.pow import block_work, target_to_bits
from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import OutPoint, TxOut
from repro.bitcoin.utxo import COINBASE_MATURITY
from repro.bitcoin.wallet import Wallet
from repro.core.builder import simple_transfer
from repro.core.transaction import TypecoinOutput
from repro.core.validate import Ledger
from repro.core.verifier import verify_claim
from repro.core.wallet import TypecoinClient
from repro.logic.propositions import One
from repro.obs.report import render_report
from tests.bitcoin.test_block_pool import wide_history

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def enabled():
    obs.enable()


def run_typecoin_flow():
    net = RegtestNetwork()
    client = TypecoinClient(net, b"obs-integration", Ledger())
    net.fund_wallet(client.wallet, blocks=2)
    txn = simple_transfer([], [TypecoinOutput(One(), 600, client.pubkey)])
    carrier = client.submit(txn)
    net.confirm(1)
    client.sync()
    bundle = client.claim_bundle(OutPoint(carrier.txid, 0), One())
    verify_claim(net.chain, bundle)
    return net


class TestFullPipeline:
    def test_series_populate_end_to_end(self):
        run_typecoin_flow()
        snap = obs.snapshot()
        counters = snap["counters"]
        assert counters["script.ops_total"] > 0
        assert counters["script.pushes_total"] > 0
        assert counters["script.executions_total"] > 0
        assert counters["mempool.accepted_total"] >= 1
        assert counters["chain.blocks_connected_total"] > 0
        assert counters["lf.typecheck_total"] > 0
        # A bare One() proof checks structurally without consulting the
        # basis, so the lookup counter is merely present, not nonzero.
        assert "lf.basis_lookups_total" in counters
        assert counters["proof.nodes_total"] > 0
        assert counters["verify.claims_total"] == 1
        assert counters["chain.reorg_total"] == 0
        assert counters["validation.tx_total"] > 0
        proofs = [e for e in snap["events"] if e["kind"] == "proof.checked"]
        assert proofs and {e["data"]["outcome"] for e in proofs} == {"ok"}
        assert snap["gauges"]["utxo.set_size"] > 0
        assert snap["gauges"]["script.stack_depth_hwm"] >= 2

    def test_report_renders(self):
        run_typecoin_flow()
        report = render_report()
        assert "script.ops_total" in report
        assert "utxo.set_size" in report
        assert "events recorded" in report


class TestReorgMetrics:
    def test_reorg_counted_with_depth(self):
        params = ChainParams(
            max_target=2**252, retarget_window=2**31, require_pow=False
        )
        main = Blockchain(params)
        rival = Blockchain(params)  # same deterministic genesis
        key = Wallet.from_seed(b"obs-reorg").key_hash
        Miner(main, key).mine_block(extra_nonce=1)
        rival_blocks = [
            Miner(rival, key).mine_block(extra_nonce=nonce)
            for nonce in (2, 3)
        ]
        before = obs.registry().counter("chain.reorg_total").value
        for block in rival_blocks:
            main.add_block(block)
        assert main.height == 2
        assert obs.registry().counter("chain.reorg_total").value == before + 1
        reorgs = [e for e in obs.events().snapshot() if e["kind"] == "chain.reorg"]
        assert [e["data"]["depth"] for e in reorgs] == [1]
        assert obs.registry().counter("chain.blocks_disconnected_total").value >= 1


def run_swarm(node_count):
    """A seeded two-hour run; returns the simulation and its nodes."""
    sim = Simulation(seed=7)
    nodes = build_network(sim, node_count)
    rate = block_work(target_to_bits(2**252)) / 600.0
    miner = PoissonMiner(nodes[0], rate, miner_id=1)
    miner.start()
    reason = sim.run_until(7200)
    assert reason in (STOP_DRAINED, STOP_TIME_LIMIT)
    return sim, nodes


class TestNetworkMetrics:
    def test_propagation_latency_and_events(self):
        sim, nodes = run_swarm(4)
        snap = obs.snapshot()
        assert snap["counters"]["net.events_total"] > 0
        assert snap["counters"]["net.events_total"] == sim.events_processed
        assert snap["counters"]["net.blocks_relayed_total"] > 0
        # Remote nodes see blocks strictly later than they were mined: a
        # non-origin node's first relay.hop of a block's trace is later
        # than the trace's hop-0 (miner submission) time.
        assert snap["events_dropped"] == 0
        mined: dict[str, tuple[str, float]] = {}
        first_seen: dict[tuple[str, str], float] = {}
        for event in snap["events"]:
            data = event["data"]
            if event["kind"] != "relay.hop" or not data["trace"].startswith("blk"):
                continue
            if data["hop"] == 0:
                mined[data["trace"]] = (data["to"], data["sim_time"])
            else:
                first_seen.setdefault((data["trace"], data["to"]), data["sim_time"])
        assert mined
        remote = [
            (trace, node, arrival)
            for (trace, node), arrival in first_seen.items()
            if node != mined[trace][0]
        ]
        assert remote
        assert all(arrival > mined[trace][1] for trace, _node, arrival in remote)
        assert all(node.chain.height > 0 for node in nodes)


class TestScriptVerdictMemo:
    """A lost txid memo shows as a count, not on a clock: one two-input
    transaction gossiped, mined and connected across three nodes of one
    process runs each of its scripts once."""

    NODES = 3

    def _lifecycle(self):
        """Counters of the gossip → mine → connect of one two-input spend."""
        sim = Simulation(seed=24)
        nodes = build_network(sim, self.NODES)
        alice = Wallet.from_seed(b"obs-verdict-alice")
        funding = Miner(nodes[0].chain, alice.key_hash)
        for nonce in range(COINBASE_MATURITY + 2):
            block = funding.mine_block(extra_nonce=nonce)
            for node in nodes[1:]:
                node.chain.add_block(block)
        subsidy = nodes[0].chain.tip.block.txs[0].vout[0].value
        tx = alice.create_transaction(
            nodes[0].chain,
            [TxOut(subsidy + 5000, p2pkh_script(alice.key_hash))],
            fee=2000,
        )
        assert len(tx.vin) == 2
        obs.reset()
        assert nodes[0].submit_transaction(tx)
        sim.run_until(sim.now + 60.0)
        assert all(tx.txid in node.mempool for node in nodes)
        block = funding.grind(funding.assemble(nodes[0].mempool))
        nodes[0].submit_block(block)
        sim.run_until(sim.now + 60.0)
        assert all(node.chain.get_transaction(tx.txid) for node in nodes)
        return obs.snapshot()["counters"]

    def test_each_script_runs_once_per_process(self, fresh_default_cache):
        counters = self._lifecycle()
        assert counters["mempool.accepted_total"] == self.NODES
        assert counters["script.executions_total"] == 2
        # Every later admission and every connect found the txid.
        assert counters["sigcache.tx_hits_total"] == 2 * self.NODES - 1
        assert counters["validation.tx_total"] == 2 * self.NODES


class TestColdBlockPool:
    """Where a cold block's scripts run shows as a count: one block of 32
    cold P2PKH spends runs the head in this process and the tail in the
    worker pool, one share each on two processors — or all here, with
    one processor."""

    COLD = 32

    @pytest.fixture(scope="class")
    def history(self):
        return wide_history(self.COLD, 1)

    def _connect(self, history) -> tuple[int, int]:
        prefix, [wide] = history
        chain = Blockchain(ChainParams.regtest())
        for block in prefix:
            assert chain.add_block(block)
        obs.reset()
        assert chain.add_block(wide)
        counters = obs.snapshot()["counters"]
        return (
            counters["script.executions_total"],
            counters["validation.pool_inputs_total"],
        )

    def test_the_workers_run_the_tail_and_this_process_the_head(
        self, history, fresh_default_cache, monkeypatch
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert self._connect(history) == (self.COLD // 2, self.COLD // 2)

    def test_one_processor_runs_them_here(
        self, history, fresh_default_cache, monkeypatch
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert self._connect(history) == (self.COLD, 0)
