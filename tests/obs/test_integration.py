"""End-to-end instrumentation: the pipeline populates the catalogue.

One Typecoin transaction travels build → mempool → block → ledger apply →
claim verification with observability on, and every layer's series fills.
"""

import os

import pytest

from repro import obs
from repro.bitcoin import sigcache
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
from repro.obs.report import render_report, render_trace
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
        hists = snap["histograms"]
        assert hists["validation.rule_seconds"]["count"] > 0
        assert hists['validation.rule_seconds{rule="scripts"}']["count"] > 0
        assert hists["proof.check_seconds"]["count"] >= 1
        assert hists["ledger.apply_seconds"]["count"] >= 1
        assert hists["chain.connect_seconds"]["count"] > 0
        assert snap["gauges"]["utxo.set_size"] > 0
        assert snap["gauges"]["script.stack_depth_hwm"] >= 2

    def test_spans_nest_proof_check_under_verify_claim(self):
        run_typecoin_flow()
        spans = {span.name: span for span in obs.spans()}
        assert "chain.connect_block" in spans
        verify_span = spans["verify.claim"]
        proof_spans = [s for s in obs.spans() if s.name == "proof.check"]
        assert proof_spans
        # At least one proof check ran inside the claim verification.
        nested = [s for s in proof_spans if s.parent == verify_span.span_id]
        assert nested
        assert all(s.depth == verify_span.depth + 1 for s in nested)

    def test_report_renders(self):
        run_typecoin_flow()
        report = render_report()
        assert "script.ops_total" in report
        assert "validation.rule_seconds" in report
        trace = render_trace()
        assert "verify.claim" in trace


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
        depth = obs.registry().histogram("chain.reorg_depth", obs.COUNT_BUCKETS)
        assert depth.count >= 1
        assert obs.registry().counter("chain.blocks_disconnected_total").value >= 1


class TestNetworkMetrics:
    def test_propagation_latency_and_events(self):
        sim = Simulation(seed=7)
        nodes = build_network(sim, 4)
        rate = block_work(target_to_bits(2**252)) / 600.0
        miner = PoissonMiner(nodes[0], rate, miner_id=1)
        miner.start()
        reason = sim.run_until(7200)
        assert reason in (STOP_DRAINED, STOP_TIME_LIMIT)
        snap = obs.snapshot()
        assert snap["counters"]["net.events_total"] > 0
        assert snap["counters"]["net.events_total"] == sim.events_processed
        assert snap["counters"]["net.blocks_relayed_total"] > 0
        propagation = snap["histograms"]["net.block_propagation_seconds"]
        assert propagation["count"] > 0
        # Remote nodes see blocks strictly later than they were mined.
        assert propagation["sum"] > 0
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

    def test_without_the_cache_every_door_runs_every_script(
        self, fresh_default_cache
    ):
        sigcache.set_default_cache(None)  # the fixture restores the old one
        counters = self._lifecycle()
        admissions = counters["mempool.accepted_total"]
        connects = counters["chain.blocks_connected_total"]
        assert (admissions, connects) == (self.NODES, self.NODES)
        assert counters["script.executions_total"] == 2 * (admissions + connects)
        assert counters["sigcache.tx_hits_total"] == 0


class TestColdBlockPool:
    """Where a cold block's scripts run shows as a count: one block of 32
    cold P2PKH spends runs them in the worker pool and none in this
    process — or all here, with one processor."""

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

    def test_the_workers_run_every_cold_script(
        self, history, fresh_default_cache, monkeypatch
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert self._connect(history) == (0, self.COLD)

    def test_one_processor_runs_them_here(
        self, history, fresh_default_cache, monkeypatch
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert self._connect(history) == (self.COLD, 0)
