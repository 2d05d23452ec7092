"""End-to-end instrumentation: the pipeline populates the catalogue.

One Typecoin transaction travels build → mempool → block → ledger apply →
claim verification with observability on, and every layer's series fills.
"""

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
from repro.bitcoin.transaction import OutPoint
from repro.bitcoin.wallet import Wallet
from repro.core.builder import simple_transfer
from repro.core.transaction import TypecoinOutput
from repro.core.validate import Ledger
from repro.core.verifier import verify_claim
from repro.core.wallet import TypecoinClient
from repro.logic.propositions import One
from repro.obs.report import render_report, render_trace

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
