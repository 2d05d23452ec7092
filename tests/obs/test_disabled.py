"""The zero-cost-when-disabled contract.

The whole validation pipeline runs with observability off and the default
registry replaced by a stub that raises on *any* traffic — proving the
instrumented call sites allocate and record nothing unless enabled.
"""

import pytest

from repro import obs
from repro.bitcoin.network import PoissonMiner, Simulation, build_network
from repro.bitcoin.pow import (
    BLOCK_INTERVAL_TARGET,
    RETARGET_WINDOW,
    block_work,
    next_target,
    target_to_bits,
)
from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import OutPoint, TxOut
from repro.bitcoin.wallet import Wallet
from repro.core.builder import simple_transfer
from repro.core.transaction import TypecoinOutput
from repro.core.validate import Ledger
from repro.core.verifier import verify_claim
from repro.core.wallet import TypecoinClient
from repro.logic.propositions import One

pytestmark = pytest.mark.obs


class PoisonedRegistry(obs.Registry):
    """Raises on any series access or record."""

    def _poisoned(self, *args, **kwargs):
        raise AssertionError(
            "registry touched while observability is disabled"
        )

    counter = gauge = _poisoned
    inc = gauge_set = gauge_max = _poisoned


class PoisonedEventLog(obs.EventLog):
    def emit(self, kind, **fields):
        raise AssertionError(
            "event log touched while observability is disabled"
        )


@pytest.fixture
def poisoned():
    obs.disable()
    obs.set_registry(PoisonedRegistry())
    obs.set_event_log(PoisonedEventLog())


def test_bitcoin_pipeline_disabled_records_nothing(poisoned):
    """Script execution, validation, chain connect, mempool, miner."""
    net = RegtestNetwork()
    wallet = Wallet.from_seed(b"obs-disabled")
    net.fund_wallet(wallet, blocks=2)
    tx = wallet.create_transaction(
        net.chain, [TxOut(600, p2pkh_script(wallet.key_hash))], fee=10_000
    )
    net.send(tx)
    net.confirm(1)
    assert net.chain.confirmations(tx.txid) == 1


def test_typecoin_pipeline_disabled_records_nothing(poisoned):
    """Proof check, LF typecheck, basis lookups, ledger apply, verifier."""
    net = RegtestNetwork()
    client = TypecoinClient(net, b"obs-disabled-tc", Ledger())
    net.fund_wallet(client.wallet, blocks=2)
    txn = simple_transfer([], [TypecoinOutput(One(), 600, client.pubkey)])
    carrier = client.submit(txn)
    net.confirm(1)
    client.sync()
    bundle = client.claim_bundle(OutPoint(carrier.txid, 0), One())
    verify_claim(net.chain, bundle)


def test_network_simulation_disabled_records_nothing(poisoned):
    """Event loop, relay, propagation, orphan handling."""
    sim = Simulation(seed=3)
    nodes = build_network(sim, 3)
    rate = block_work(target_to_bits(2**252)) / 600.0
    miner = PoissonMiner(nodes[0], rate, miner_id=1)
    miner.start()
    assert sim.run_until(3600) in ("drained", "time_limit")
    assert nodes[0].chain.height > 0


def test_retarget_and_budget_exhaustion_disabled_record_nothing(poisoned):
    """The retarget and budget-exhaustion call sites stay silent too."""
    from repro.bitcoin.script import Script, execute_script

    next_target(2**240, 0, (RETARGET_WINDOW - 1) * BLOCK_INTERVAL_TARGET // 2)
    # 1001 pushes blow the stack cap -> ScriptResourceError path.
    never = lambda _sig, _pubkey: False
    assert execute_script(Script([b"\x01"] * 1001), Script(), never) is False


def test_disabled_default_registry_stays_empty():
    obs.disable()
    net = RegtestNetwork()
    wallet = Wallet.from_seed(b"obs-empty")
    net.fund_wallet(wallet, blocks=1)
    snap = obs.snapshot()
    assert snap["counters"] == {}
    assert snap["gauges"] == {}
    assert snap["events"] == []


def test_enable_disable_roundtrip():
    obs.disable()
    assert not obs.ENABLED
    obs.enable()
    assert obs.ENABLED
    assert "script.ops_total" in obs.snapshot()["counters"]
    obs.disable()
    assert not obs.ENABLED


def test_a1_rows_bit_identical_with_obs_disabled(poisoned):
    """The disabled path is pinned to the recorded rows: with obs off
    and every sink poisoned, the A1 experiment reproduces ``A1_ROWS``
    (the anchor moves only when a deliberate protocol change re-anchors
    the literals, e.g. PR 10's relay echo-to-origin fix)."""
    from tests.bitcoin.test_network import A1_ROWS, a1_bench

    bench = a1_bench()
    for row in A1_ROWS:
        fresh = bench.run_with_latency(row["latency"])
        assert fresh["found"] == row["found"]
        assert fresh["height"] == row["height"]
        assert fresh["orphan_rate"] == pytest.approx(row["orphan_rate"])
