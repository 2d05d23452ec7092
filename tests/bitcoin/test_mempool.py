"""Tests for mempool relay policy."""

import pytest

from repro.bitcoin.mempool import MempoolError
from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.script import Op, Script
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import COIN, Transaction, TxIn, TxOut
from repro.bitcoin.wallet import Wallet


@pytest.fixture
def funded():
    net = RegtestNetwork()
    alice = Wallet.from_seed(b"mp-alice")
    bob = Wallet.from_seed(b"mp-bob")
    net.fund_wallet(alice)
    return net, alice, bob


def test_accept_and_mine(funded):
    net, alice, bob = funded
    tx = alice.create_transaction(
        net.chain, [TxOut(COIN, p2pkh_script(bob.key_hash))], fee=1000
    )
    net.send(tx)
    assert tx.txid in net.mempool
    net.confirm()
    assert tx.txid not in net.mempool
    assert net.confirmations(tx.txid) == 1


def test_duplicate_rejected(funded):
    net, alice, bob = funded
    tx = alice.create_transaction(
        net.chain, [TxOut(COIN, p2pkh_script(bob.key_hash))], fee=1000
    )
    net.send(tx)
    with pytest.raises(MempoolError, match="already in mempool"):
        net.send(tx)


def test_confirmed_rejected(funded):
    net, alice, bob = funded
    tx = alice.create_transaction(
        net.chain, [TxOut(COIN, p2pkh_script(bob.key_hash))], fee=1000
    )
    net.send(tx)
    net.confirm()
    with pytest.raises(MempoolError, match="already confirmed"):
        net.send(tx)


def test_double_spend_rejected(funded):
    net, alice, bob = funded
    tx1 = alice.create_transaction(
        net.chain, [TxOut(COIN, p2pkh_script(bob.key_hash))], fee=1000
    )
    # Same inputs, different output: conflicts with tx1.
    tx2 = Transaction(
        tx1.vin, [TxOut(COIN, p2pkh_script(b"\x09" * 20))]
    )
    net.send(tx1)
    with pytest.raises(MempoolError, match="double-spend"):
        net.mempool.accept(tx2)


def test_nonstandard_output_refused_by_relay(funded):
    """§3.3: non-standard scripts are legal in blocks but not relayed."""
    net, alice, _ = funded
    weird = Script([Op.OP_1, Op.OP_ADD, Op.OP_2, Op.OP_NUMEQUAL])
    spendable = alice.spendables(net.chain)[0]
    tx = Transaction(
        vin=[TxIn(spendable.outpoint)],
        vout=[TxOut(spendable.output.value - 100_000, weird)],
    )
    tx = alice.sign_all(tx, [spendable.output.script_pubkey])
    with pytest.raises(MempoolError, match="non-standard"):
        net.send(tx)
    # But a miner can still include it.
    net.send_raw(tx)
    net.confirm()
    assert net.confirmations(tx.txid) == 1


def test_dust_refused(funded):
    net, alice, bob = funded
    tx = alice.create_transaction(
        net.chain, [TxOut(100, p2pkh_script(bob.key_hash))], fee=100_000
    )
    with pytest.raises(MempoolError, match="dust"):
        net.send(tx)


def test_low_fee_refused(funded):
    net, alice, bob = funded
    tx = alice.create_transaction(
        net.chain, [TxOut(COIN, p2pkh_script(bob.key_hash))], fee=10
    )
    with pytest.raises(MempoolError, match="fee"):
        net.send(tx)


def test_coinbase_refused(funded):
    net, _, _ = funded
    coinbase = net.chain.tip.block.txs[0]
    with pytest.raises(MempoolError, match="coinbase"):
        net.mempool.accept(coinbase)


def test_fee_rate_ordering(funded):
    net, alice, bob = funded
    # Extra coins so three independent transactions can coexist in the pool.
    net.fund_wallet(alice, blocks=2)
    spent: set = set()
    fees = [50_000, 150_000, 100_000]
    for fee in fees:
        tx = alice.create_transaction(
            net.chain,
            [TxOut(COIN, p2pkh_script(bob.key_hash))],
            fee=fee,
            exclude=spent,
        )
        spent.update(txin.prevout for txin in tx.vin)
        net.send(tx)
    ordered = net.mempool.transactions()
    ordered_fees = [e.fee for e in ordered]
    assert ordered_fees == sorted(fees, reverse=True)


def test_revalidate_evicts_conflicts(funded, monkeypatch):
    net, alice, bob = funded
    tx = alice.create_transaction(
        net.chain, [TxOut(COIN, p2pkh_script(bob.key_hash))], fee=1000
    )
    net.send(tx)
    # Admission ran the scripts and the txid pins them: revalidation asks
    # only whether the inputs are still there, mature and sufficient.
    from repro.bitcoin import validation

    def no_scripts(*args):
        raise AssertionError("revalidate() ran a script")

    monkeypatch.setattr(validation, "execute_script", no_scripts)
    assert net.mempool.revalidate() == []
    assert tx.txid in net.mempool
    # Simulate the inputs disappearing (e.g. after a reorg made them spent):
    # manually remove them from the UTXO set.
    for txin in tx.vin:
        net.chain.utxos.remove(txin.prevout)
    evicted = net.mempool.revalidate()
    assert tx.txid not in net.mempool
    assert [t.txid for t in evicted] == [tx.txid]


class TestReorgReinjection:
    """Reorgs must not lose the losing branch's transactions."""

    def _build_rival(self, net, fork_height, seed, count, with_tx=None):
        """A heavier branch forked at ``fork_height``; optionally mines
        ``with_tx`` into its first block."""
        from repro.bitcoin.chain import Blockchain, ChainParams
        from repro.bitcoin.mempool import Mempool
        from repro.bitcoin.miner import Miner

        rival = Blockchain(ChainParams.regtest())
        for h in range(1, fork_height + 1):
            rival.add_block(net.chain.block_at(h))
        pool = Mempool(rival)
        if with_tx is not None:
            pool.accept(with_tx)
        miner = Miner(rival, Wallet.from_seed(seed).key_hash)
        blocks = []
        for i in range(count):
            blocks.append(
                miner.mine_block(pool if i == 0 else None,
                                 extra_nonce=7000 + i)
            )
        return blocks

    def test_losing_branch_tx_returns_to_mempool(self, funded):
        net, alice, bob = funded
        fork_height = net.chain.height
        tx = alice.create_transaction(
            net.chain, [TxOut(COIN, p2pkh_script(bob.key_hash))], fee=1000
        )
        net.send(tx)
        net.confirm(1)
        assert tx.txid not in net.mempool

        for block in self._build_rival(net, fork_height, b"mp-rival", 2):
            net.chain.add_block(block)
        assert net.chain.get_transaction(tx.txid) is None  # unconfirmed again
        assert tx.txid in net.mempool  # ...but not lost
        net.confirm(1)
        assert net.confirmations(tx.txid) == 1

    def test_tx_confirmed_on_winning_branch_not_reinjected(self, funded):
        net, alice, bob = funded
        fork_height = net.chain.height
        tx = alice.create_transaction(
            net.chain, [TxOut(COIN, p2pkh_script(bob.key_hash))], fee=1000
        )
        net.send(tx)
        net.confirm(1)

        blocks = self._build_rival(
            net, fork_height, b"mp-rival2", 2, with_tx=tx
        )
        for block in blocks:
            net.chain.add_block(block)
        # The winning branch re-confirmed it: stays out of the pool.
        assert net.chain.get_transaction(tx.txid) is not None
        assert tx.txid not in net.mempool

    def test_conflicted_tx_stays_out(self, funded):
        net, alice, bob = funded
        fork_height = net.chain.height
        tx = alice.create_transaction(
            net.chain, [TxOut(COIN, p2pkh_script(bob.key_hash))], fee=1000
        )
        net.send(tx)
        net.confirm(1)

        # The rival branch double-spends the same coin to someone else:
        # building the spend against a fork-point copy of the chain makes
        # the wallet pick the identical (still-unspent there) input.
        from repro.bitcoin.chain import Blockchain, ChainParams
        from repro.bitcoin.mempool import Mempool
        from repro.bitcoin.miner import Miner

        rival = Blockchain(ChainParams.regtest())
        for h in range(1, fork_height + 1):
            rival.add_block(net.chain.block_at(h))
        double = alice.create_transaction(
            rival, [TxOut(COIN, p2pkh_script(b"\x55" * 20))], fee=1000
        )
        assert double.vin[0].prevout == tx.vin[0].prevout  # same coin
        pool = Mempool(rival)
        pool.accept(double)
        miner = Miner(rival, Wallet.from_seed(b"mp-rival4").key_hash)
        for i in range(2):
            net.chain.add_block(
                miner.mine_block(pool if i == 0 else None,
                                 extra_nonce=8000 + i)
            )
        # tx's input is now spent by `double` on the active chain: the
        # re-injection attempt must fail validation and stay out.
        assert tx.txid not in net.mempool
        assert net.chain.get_transaction(double.txid) is not None
