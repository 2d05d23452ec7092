"""Tests for nLockTime finality (the native deadline mechanism of §8)."""

import dataclasses

import pytest

from repro.bitcoin.mempool import MempoolError
from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import (
    COIN,
    SEQUENCE_FINAL,
    Transaction,
    TxIn,
    TxOut,
)
from repro.bitcoin.validation import LOCKTIME_THRESHOLD, is_final
from repro.bitcoin.wallet import Wallet


@pytest.fixture
def funded():
    net = RegtestNetwork()
    alice = Wallet.from_seed(b"lt-alice")
    net.fund_wallet(alice)
    return net, alice


def locked_tx(net, alice, locktime, sequence=0):
    """A signed payment with the given locktime and input sequence."""
    spendable = alice.spendables(net.chain)[0]
    tx = Transaction(
        vin=[TxIn(spendable.outpoint, sequence=sequence)],
        vout=[TxOut(spendable.output.value - 100_000,
                    p2pkh_script(alice.key_hash))],
        locktime=locktime,
    )
    return alice.sign_all(tx, [spendable.output.script_pubkey])


class TestFinality:
    def test_zero_locktime_always_final(self):
        from repro.bitcoin.transaction import OutPoint

        tx = Transaction(
            [TxIn(OutPoint(b"\x01" * 32, 0), sequence=0)],
            [TxOut(1, p2pkh_script(b"\x00" * 20))],
            locktime=0,
        )
        assert is_final(tx, height=1, block_time=0)

    def test_height_locktime(self, funded):
        net, alice = funded
        tx = locked_tx(net, alice, locktime=200)
        assert not is_final(tx, height=150, block_time=0)
        assert not is_final(tx, height=200, block_time=0)
        assert is_final(tx, height=201, block_time=0)

    def test_time_locktime(self, funded):
        net, alice = funded
        deadline = LOCKTIME_THRESHOLD + 1_000
        tx = locked_tx(net, alice, locktime=deadline)
        assert not is_final(tx, height=10**6, block_time=deadline - 1)
        assert is_final(tx, height=0, block_time=deadline + 1)

    def test_final_sequences_disable_locktime(self, funded):
        net, alice = funded
        tx = locked_tx(net, alice, locktime=10**6, sequence=SEQUENCE_FINAL)
        assert is_final(tx, height=1, block_time=0)


class TestEnforcement:
    def test_mempool_rejects_immature(self, funded):
        net, alice = funded
        tx = locked_tx(net, alice, locktime=net.chain.height + 100)
        with pytest.raises(MempoolError, match="not final"):
            net.send(tx)

    def test_mempool_accepts_after_deadline(self, funded):
        net, alice = funded
        target = net.chain.height + 5
        tx = locked_tx(net, alice, locktime=target)
        net.confirm(6)  # advance past the height lock
        net.send(tx)
        net.confirm(1)
        assert net.chain.confirmations(tx.txid) == 1

    def test_block_with_nonfinal_tx_rejected(self, funded):
        """Even a miner cannot include a non-final transaction."""
        from repro.bitcoin.block import build_block
        from repro.bitcoin.miner import Miner
        from repro.bitcoin.validation import ValidationError

        net, alice = funded
        tx = locked_tx(net, alice, locktime=net.chain.height + 100)
        miner = Miner(net.chain, alice.key_hash)
        coinbase = miner.make_coinbase(net.chain.height + 1, fees=100_000)
        template = build_block(
            net.chain.tip.block.hash,
            [coinbase, tx],
            timestamp=net.chain.median_time_past() + 1,
            bits=net.chain.required_bits(net.chain.tip.block.hash),
        )
        block = miner.grind(template)
        with pytest.raises(ValidationError, match="non-final"):
            net.chain.add_block(block)

    def test_refund_contract_pattern(self, funded):
        """The §8 pattern: a pre-signed refund that only becomes valid
        after a deadline — 'Bitcoin can do it natively'."""
        net, alice = funded
        refund_height = net.chain.height + 3
        refund = locked_tx(net, alice, locktime=refund_height)
        # Too early: the network refuses the refund.
        with pytest.raises(MempoolError):
            net.send(refund)
        # After the deadline it goes through unchanged.
        net.confirm(4)
        net.send(refund)
        net.confirm(1)
        assert net.chain.confirmations(refund.txid) == 1
