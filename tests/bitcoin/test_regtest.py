"""Tests for the regtest harness and miner."""

from repro.bitcoin.chain import block_subsidy
from repro.bitcoin.miner import Miner
from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import COIN, TxOut
from repro.bitcoin.wallet import Wallet


def balance(wallet, chain):
    """What ``wallet`` can spend on ``chain``, summed."""
    return sum(s.output.value for s in wallet.spendables(chain))


def test_generate_advances_height():
    net = RegtestNetwork()
    key = Wallet.from_seed(b"rt").key_hash
    blocks = net.generate(3, key)
    assert net.chain.height == 3
    assert len(blocks) == 3
    assert all(b.txs[0].is_coinbase for b in blocks)


def test_fund_wallet_produces_mature_balance():
    net = RegtestNetwork()
    wallet = Wallet.from_seed(b"rt-funded")
    net.fund_wallet(wallet, blocks=3)
    assert balance(wallet, net.chain) == 3 * 50 * COIN


def test_miner_collects_fees():
    net = RegtestNetwork()
    alice = Wallet.from_seed(b"rt-alice")
    net.fund_wallet(alice)
    fee = 250_000
    tx = alice.create_transaction(
        net.chain, [TxOut(COIN, p2pkh_script(b"\x01" * 20))], fee=fee
    )
    net.send(tx)
    miner_key = Wallet.from_seed(b"rt-miner")
    [block] = net.generate(1, miner_key.key_hash)
    assert tx.txid in {t.txid for t in block.txs}
    coinbase_value = block.txs[0].total_output_value()
    assert coinbase_value == block_subsidy(net.chain.height) + fee


def test_confirmations_accumulate():
    net = RegtestNetwork()
    alice = Wallet.from_seed(b"rt-confs")
    net.fund_wallet(alice)
    tx = alice.create_transaction(
        net.chain, [TxOut(COIN, p2pkh_script(b"\x02" * 20))], fee=1000
    )
    txid = net.send(tx)
    assert net.chain.confirmations(txid) == 0
    net.confirm(6)
    assert net.chain.confirmations(txid) == 6


def test_mining_templates_are_unique():
    net = RegtestNetwork()
    key = Wallet.from_seed(b"rt-unique").key_hash
    blocks = net.generate(5, key)
    assert len({b.hash for b in blocks}) == 5
