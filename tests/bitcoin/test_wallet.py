"""Tests for the wallet: funding, signing, multisig."""

import pytest

from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.sighash import SigHashType
from repro.bitcoin.standard import (
    DUST_THRESHOLD,
    multisig_script,
    p2pk_script,
    p2pkh_script,
)
from repro.bitcoin.transaction import COIN, Transaction, TxIn, TxOut
from repro.bitcoin.validation import check_tx_inputs
from repro.bitcoin.wallet import Spendable, Wallet, WalletError
from repro.crypto.keys import PrivateKey


@pytest.fixture
def funded():
    net = RegtestNetwork()
    alice = Wallet.from_seed(b"w-alice")
    net.fund_wallet(alice, blocks=2)
    return net, alice


def test_balance_after_funding(funded):
    net, alice = funded
    assert alice.balance(net.chain) == 100 * COIN


def test_immature_coinbase_not_spendable():
    net = RegtestNetwork()
    alice = Wallet.from_seed(b"w-immature")
    net.generate(1, alice.key_hash)  # mined but immature
    assert alice.balance(net.chain) == 0


def test_create_transaction_with_change(funded):
    net, alice = funded
    bob = Wallet.from_seed(b"w-bob")
    tx = alice.create_transaction(
        net.chain, [TxOut(10 * COIN, p2pkh_script(bob.key_hash))], fee=5000
    )
    net.send(tx)
    net.confirm()
    assert bob.balance(net.chain) == 10 * COIN
    # Alice got change: balance = 100 - 10 - fee.
    assert alice.balance(net.chain) == 90 * COIN - 5000


def test_sub_dust_change_goes_to_the_fee(funded):
    """A surplus under the relay dust limit used to become a change
    output every mempool refuses ("output 1 is dust (100 sat)")."""
    net, alice = funded
    bob = Wallet.from_seed(b"w-bob-dust")
    first, second = alice.spendables(net.chain)[:2]

    def fee_of(tx):
        return check_tx_inputs(tx, net.chain.utxos, net.chain.height + 1).fee

    pay = TxOut(first.output.value - 5000 - 100, p2pkh_script(bob.key_hash))
    tx = alice.create_transaction(net.chain, [pay], fee=5000)
    assert tx.vout == (pay,)  # no 100-satoshi change output
    assert fee_of(tx) == 5100
    net.send(tx)

    # At the limit itself the change is relayable, and is made.
    pay = TxOut(
        second.output.value - 5000 - DUST_THRESHOLD, p2pkh_script(bob.key_hash)
    )
    tx = alice.create_transaction(
        net.chain, [pay], fee=5000, exclude={first.outpoint}
    )
    assert [out.value for out in tx.vout] == [pay.value, DUST_THRESHOLD]
    assert fee_of(tx) == 5000
    net.send(tx)


def test_insufficient_funds(funded):
    net, alice = funded
    with pytest.raises(WalletError, match="insufficient"):
        alice.create_transaction(
            net.chain, [TxOut(1000 * COIN, p2pkh_script(b"\x01" * 20))], fee=0
        )


def test_empty_wallet_has_no_default_key():
    with pytest.raises(WalletError):
        Wallet().default_key


def test_sign_p2pk(funded):
    net, alice = funded
    script = p2pk_script(alice.default_key.public.encoded)
    tx = alice.create_transaction(net.chain, [TxOut(COIN, script)], fee=5000)
    net.send(tx)
    net.confirm()
    # Spend the P2PK output back.
    outpoint = tx.outpoint(0)
    entry = net.chain.utxos.get(outpoint)
    spendable = Spendable(outpoint, entry.output, entry.height, entry.is_coinbase)
    spend = Transaction(
        vin=[TxIn(outpoint)],
        vout=[TxOut(COIN - 5000, p2pkh_script(alice.key_hash))],
    )
    spend = alice.sign_all(spend, [entry.output.script_pubkey])
    assert check_tx_inputs(spend, net.chain.utxos, net.chain.height + 1).fee == 5000


def test_sign_multisig_2_of_3(funded):
    net, alice = funded
    k1, k2, k3 = (PrivateKey.from_seed(bytes([i])) for i in range(3))
    script = multisig_script(2, [k.public.encoded for k in (k1, k2, k3)])
    tx = alice.create_transaction(net.chain, [TxOut(COIN, script)], fee=5000)
    net.send(tx)
    net.confirm()

    holders = Wallet([k1, k3])  # any two of the three
    outpoint = tx.outpoint(0)
    entry = net.chain.utxos.get(outpoint)
    spend = Transaction(
        vin=[TxIn(outpoint)],
        vout=[TxOut(COIN - 5000, p2pkh_script(alice.key_hash))],
    )
    spend = holders.sign_all(spend, [entry.output.script_pubkey])
    assert check_tx_inputs(spend, net.chain.utxos, net.chain.height + 1).fee == 5000


def test_multisig_insufficient_keys(funded):
    net, alice = funded
    k1, k2, k3 = (PrivateKey.from_seed(bytes([i])) for i in range(3))
    script = multisig_script(2, [k.public.encoded for k in (k1, k2, k3)])
    tx = alice.create_transaction(net.chain, [TxOut(COIN, script)], fee=5000)
    net.send(tx)
    net.confirm()
    lone = Wallet([k2])
    outpoint = tx.outpoint(0)
    entry = net.chain.utxos.get(outpoint)
    spend = Transaction(
        vin=[TxIn(outpoint)],
        vout=[TxOut(COIN - 5000, p2pkh_script(alice.key_hash))],
    )
    with pytest.raises(WalletError, match="not enough keys"):
        lone.sign_all(spend, [entry.output.script_pubkey])


def test_sign_wrong_script_type():
    wallet = Wallet.from_seed(b"w-unknown")
    from repro.bitcoin.script import Op, Script

    tx = Transaction(
        vin=[TxIn(OutPoint := __import__("repro.bitcoin.transaction", fromlist=["OutPoint"]).OutPoint(b"\x01" * 32, 0))],
        vout=[TxOut(1000, p2pkh_script(wallet.key_hash))],
    )
    with pytest.raises(WalletError, match="cannot sign"):
        wallet.sign_input(tx, 0, Script([Op.OP_1]))


def test_anyonecanpay_signature_survives_added_inputs(funded):
    """The wallet supports the SIGHASH modes open transactions need (§7)."""
    net, alice = funded
    bob = Wallet.from_seed(b"w-bob2")
    spendable = alice.spendables(net.chain)[0]
    tx = Transaction(
        vin=[TxIn(spendable.outpoint)],
        vout=[TxOut(spendable.output.value - 5000, p2pkh_script(bob.key_hash))],
    )
    hash_type = SigHashType.ALL | SigHashType.ANYONECANPAY
    signed = alice.sign_input(
        tx, 0, spendable.output.script_pubkey, hash_type
    )
    # Bob adds his own input afterwards; Alice's signature stays valid.
    extended = Transaction(
        list(signed.vin) + [TxIn(alice.spendables(net.chain)[1].outpoint)],
        signed.vout,
    )
    # Input 0's signature still verifies (input 1 unsigned, skip scripts there).
    from repro.bitcoin.script import execute_script
    from repro.bitcoin.validation import make_sig_checker

    checker = make_sig_checker(extended, 0, spendable.output.script_pubkey)
    assert execute_script(
        extended.vin[0].script_sig, spendable.output.script_pubkey, checker
    )


def test_deterministic_wallet_keys():
    a = Wallet.from_seed(b"same", count=3)
    b = Wallet.from_seed(b"same", count=3)
    assert [k.secret for k in a.keys] == [k.secret for k in b.keys]
    assert len({k.secret for k in a.keys}) == 3


def test_coinbase_maturity_boundary_matches_consensus():
    """Wallet selection and consensus validation agree at depths 99/100/101.

    The wallet used ``depth + 1 < COINBASE_MATURITY`` and so offered a
    coinbase one block before a spend of it at the current height would
    validate; both now apply the same ``depth < COINBASE_MATURITY`` rule.
    """
    from repro.bitcoin.utxo import COINBASE_MATURITY
    from repro.bitcoin.validation import ValidationError

    net = RegtestNetwork()
    alice = Wallet.from_seed(b"w-boundary")
    [block] = net.generate(1, alice.key_hash)  # coinbase at height 1
    coinbase = block.txs[0]
    outpoint = coinbase.outpoint(0)
    burn = Wallet.from_seed(b"w-boundary-burn")

    def wallet_offers() -> bool:
        return any(
            s.outpoint == outpoint for s in alice.spendables(net.chain)
        )

    def consensus_accepts_now() -> bool:
        """Would a spend mined at the *current* height validate?"""
        tx = Transaction(
            vin=[TxIn(outpoint)],
            vout=[TxOut(coinbase.vout[0].value - 1000, p2pkh_script(b"\x07" * 20))],
        )
        tx = alice.sign_all(tx, [coinbase.vout[0].script_pubkey])
        try:
            check_tx_inputs(tx, net.chain.utxos, net.chain.height)
        except ValidationError:
            return False
        return True

    net.generate(COINBASE_MATURITY - 2, burn.key_hash)  # depth 98
    for depth in (99, 100, 101):
        net.generate(1, burn.key_hash)
        assert net.chain.height - 1 == depth
        offered = wallet_offers()
        assert offered == consensus_accepts_now(), f"divergence at depth {depth}"
        assert offered == (depth >= COINBASE_MATURITY)


def test_boundary_coinbase_spend_confirms():
    """A spend the wallet builds at depth exactly 100 mines cleanly."""
    from repro.bitcoin.utxo import COINBASE_MATURITY

    net = RegtestNetwork()
    alice = Wallet.from_seed(b"w-boundary2")
    net.generate(1, alice.key_hash)
    net.generate(COINBASE_MATURITY, Wallet.from_seed(b"w-bb").key_hash)
    assert alice.balance(net.chain) == 50 * COIN
    bob = Wallet.from_seed(b"w-boundary2-bob")
    tx = alice.create_transaction(
        net.chain, [TxOut(COIN, p2pkh_script(bob.key_hash))], fee=1000
    )
    net.send(tx)
    net.confirm()
    assert net.confirmations(tx.txid) == 1
