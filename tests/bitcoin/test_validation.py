"""Tests for the four transaction-validity rules of paper §2."""

import pytest

from repro.bitcoin import validation
from repro.bitcoin.script import Script
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import COIN, MAX_MONEY, OutPoint, Transaction, TxIn, TxOut
from repro.bitcoin.utxo import UTXOEntry, UTXOSet
from repro.bitcoin.validation import (
    MissingInputError,
    ValidationError,
    check_transaction,
    check_tx_inputs,
)
from repro.crypto.keys import PrivateKey
from repro.bitcoin.wallet import Wallet

ALICE = PrivateKey.from_seed(b"alice-validation")
BOB = PrivateKey.from_seed(b"bob-validation")


def utxo_with(value, key=ALICE, height=0):
    utxos = UTXOSet()
    outpoint = OutPoint(b"\x55" * 32, 0)
    utxos.add(
        outpoint,
        UTXOEntry(TxOut(value, p2pkh_script(key.public.key_hash)), height, False),
    )
    return utxos, outpoint


def spend(outpoint, value, key=ALICE, sign=True):
    tx = Transaction(
        vin=[TxIn(outpoint)],
        vout=[TxOut(value, p2pkh_script(BOB.public.key_hash))],
    )
    if sign:
        wallet = Wallet([key])
        tx = wallet.sign_input(tx, 0, p2pkh_script(key.public.key_hash))
    return tx


class TestStructural:
    def test_no_inputs_rejected(self):
        tx = Transaction([], [TxOut(1, Script())])
        with pytest.raises(ValidationError, match="no inputs"):
            check_transaction(tx)

    def test_no_outputs_rejected(self):
        tx = Transaction([TxIn(OutPoint(b"\x01" * 32, 0))], [])
        with pytest.raises(ValidationError, match="no outputs"):
            check_transaction(tx)

    def test_negative_value_rejected(self):
        tx = Transaction(
            [TxIn(OutPoint(b"\x01" * 32, 0))], [TxOut(-1, Script())]
        )
        with pytest.raises(ValidationError, match="negative"):
            check_transaction(tx)

    def test_excessive_value_rejected(self):
        tx = Transaction(
            [TxIn(OutPoint(b"\x01" * 32, 0))], [TxOut(MAX_MONEY + 1, Script())]
        )
        with pytest.raises(ValidationError, match="max money"):
            check_transaction(tx)

    def test_duplicate_inputs_rejected(self):
        """Rule 3 (within a transaction): inputs must be distinct."""
        outpoint = OutPoint(b"\x01" * 32, 0)
        tx = Transaction([TxIn(outpoint), TxIn(outpoint)], [TxOut(1, Script())])
        with pytest.raises(ValidationError, match="duplicate"):
            check_transaction(tx)

    def test_null_prevout_only_in_coinbase(self):
        tx = Transaction(
            [TxIn(OutPoint.null()), TxIn(OutPoint(b"\x01" * 32, 0))],
            [TxOut(1, Script())],
        )
        with pytest.raises(ValidationError, match="null prevout"):
            check_transaction(tx)


class TestInputs:
    def test_valid_spend(self):
        utxos, outpoint = utxo_with(10 * COIN)
        result = check_tx_inputs(spend(outpoint, 9 * COIN), utxos, height=1)
        assert result.fee == COIN

    def test_missing_input_rejected(self):
        """Rule 3: inputs must identify unspent outputs."""
        utxos = UTXOSet()
        tx = spend(OutPoint(b"\x55" * 32, 0), 1)
        with pytest.raises(ValidationError, match="missing or spent"):
            check_tx_inputs(tx, utxos, height=1)

    def test_outputs_exceeding_inputs_rejected(self):
        """Rule 1: value out must not exceed value in."""
        utxos, outpoint = utxo_with(5 * COIN)
        with pytest.raises(ValidationError, match="exceed"):
            check_tx_inputs(spend(outpoint, 6 * COIN), utxos, height=1)

    def test_wrong_key_rejected(self):
        """Rule 4: the signature must match the spent output's key."""
        utxos, outpoint = utxo_with(COIN)
        tx = spend(outpoint, COIN // 2, key=ALICE, sign=False)
        # Bob signs, but the output demands Alice's key.
        bob_wallet = Wallet([BOB])
        tx = bob_wallet.sign_input(tx, 0, p2pkh_script(BOB.public.key_hash))
        with pytest.raises(ValidationError, match="script validation"):
            check_tx_inputs(tx, utxos, height=1)

    def test_tampered_transaction_rejected(self):
        """Rule 4: the signature covers the full transaction."""
        utxos, outpoint = utxo_with(COIN)
        tx = spend(outpoint, COIN // 2)
        # Redirect the output after signing.
        tampered = Transaction(
            tx.vin, [TxOut(COIN // 2, p2pkh_script(b"\x66" * 20))]
        )
        with pytest.raises(ValidationError, match="script validation"):
            check_tx_inputs(tampered, utxos, height=1)

    def test_immature_coinbase_rejected(self):
        utxos = UTXOSet()
        outpoint = OutPoint(b"\x55" * 32, 0)
        utxos.add(
            outpoint,
            UTXOEntry(
                TxOut(COIN, p2pkh_script(ALICE.public.key_hash)), 10, True
            ),
        )
        with pytest.raises(ValidationError, match="premature"):
            check_tx_inputs(spend(outpoint, COIN // 2), utxos, height=50)
        # Mature at height >= 110.
        assert check_tx_inputs(spend(outpoint, COIN // 2), utxos, height=110)

    def test_coinbase_cannot_be_checked_as_spend(self):
        coinbase = Transaction(
            [TxIn(OutPoint.null(), Script([b"\x00"]))],
            [TxOut(1, Script())],
        )
        with pytest.raises(ValidationError):
            check_tx_inputs(coinbase, UTXOSet(), height=1)

    def test_warm_verdict_skips_scripts_not_context(
        self, monkeypatch, fresh_default_cache
    ):
        """What ``verify_scripts=False`` was for (``Mempool.revalidate``):
        a transaction verified once is re-checked without its scripts —
        inputs, maturity and value still — and with them again once the
        cache no longer holds its txid."""
        utxos, outpoint = utxo_with(COIN)
        tx = spend(outpoint, COIN // 2)
        assert check_tx_inputs(tx, utxos, height=1).fee == COIN - COIN // 2
        ran = []  # a stand-in interpreter that authorises nothing
        monkeypatch.setattr(
            validation, "execute_script", lambda *args: ran.append(args)
        )
        assert check_tx_inputs(tx, utxos, height=1).fee == COIN - COIN // 2
        with pytest.raises(MissingInputError, match="missing or spent"):
            check_tx_inputs(tx, UTXOSet(), height=1)
        assert ran == []
        fresh_default_cache.clear()
        with pytest.raises(ValidationError, match="script validation"):
            check_tx_inputs(tx, utxos, height=1)
        assert len(ran) == 1
