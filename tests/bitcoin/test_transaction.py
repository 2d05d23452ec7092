"""Tests for transaction structure, serialization, and txids."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.script import Op, Script
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import (
    OutPoint,
    Transaction,
    TxIn,
    TxOut,
    read_varint,
    varint,
)
from repro.bitcoin.wallet import Wallet


def make_tx(n_in=1, n_out=1):
    vin = [
        TxIn(OutPoint(bytes([i]) * 32, i), Script([b"\x01"])) for i in range(n_in)
    ]
    vout = [TxOut(1000 * (i + 1), p2pkh_script(bytes([i]) * 20)) for i in range(n_out)]
    return Transaction(vin, vout)


class TestVarint:
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_roundtrip(self, n):
        value, offset = read_varint(varint(n), 0)
        assert value == n
        assert offset == len(varint(n))

    def test_boundaries(self):
        assert len(varint(0xFC)) == 1
        assert len(varint(0xFD)) == 3
        assert len(varint(0xFFFF)) == 3
        assert len(varint(0x10000)) == 5
        assert len(varint(0x100000000)) == 9


class TestOutPoint:
    def test_null_detection(self):
        assert OutPoint.null().is_null
        assert not OutPoint(b"\x01" * 32, 0).is_null

    def test_ordering_and_hashability(self):
        a = OutPoint(b"\x00" * 32, 0)
        b = OutPoint(b"\x00" * 32, 1)
        assert a < b
        assert len({a, b, a}) == 2

    def test_str_is_display_order(self):
        op = OutPoint(bytes(range(32)), 5)
        assert op.__str__().endswith(":5")


class TestTransaction:
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_serialization_roundtrip(self, n_in, n_out):
        tx = make_tx(n_in, n_out)
        assert Transaction.parse(tx.serialize()) == tx

    def test_txid_changes_with_content(self):
        assert make_tx(1, 1).txid != make_tx(1, 2).txid

    def test_txid_is_display_reversed(self):
        tx = make_tx()
        assert tx.txid_hex == tx.txid[::-1].hex()

    def test_coinbase_detection(self):
        coinbase = Transaction(
            vin=[TxIn(OutPoint.null(), Script([b"\x00"]))],
            vout=[TxOut(50, p2pkh_script(b"\x01" * 20))],
        )
        assert coinbase.is_coinbase
        assert not make_tx().is_coinbase

    def test_total_output_value(self):
        assert make_tx(1, 3).total_output_value() == 1000 + 2000 + 3000

    def test_outpoint_accessor(self):
        tx = make_tx(1, 2)
        assert tx.outpoint(1) == OutPoint(tx.txid, 1)
        with pytest.raises(IndexError):
            tx.outpoint(2)

    def test_with_input_script_replaces_one(self):
        tx = make_tx(2, 1)
        new_script = Script([b"\xff"])
        updated = tx.with_input_script(1, new_script)
        assert updated.vin[1].script_sig == new_script
        assert updated.vin[0].script_sig == tx.vin[0].script_sig
        # Original is unchanged (immutability).
        assert tx.vin[1].script_sig != new_script

    def test_negative_locktime_version_roundtrip(self):
        tx = Transaction(
            vin=[TxIn(OutPoint(b"\x01" * 32, 0))],
            vout=[TxOut(1, Script())],
            version=2,
            locktime=500_000,
        )
        parsed = Transaction.parse(tx.serialize())
        assert parsed.version == 2
        assert parsed.locktime == 500_000


class TestEncodingMemo:
    """``serialize()`` is built once beside the txid — by the encoder."""

    @pytest.fixture
    def script_encodes(self, monkeypatch):
        """Every ``Script.serialize`` call, as the script encoded."""
        calls = []
        encode = Script.serialize

        def counting(script):
            calls.append(script)
            return encode(script)

        monkeypatch.setattr(Script, "serialize", counting)
        return calls

    def test_a_non_minimal_push_reencodes_and_the_txid_names_that(self):
        """A 10-byte push behind OP_PUSHDATA1 parses; what the node keeps,
        hashes and relays is the minimal form, so this wire form and the
        minimal one are one transaction with one txid (ROADMAP item 3:
        push encoding is a malleation this node cannot see).  The memo
        must never be seeded from the bytes ``parse_from`` read."""
        payload = bytes(range(10))
        minimal = Transaction(
            [TxIn(OutPoint(b"\x07" * 32, 1), Script([payload]))],
            [TxOut(1000, p2pkh_script(b"\x01" * 20))],
        )
        raw = minimal.serialize()
        short, padded = bytes([11, 10]) + payload, bytes([12, 0x4C, 10]) + payload
        assert raw.count(short) == 1
        wire = raw.replace(short, padded)
        parsed = Transaction.parse(wire)
        assert parsed == minimal
        assert parsed.serialize() == raw != wire
        assert parsed.txid == minimal.txid
        assert Transaction.parse_from(wire, 0)[0].serialize() == raw

    def test_a_parsed_script_keeps_the_encoders_bytes(self):
        """``Script.parse`` of a non-minimal push keeps nothing of the bytes
        it read: the script's kept encoding is the minimal one."""
        payload = bytes(range(10))
        for padded in (
            bytes([0x4C, 10]) + payload,
            bytes([0x4D, 10, 0]) + payload,
        ):
            parsed = Script.parse(padded)
            assert parsed == Script([payload])
            assert parsed.serialize() == bytes([10]) + payload
            assert parsed.serialize() is parsed.serialize()

    def test_serialize_encodes_once(self, script_encodes):
        tx = make_tx(2, 2)
        first = tx.serialize()
        encoded = len(script_encodes)
        assert encoded == 4
        assert tx.serialize() is first and tx.txid and len(script_encodes) == encoded

    def test_with_input_script_has_its_own_memo(self):
        tx = make_tx(2, 1)
        before = tx.serialize(), tx.txid
        updated = tx.with_input_script(1, Script([b"\xff" * 3]))
        assert updated.serialize() != before[0] and updated.txid != before[1]
        assert Transaction.parse(updated.serialize()) == updated
        assert (tx.serialize(), tx.txid) == before

    def test_block_and_mempool_sizes_read_the_memo(self, script_encodes):
        net = RegtestNetwork()
        alice = Wallet.from_seed(b"memo-alice")
        net.fund_wallet(alice)
        tx = alice.create_transaction(
            net.chain, [TxOut(1000, p2pkh_script(alice.key_hash))], fee=2000
        )
        raw = tx.serialize()
        del script_encodes[:]
        entry = net.mempool.accept(tx)
        assert entry.size == len(raw)
        [block] = net.generate(1, alice.key_hash)
        assert tx in block.txs
        assert block.serialized_size() > len(raw)
        # Its scriptSigs are encoded by nothing but the transaction encoder
        # (the UTXO table sizes output scripts; sighashes blank scriptSigs).
        own = {id(txin.script_sig) for txin in tx.vin}
        assert not [script for script in script_encodes if id(script) in own]
