"""Tests for the Bitcoin overlay (§3, §3.3): embedding and correspondence."""

import pytest

from repro.bitcoin.standard import ScriptType, classify
from repro.bitcoin.transaction import OutPoint
from repro.core.builder import basis_publication, simple_transfer
from repro.core.overlay import (
    EmbeddingStrategy,
    OverlayError,
    build_carrier,
    carrier_embeds_hash,
    check_carrier_correspondence,
    metadata_pubkey,
    output_script,
)
from repro.core.transaction import TypecoinOutput, TypecoinTransaction
from repro.lf.basis import Basis
from repro.logic.propositions import One


def trivial_txn(pubkey, amount=600):
    return simple_transfer([], [TypecoinOutput(One(), amount, pubkey)])


class TestMetadataKey:
    def test_shape(self):
        key = metadata_pubkey(b"\x42" * 32)
        assert len(key) == 33
        assert key[0] == 0x02

    def test_length_check(self):
        with pytest.raises(OverlayError):
            metadata_pubkey(b"\x42" * 31)

    def test_1of2_script_is_standard(self):
        """The whole point of §3.3: the embedding must pass relay policy."""
        pubkey = b"\x02" + b"\x11" * 32
        script = output_script(pubkey, b"\x42" * 32)
        assert classify(script).type is not ScriptType.NONSTANDARD
        assert classify(script).type is ScriptType.MULTISIG


class TestBuildCarrier:
    def test_multisig_strategy(self, net, alice):
        txn = trivial_txn(alice.pubkey)
        carrier = build_carrier(net.chain, alice.wallet, txn, fee=10_000)
        assert carrier_embeds_hash(carrier, txn.hash)
        assert classify(carrier.vout[0].script_pubkey).type is ScriptType.MULTISIG
        assert carrier.vout[0].value == 600
        # Relay accepts it.
        net.send(carrier)

    def test_bogus_output_strategy(self, net, alice):
        txn = trivial_txn(alice.pubkey)
        carrier = build_carrier(
            net.chain, alice.wallet, txn, fee=10_000,
            strategy=EmbeddingStrategy.BOGUS_OUTPUT,
        )
        assert carrier_embeds_hash(carrier, txn.hash)
        # The bogus output is a P2PK to a key nobody has.
        bogus = carrier.vout[1]
        assert classify(bogus.script_pubkey).type is ScriptType.P2PK

    def test_op_return_strategy(self, net, alice):
        txn = trivial_txn(alice.pubkey)
        carrier = build_carrier(
            net.chain, alice.wallet, txn, fee=10_000,
            strategy=EmbeddingStrategy.OP_RETURN,
        )
        assert carrier_embeds_hash(carrier, txn.hash)
        assert any(
            classify(out.script_pubkey).type is ScriptType.OP_RETURN
            for out in carrier.vout
        )

    def test_wrong_hash_not_detected(self, net, alice):
        txn = trivial_txn(alice.pubkey)
        carrier = build_carrier(net.chain, alice.wallet, txn, fee=10_000)
        assert not carrier_embeds_hash(carrier, b"\x00" * 32)

    def test_missing_input_rejected(self, net, alice):
        from repro.core.transaction import TypecoinInput

        txn = simple_transfer(
            [TypecoinInput(b"\x01" * 32, 0, One(), 600)],
            [TypecoinOutput(One(), 600, alice.pubkey)],
        )
        with pytest.raises(OverlayError, match="missing or spent"):
            build_carrier(net.chain, alice.wallet, txn, fee=10_000)


class TestCorrespondence:
    def test_valid_correspondence(self, net, alice):
        txn = trivial_txn(alice.pubkey)
        carrier = build_carrier(net.chain, alice.wallet, txn, fee=10_000)
        check_carrier_correspondence(carrier, txn)

    def test_tampered_typecoin_txn_detected(self, net, alice, bob):
        """Check 1 of §3: the embedded hash pins the Typecoin transaction."""
        txn = trivial_txn(alice.pubkey)
        carrier = build_carrier(net.chain, alice.wallet, txn, fee=10_000)
        # A different Typecoin transaction claiming the same carrier.
        other = trivial_txn(bob.pubkey)
        with pytest.raises(OverlayError, match="does not embed"):
            check_carrier_correspondence(carrier, other)

    def test_value_mismatch_detected(self, net, alice):
        txn = trivial_txn(alice.pubkey, amount=600)
        carrier = build_carrier(net.chain, alice.wallet, txn, fee=10_000)
        # Forge a Typecoin view declaring a different amount but reusing the
        # carrier: the hash no longer matches, and even if it did the value
        # check would fire.  Test the value check directly by rebuilding the
        # carrier with a wrong output value.
        from dataclasses import replace

        from repro.bitcoin.transaction import Transaction, TxOut

        doctored = Transaction(
            carrier.vin,
            [TxOut(700, carrier.vout[0].script_pubkey)] + list(carrier.vout[1:]),
        )
        with pytest.raises(OverlayError):
            check_carrier_correspondence(doctored, txn)

    def test_fewer_outputs_detected(self, net, alice):
        txn = simple_transfer(
            [],
            [
                TypecoinOutput(One(), 600, alice.pubkey),
                TypecoinOutput(One(), 600, alice.pubkey),
            ],
        )
        carrier = build_carrier(net.chain, alice.wallet, txn, fee=10_000)
        from repro.bitcoin.transaction import Transaction

        truncated = Transaction(carrier.vin, carrier.vout[:1])
        with pytest.raises(OverlayError):
            check_carrier_correspondence(truncated, txn)
