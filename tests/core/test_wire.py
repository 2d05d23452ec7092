"""Tests for the transaction/bundle wire format (§3 transport)."""

import sys

import pytest

from repro.bitcoin.transaction import OutPoint
from repro.core.builder import basis_publication, simple_transfer
from repro.core.transaction import TypecoinInput, TypecoinOutput
from repro.core.verifier import VerificationError, verify_claim
from repro.core.wire import (
    decode_bundle,
    decode_transaction,
    encode_bundle,
    encode_transaction,
)
from repro.logic.codec import (
    MAX_NESTING,
    DecodingError,
    encode,
    write_blob,
    write_uint,
)
from repro.logic.proofterms import BangIntro, OneIntro
from repro.logic.propositions import Bang, One
from repro.lf.walk import convertible

from tests.core.conftest import publish_newcoin
from tests.core.test_batch import issue_to
from tests.oracles import rebuilt

PUBKEY = b"\x02" + b"\x44" * 32


def over_nested_transaction(levels=3000):
    """Well-framed transaction bytes whose proof is ``levels`` × ``fst``
    deep: only the proof, the last field, is hostile."""
    txn = simple_transfer([], [TypecoinOutput(One(), 600, PUBKEY)])
    data, proof = encode_transaction(txn), encode(txn.proof)
    assert data.endswith(proof)
    return data[: -len(proof)] + b"\x67" * levels + proof


class TestTransactionRoundtrip:
    """A decoded transaction keeps the bytes it was read from, so each
    round trip is checked on the transaction its fields rebuild."""

    def test_trivial_transaction(self):
        txn = simple_transfer([], [TypecoinOutput(One(), 600, PUBKEY)])
        decoded = decode_transaction(encode_transaction(txn))
        assert rebuilt(decoded).hash == decoded.hash == txn.hash
        assert convertible(decoded.outputs[0].prop, txn.outputs[0].prop)

    def test_transaction_with_basis_and_inputs(self, net, bank):
        vocab, basis_txid, basis_txn = publish_newcoin(net, bank)
        decoded = decode_transaction(encode_transaction(basis_txn))
        assert rebuilt(decoded).hash == decoded.hash == basis_txn.hash
        assert len(decoded.basis) == len(basis_txn.basis)

    def test_issue_transaction_with_assert(self, net, bank):
        """Affirmation signatures survive the wire: the decoded transaction
        re-validates from scratch."""
        from repro.core.validate import (
            Ledger,
            check_typecoin_transaction,
            resolve,
            world_at,
        )

        vocab, basis_txid, basis_txn = publish_newcoin(net, bank)
        carrier, txn = issue_to(net, bank, vocab, 7, bank.pubkey)
        decoded = decode_transaction(encode_transaction(txn))
        assert rebuilt(decoded).hash == decoded.hash == txn.hash

        ledger = Ledger()
        check_typecoin_transaction(ledger, basis_txn, world_at(net.chain))
        ledger.register(basis_txid, basis_txn, resolve(basis_txid, basis_txn))
        check_typecoin_transaction(ledger, decoded, world_at(net.chain))

    def test_garbage_rejected(self):
        with pytest.raises(DecodingError):
            decode_transaction(b"not a transaction")

    def test_trailing_bytes_rejected(self):
        txn = simple_transfer([], [TypecoinOutput(One(), 600, PUBKEY)])
        with pytest.raises(DecodingError, match="trailing"):
            decode_transaction(encode_transaction(txn) + b"\x00")

    def test_over_nested_proof_rejected(self):
        with pytest.raises(DecodingError, match="nesting too deep"):
            decode_transaction(over_nested_transaction())

    def test_a_proof_at_the_bound_costs_one_frame_a_level(self):
        """The decoder and the encoder recurse once per level, so a proof
        nested to the bound reads and writes back with 100 frames to spare
        over the levels themselves.  The per-syntax decoders took three
        frames a level: ≈ 770 of them at the bound."""
        txn = simple_transfer([], [TypecoinOutput(One(), 600, PUBKEY)])
        data, proof = encode_transaction(txn), encode(txn.proof)
        deep = data[: -len(proof)] + b"\x67" * (MAX_NESTING - 1) + b"\x6c"
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(MAX_NESTING + 100)
        try:
            decoded = decode_transaction(deep)
            assert encode_transaction(rebuilt(decoded)) == deep
        finally:
            sys.setrecursionlimit(limit)


class TestBundleRoundtrip:
    def test_bundle_survives_the_wire_and_verifies(self, net, bank, alice):
        """The full §3 flow with serialization in the middle: the prover
        encodes the bundle, the verifier decodes and checks it."""
        vocab, _, _ = publish_newcoin(net, bank)
        outpoint, _ = issue_to(net, bank, vocab, 10, alice.pubkey)
        bundle = bank.claim_bundle(outpoint, vocab.coin_prop(10))

        wire_bytes = encode_bundle(bundle)
        received = decode_bundle(wire_bytes)

        assert received.outpoint == bundle.outpoint
        assert convertible(received.prop, bundle.prop)
        assert set(received.transactions) == set(bundle.transactions)
        verify_claim(net.chain, received)

    def test_tampered_bundle_detected(self, net, bank, alice):
        vocab, _, _ = publish_newcoin(net, bank)
        outpoint, _ = issue_to(net, bank, vocab, 10, alice.pubkey)
        bundle = bank.claim_bundle(outpoint, vocab.coin_prop(10))
        wire_bytes = bytearray(encode_bundle(bundle))
        # Flip a byte deep in the payload.
        wire_bytes[len(wire_bytes) // 2] ^= 0xFF
        with pytest.raises((DecodingError, VerificationError, Exception)):
            received = decode_bundle(bytes(wire_bytes))
            verify_claim(net.chain, received)

    def test_bundle_magic_checked(self):
        with pytest.raises(DecodingError, match="magic"):
            decode_bundle(b"wrong-magic" + b"\x00" * 20)

    @staticmethod
    def _bundle_bytes(entries):
        """A bundle with exactly these (txid key, transaction or its bytes)
        entries, in this order — ``encode_bundle`` can emit neither a
        repeat nor a short key, a hostile prover can."""
        parts = [b"typecoin-bundle:", write_blob(b"\x11" * 32), write_uint(0)]
        parts.append(write_blob(encode(One())))
        parts.append(write_uint(len(entries)))
        for txid, txn in entries:
            data = txn if isinstance(txn, bytes) else encode_transaction(txn)
            parts.append(write_blob(txid) + write_blob(data))
        return b"".join(parts)

    def test_handmade_bundle_decodes(self):
        txn = simple_transfer([], [TypecoinOutput(One(), 600, PUBKEY)])
        received = decode_bundle(self._bundle_bytes([(b"\x11" * 32, txn)]))
        assert list(received.transactions) == [b"\x11" * 32]

    def test_repeated_carrier_txid_rejected(self):
        """The later copy used to replace the earlier one silently."""
        first = simple_transfer([], [TypecoinOutput(One(), 600, PUBKEY)])
        second = simple_transfer([], [TypecoinOutput(One(), 700, PUBKEY)])
        for pair in ([first, second], [first, first]):
            data = self._bundle_bytes([(b"\x11" * 32, txn) for txn in pair])
            with pytest.raises(DecodingError, match="repeats carrier"):
                decode_bundle(data)

    @pytest.mark.parametrize("key", [b"", b"xx", b"\x11" * 31, b"\x11" * 33])
    def test_txid_key_of_wrong_length_rejected(self, key):
        """Used to decode, and be refused only later as "not in the
        active chain"."""
        txn = simple_transfer([], [TypecoinOutput(One(), 600, PUBKEY)])
        with pytest.raises(DecodingError, match="32 bytes"):
            decode_bundle(self._bundle_bytes([(key, txn)]))

    def test_over_nested_proof_rejected(self):
        data = self._bundle_bytes([(b"\x11" * 32, over_nested_transaction())])
        with pytest.raises(DecodingError, match="nesting too deep"):
            decode_bundle(data)

    def test_claim_nested_to_the_bound_gets_an_answer(self, net, bank):
        """What the decoder lets through, the checkers can finish: the
        deepest transaction that decodes is answered, not crashed on."""

        def promoted(levels):
            prop, proof = One(), OneIntro()
            for _ in range(levels):
                prop, proof = Bang(prop), BangIntro(proof)
            output = TypecoinOutput(prop, 600, bank.pubkey)
            return prop, simple_transfer([], [output], body=lambda _ins: proof)

        # The obligation wrapper adds a few levels of its own: find the
        # deepest promotion that still decodes.
        levels = MAX_NESTING
        while True:
            prop, txn = promoted(levels)
            try:
                decode_transaction(encode_transaction(txn))
                break
            except DecodingError:
                levels -= 1
        with pytest.raises(DecodingError, match="nesting too deep"):
            decode_transaction(encode_transaction(promoted(levels + 1)[1]))

        carrier = bank.submit(txn)
        net.confirm(1)
        bank.sync()
        bundle = bank.claim_bundle(OutPoint(carrier.txid, 0), prop)
        received = decode_bundle(encode_bundle(bundle))
        try:
            verify_claim(net.chain, received)
        except VerificationError:
            pass
