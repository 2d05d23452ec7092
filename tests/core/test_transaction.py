"""Tests for Typecoin transaction structure, hashing, and payloads."""

import dataclasses

import pytest

from repro.core.builder import basis_publication, simple_transfer
from repro.core.transaction import (
    TxnError,
    TypecoinInput,
    TypecoinOutput,
    TypecoinTransaction,
    referenced_txids,
    trivial_output,
)
from repro.core.wire import decode_transaction
from repro.crypto.hashing import sha256d
from repro.lf.basis import Basis, KindDecl
from repro.lf.syntax import KIND_PROP, ConstRef, THIS, TConst
from repro.logic.propositions import Atom, One, Receipt
from repro.lf.walk import convertible
from repro.logic.proofterms import OneIntro

from tests.oracles import rebuilt

PUBKEY = b"\x02" + b"\x33" * 32


class TestStructure:
    def test_input_validation(self):
        with pytest.raises(TxnError, match="32 bytes"):
            TypecoinInput(b"\x01" * 31, 0, One(), 0)
        with pytest.raises(TxnError, match="non-negative"):
            TypecoinInput(b"\x01" * 32, -1, One(), 0)
        with pytest.raises(TxnError, match="non-negative"):
            TypecoinInput(b"\x01" * 32, 0, One(), -5)

    def test_output_validation(self):
        with pytest.raises(TxnError, match="33-byte"):
            TypecoinOutput(One(), 600, b"\x02" * 10)
        with pytest.raises(TxnError, match="non-negative"):
            TypecoinOutput(One(), -1, PUBKEY)

    def test_at_least_one_output(self):
        with pytest.raises(TxnError, match="at least one output"):
            TypecoinTransaction(Basis(), One(), [], [], OneIntro())

    def test_output_principal_is_key_hash(self):
        from repro.crypto.hashing import hash160

        out = TypecoinOutput(One(), 600, PUBKEY)
        assert out.principal == hash160(PUBKEY)
        assert out.principal_term.key_hash == out.principal

    def test_receipt_matches_output(self):
        out = TypecoinOutput(One(), 450, PUBKEY)
        receipt = out.receipt()
        assert isinstance(receipt, Receipt)
        assert receipt.amount == 450
        assert receipt.recipient == out.principal_term

    def test_trivial_output(self):
        out = trivial_output(PUBKEY, 1234)
        assert convertible(out.prop, One())


class TestHashing:
    def test_hash_covers_proof(self):
        """The *full* transaction, proof included, is hashed (§3)."""
        base = simple_transfer([], [TypecoinOutput(One(), 600, PUBKEY)])
        other = dataclasses.replace(base, proof=OneIntro())
        assert base.hash != other.hash

    def test_payload_excludes_proof(self):
        """Affine asserts sign everything *except* the proof (fn. 7)."""
        base = simple_transfer([], [TypecoinOutput(One(), 600, PUBKEY)])
        other = dataclasses.replace(base, proof=OneIntro())
        assert base.signing_payload() == other.signing_payload()

    def test_payload_covers_outputs(self):
        a = simple_transfer([], [TypecoinOutput(One(), 600, PUBKEY)])
        b = simple_transfer([], [TypecoinOutput(One(), 601, PUBKEY)])
        assert a.signing_payload() != b.signing_payload()

    def test_payload_covers_basis(self):
        basis = Basis()
        basis.declare_local("p", KindDecl(KIND_PROP))
        a = basis_publication(Basis(), PUBKEY)
        b = basis_publication(basis, PUBKEY)
        assert a.signing_payload() != b.signing_payload()

    def test_hash_deterministic(self):
        a = simple_transfer([], [TypecoinOutput(One(), 600, PUBKEY)])
        b = simple_transfer([], [TypecoinOutput(One(), 600, PUBKEY)])
        assert a.hash == b.hash


class TestEncodingMemo:
    """The payload, the encoding and the hash are computed once per
    transaction, so nothing reachable from outside may change under them."""

    def test_a_transaction_owns_its_basis(self):
        basis = Basis()
        basis.declare_local("p", KindDecl(KIND_PROP))
        txn = basis_publication(basis, PUBKEY)
        pinned = (txn.hash, txn.signing_payload(), txn.serialize())
        # The caller goes on declaring into the Basis it handed over.
        basis.declare_local("q", KindDecl(KIND_PROP))
        assert len(txn.basis) == 1 and txn.basis is not basis
        assert (txn.hash, txn.signing_payload(), txn.serialize()) == pinned
        fresh = dataclasses.replace(txn)
        assert fresh.signing_payload() == pinned[1]
        assert fresh.serialize() == pinned[2]
        assert sha256d(fresh.serialize()) == txn.hash
        assert rebuilt(decode_transaction(txn.serialize())).hash == txn.hash

    def test_each_is_built_once_and_the_encoding_extends_the_payload(self):
        txn = simple_transfer([], [TypecoinOutput(One(), 600, PUBKEY)])
        assert txn.serialize() is txn.serialize()
        assert txn.signing_payload() is txn.signing_payload()
        assert txn.serialize().startswith(txn.signing_payload())
        assert txn.hash == sha256d(txn.serialize())

    def test_the_memo_is_not_part_of_the_value(self):
        a = simple_transfer([], [TypecoinOutput(One(), 600, PUBKEY)])
        b = dataclasses.replace(a)
        a.serialize(), a.hash
        assert a == b and repr(a) == repr(b)
        assert [f.name for f in dataclasses.fields(a)] == [
            "basis", "grant", "inputs", "outputs", "proof"
        ]


class TestResolution:
    def test_output_prop_resolved(self):
        basis = Basis()
        ref = basis.declare_local("flag", KindDecl(KIND_PROP))
        txn = simple_transfer(
            [], [TypecoinOutput(Atom(TConst(ref)), 600, PUBKEY)], basis=basis
        )
        txid = b"\x0f" * 32
        resolved = txn.output_prop_resolved(0, txid)
        assert convertible(resolved, Atom(TConst(ConstRef(txid, "flag"))))

    def test_bad_output_index(self):
        txn = simple_transfer([], [TypecoinOutput(One(), 600, PUBKEY)])
        with pytest.raises(TxnError):
            txn.output_prop_resolved(5, b"\x00" * 32)


class TestReferences:
    def test_input_txids_referenced(self):
        txid = b"\x0d" * 32
        txn = simple_transfer(
            [TypecoinInput(txid, 0, One(), 600)],
            [TypecoinOutput(One(), 600, PUBKEY)],
        )
        assert txid in referenced_txids(txn)

    def test_constant_namespaces_referenced(self):
        basis_txid = b"\x0e" * 32
        prop = Atom(TConst(ConstRef(basis_txid, "flag")))
        txn = simple_transfer([], [TypecoinOutput(prop, 600, PUBKEY)])
        assert basis_txid in referenced_txids(txn)

    def test_local_and_builtin_not_referenced(self):
        basis = Basis()
        basis.declare_local("p", KindDecl(KIND_PROP))
        txn = basis_publication(basis, PUBKEY)
        assert referenced_txids(txn) == frozenset()
