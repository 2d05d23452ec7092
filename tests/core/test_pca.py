"""Tests for proof-carrying authorization: the homework protocol (§1–2)."""

import pytest

from repro.bitcoin.transaction import OutPoint
from repro.core.builder import basis_publication, build_with_payload, simple_transfer
from repro.core.pca import (
    AuthVocabulary,
    FileServer,
    FileServerError,
    authorization_basis,
)
from repro.core.proofs import obligation_lambda, tensor_intro_all
from repro.core.transaction import TypecoinOutput
from repro.core.verifier import ClaimBundle
from repro.lf.basis import Basis
from repro.lf.syntax import Const, NatLit
from repro.logic.proofterms import ForallElim, LolliElim, PConst
from repro.logic.propositions import One, Says


@pytest.fixture
def published(net, alice):
    """Alice (the resource owner) publishes the authorization basis."""
    basis, vocab = authorization_basis(
        alice.principal_term, ["homework", "notes"]
    )
    txn = basis_publication(basis, alice.pubkey)
    carrier = alice.submit(txn)
    net.confirm(1)
    alice.sync()
    return vocab.resolved(carrier.txid), carrier.txid, txn


def grant_credential(net, alice, bob, vocab, filename="homework"):
    """Alice issues ⟨Alice⟩may_write(Bob, filename) as an affine resource."""
    cred = Says(
        alice.principal_term, vocab.may_write_prop(bob.principal_term, filename)
    )
    out = TypecoinOutput(cred, 600, bob.pubkey)
    txn = build_with_payload(
        Basis(), One(), [], [out],
        lambda payload: obligation_lambda(
            One(), [], [out.receipt()],
            lambda _c, _i, _r: tensor_intro_all([
                alice.affirm_affine(
                    vocab.may_write_prop(bob.principal_term, filename), payload
                )
            ]),
        ),
    )
    carrier = alice.submit(txn)
    net.confirm(1)
    alice.sync()
    bob.known[carrier.txid] = txn
    return OutPoint(carrier.txid, 0), cred


def infuse_nonce(net, bob, vocab, cred_outpoint, nonce, filename="homework"):
    """Bob converts his credential to may_write_this(Bob, file, nonce)."""
    inp = bob.input_for(cred_outpoint)
    target = vocab.may_write_this_prop(bob.principal_term, filename, nonce)
    out = TypecoinOutput(target, 600, bob.pubkey)
    txn = simple_transfer(
        [inp], [out],
        body=lambda ins: LolliElim(
            ForallElim(
                ForallElim(
                    ForallElim(PConst(vocab.use_write), bob.principal_term),
                    vocab.file_term(filename),
                ),
                NatLit(nonce),
            ),
            ins[0],
        ),
    )
    carrier = bob.submit(txn)
    net.confirm(1)
    bob.sync()
    return OutPoint(carrier.txid, 0), target


class TestHomeworkProtocol:
    def test_full_write_flow(self, net, alice, bob, published):
        vocab, basis_txid, basis_txn = published
        server = FileServer(chain=net.chain, vocab=vocab)
        cred_outpoint, cred = grant_credential(net, alice, bob, vocab)

        nonce = server.request_write(bob.principal, "homework")
        out_outpoint, target = infuse_nonce(net, bob, vocab, cred_outpoint, nonce)

        bundle = bob.claim_bundle(out_outpoint, target)
        server.complete_write(nonce, bundle, b"my homework text")
        assert server.contents["homework"] == b"my homework text"

    def test_nonce_single_use(self, net, alice, bob, published):
        vocab, _, _ = published
        server = FileServer(chain=net.chain, vocab=vocab)
        cred_outpoint, _ = grant_credential(net, alice, bob, vocab)
        nonce = server.request_write(bob.principal, "homework")
        out_outpoint, target = infuse_nonce(net, bob, vocab, cred_outpoint, nonce)
        bundle = bob.claim_bundle(out_outpoint, target)
        server.complete_write(nonce, bundle, b"v1")
        with pytest.raises(FileServerError, match="nonce"):
            server.complete_write(nonce, bundle, b"v2")

    def test_credential_single_use(self, net, alice, bob, published):
        """The affine point: one credential backs exactly one write."""
        vocab, _, _ = published
        server = FileServer(chain=net.chain, vocab=vocab)
        cred_outpoint, _ = grant_credential(net, alice, bob, vocab)
        nonce1 = server.request_write(bob.principal, "homework")
        infuse_nonce(net, bob, vocab, cred_outpoint, nonce1)
        # The credential txout is now spent; a second conversion must fail.
        nonce2 = server.request_write(bob.principal, "homework")
        with pytest.raises(Exception):
            infuse_nonce(net, bob, vocab, cred_outpoint, nonce2)

    def test_wrong_principal_claim_refused(self, net, alice, bob, published):
        vocab, _, _ = published
        server = FileServer(chain=net.chain, vocab=vocab)
        cred_outpoint, _ = grant_credential(net, alice, bob, vocab)
        nonce = server.request_write(alice.principal, "homework")  # Alice's ticket
        out_outpoint, target = infuse_nonce(net, bob, vocab, cred_outpoint, nonce)
        bundle = bob.claim_bundle(out_outpoint, target)
        with pytest.raises(FileServerError, match="does not match"):
            server.complete_write(nonce, bundle, b"oops")

    def test_unknown_nonce_refused(self, net, alice, bob, published):
        vocab, _, _ = published
        server = FileServer(chain=net.chain, vocab=vocab)
        bundle = ClaimBundle(OutPoint(b"\x01" * 32, 0), vocab.may_write_prop(bob.principal_term, "homework"))
        with pytest.raises(FileServerError, match="unknown"):
            server.complete_write(123, bundle, b"data")

    def test_unknown_file_refused(self, net, alice, bob, published):
        vocab, _, _ = published
        server = FileServer(chain=net.chain, vocab=vocab)
        with pytest.raises(FileServerError, match="no such file"):
            server.request_write(bob.principal, "passwords")

    def test_credential_worthless_to_others(self, net, alice, bob, published):
        """may_write(Bob, x) is worthless to anyone but Bob (§2): Charlie
        cannot build may_write_this(Charlie, …) from it."""
        vocab, _, _ = published
        charlie_principal = alice.principal_term  # stand-in third party
        cred_outpoint, _ = grant_credential(net, alice, bob, vocab)
        inp = bob.input_for(cred_outpoint)
        target = vocab.may_write_this_prop(charlie_principal, "homework", 7)
        out = TypecoinOutput(target, 600, bob.pubkey)
        txn = simple_transfer(
            [inp], [out],
            body=lambda ins: LolliElim(
                ForallElim(
                    ForallElim(
                        ForallElim(PConst(vocab.use_write), charlie_principal),
                        vocab.file_term("homework"),
                    ),
                    NatLit(7),
                ),
                ins[0],
            ),
        )
        from repro.core.wallet import ClientError

        with pytest.raises(ClientError):
            bob.submit(txn)
