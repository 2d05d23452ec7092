"""Integration tests for the paper's contract idioms.

Covers the ACM coupon-for-access offer with receipts (§4 "Receipts"), the
external-choice credential (§2), and transferable ∀K credentials (§2) —
the idioms the paper uses to motivate each connective.
"""

import pytest

from repro.bitcoin.transaction import OutPoint
from repro.core.builder import (
    basis_publication,
    build_with_payload,
    simple_transfer,
)
from repro.core.proofs import obligation_lambda, tensor_intro_all
from repro.core.transaction import TypecoinOutput, TypecoinTransaction
from repro.core.wallet import ClientError, TypecoinClient
from repro.lf.basis import Basis, KindDecl, NAT_T, PRINCIPAL_T, TypeDecl
from repro.lf.syntax import (
    Const,
    ConstRef,
    KIND_PROP,
    KIND_TYPE,
    KPi,
    TConst,
    Var,
    apply_family,
)
from repro.logic.proofterms import (
    ForallElim,
    ForallIntro,
    LolliElim,
    OneIntro,
    PVar,
    SayBind,
    SayReturn,
    TensorIntro,
    WithFst,
    WithIntro,
    WithSnd,
)
from repro.logic.propositions import (
    Atom,
    Forall,
    Lolli,
    One,
    Receipt,
    Says,
    With,
)
from repro.lf.walk import convertible


@pytest.fixture
def acm(net, ledger):
    client = TypecoinClient(net, b"contracts-acm", ledger)
    net.fund_wallet(client.wallet)
    return client


def publish_journal_basis(net, acm):
    """journal type with TOPLAS/TOCL, coupon : prop, may_read, and the
    §4 offer: !⟨ACM⟩(receipt(coupon ↠ ACM) ⊸ ∀K. may_read(K, TOPLAS))."""
    basis = Basis()
    journal = basis.declare_local("journal", KindDecl(KIND_TYPE))
    toplas = basis.declare_local("TOPLAS", TypeDecl(TConst(journal)))
    tocl = basis.declare_local("TOCL", TypeDecl(TConst(journal)))
    coupon = basis.declare_local("coupon", KindDecl(KIND_PROP))
    may_read = basis.declare_local(
        "may_read",
        KindDecl(KPi("k", PRINCIPAL_T, KPi("j", TConst(journal), KIND_PROP))),
    )
    publication = basis_publication(basis, acm.pubkey)
    carrier = acm.submit(publication)
    net.confirm(1)
    acm.sync()
    txid = carrier.txid
    refs = {
        name: ConstRef(txid, name)
        for name in ("journal", "TOPLAS", "TOCL", "coupon", "may_read")
    }
    return refs, txid, publication


def may_read(refs, who, journal_name):
    return Atom(
        apply_family(TConst(refs["may_read"]), who, Const(refs[journal_name]))
    )


class TestReceiptOffer:
    """§4: "By demanding a receipt, a principal requires that the
    corresponding payment is made." """

    def test_coupon_for_access(self, net, ledger, acm, alice):
        refs, basis_txid, publication = publish_journal_basis(net, acm)
        coupon_prop = Says(acm.principal_term, Atom(TConst(refs["coupon"])))

        # ACM issues the coupon to Alice (as ⟨ACM⟩coupon).
        out = TypecoinOutput(coupon_prop, 600, alice.pubkey)
        issue = build_with_payload(
            Basis(), One(), [], [out],
            lambda payload: obligation_lambda(
                One(), [], [out.receipt()],
                lambda _c, _i, _r: tensor_intro_all([
                    acm.affirm_affine(Atom(TConst(refs["coupon"])), payload)
                ]),
            ),
        )
        issue_carrier = acm.submit(issue)
        net.confirm(1)
        acm.sync()
        alice.known[issue_carrier.txid] = issue
        alice.known[basis_txid] = publication

        # The §4 offer, published persistently by ACM: the receipt demands
        # the coupon be *sent back to ACM*, not destroyed.
        access = Forall(
            "K", PRINCIPAL_T, may_read(refs, Var("K"), "TOPLAS")
        )
        offer = Lolli(Receipt(coupon_prop, 600, acm.principal_term), access)
        signed_offer = acm.affirm_persistent(offer)

        # Alice redeems: one transaction sends the coupon to ACM (output 1,
        # generating the receipt) and mints her access (output 0).
        access_out = TypecoinOutput(
            may_read(refs, alice.principal_term, "TOPLAS"), 600, alice.pubkey
        )
        coupon_back = TypecoinOutput(coupon_prop, 600, acm.pubkey)
        inp = alice.input_for(OutPoint(issue_carrier.txid, 0))

        def body(_c, ins, receipts):
            # saybind unwraps ⟨ACM⟩offer, applies it to the receipt, and
            # instantiates ∀K with Alice — all under ACM's affirmation…
            use_offer = SayBind(
                "f",
                signed_offer,
                SayReturn(
                    acm.principal_term,
                    ForallElim(
                        LolliElim(PVar("f"), receipts[1]),
                        alice.principal_term,
                    ),
                ),
            )
            # …but may_read is only useful bare; ACM's rule should really
            # conclude a bare proposition.  Keep the affirmation: the file
            # server demands ⟨ACM⟩may_read anyway.
            return TensorIntro(use_offer, ins[0])

        access_out = TypecoinOutput(
            Says(
                acm.principal_term,
                may_read(refs, alice.principal_term, "TOPLAS"),
            ),
            600,
            alice.pubkey,
        )
        txn = TypecoinTransaction(
            Basis(), One(), [inp], [access_out, coupon_back],
            obligation_lambda(
                One(), [inp.prop],
                [access_out.receipt(), coupon_back.receipt()],
                body,
            ),
        )
        carrier = alice.submit(txn)
        net.confirm(1)
        alice.sync()
        # Alice has access; ACM has its coupon back, intact.
        assert convertible(
            ledger.output(carrier.txid, 0).prop,
            Says(acm.principal_term,
                 may_read(refs, alice.principal_term, "TOPLAS")),
        )
        assert convertible(ledger.output(carrier.txid, 1).prop, coupon_prop)
        assert ledger.output(carrier.txid, 1).principal == acm.principal

    def test_redeeming_without_paying_fails(self, net, ledger, acm, alice):
        """Dropping the coupon-return output invalidates the receipt."""
        refs, basis_txid, publication = publish_journal_basis(net, acm)
        coupon_prop = Says(acm.principal_term, Atom(TConst(refs["coupon"])))
        access = Forall("K", PRINCIPAL_T, may_read(refs, Var("K"), "TOPLAS"))
        offer = Lolli(Receipt(coupon_prop, 600, acm.principal_term), access)
        signed_offer = acm.affirm_persistent(offer)

        access_out = TypecoinOutput(
            Says(
                acm.principal_term,
                may_read(refs, alice.principal_term, "TOPLAS"),
            ),
            600,
            alice.pubkey,
        )

        def body(_c, _ins, receipts):
            # Only the access receipt exists; the offer's receipt demand
            # cannot be met.
            return SayBind(
                "f", signed_offer,
                SayReturn(
                    acm.principal_term,
                    ForallElim(
                        LolliElim(PVar("f"), receipts[0]),
                        alice.principal_term,
                    ),
                ),
            )

        txn = TypecoinTransaction(
            Basis(), One(), [], [access_out],
            obligation_lambda(One(), [], [access_out.receipt()], body),
        )
        with pytest.raises(ClientError):
            alice.submit(txn)


class TestExternalChoice:
    """§2: ⟨ACM⟩∀K.(may_read(K,TOPLAS) & may_read(K,TOCL)) — "external
    choice allows the resource's holder to choose"."""

    def issue_choice(self, net, acm, refs, recipient):
        choice = Says(
            acm.principal_term,
            Forall(
                "K", PRINCIPAL_T,
                With(
                    may_read(refs, Var("K"), "TOPLAS"),
                    may_read(refs, Var("K"), "TOCL"),
                ),
            ),
        )
        out = TypecoinOutput(choice, 600, recipient.pubkey)
        inner = Forall(
            "K", PRINCIPAL_T,
            With(
                may_read(refs, Var("K"), "TOPLAS"),
                may_read(refs, Var("K"), "TOCL"),
            ),
        )
        txn = build_with_payload(
            Basis(), One(), [], [out],
            lambda payload: obligation_lambda(
                One(), [], [out.receipt()],
                lambda _c, _i, _r: tensor_intro_all([
                    acm.affirm_affine(inner, payload)
                ]),
            ),
        )
        return txn, choice

    def test_holder_picks_one_side(self, net, ledger, acm, alice):
        refs, basis_txid, publication = publish_journal_basis(net, acm)
        alice.known[basis_txid] = publication
        txn, choice = self.issue_choice(net, acm, refs, alice)
        carrier = acm.submit(txn)
        net.confirm(1)
        acm.sync()
        alice.known[carrier.txid] = txn

        # Alice chooses TOCL, instantiating K with herself.
        chosen = Says(
            acm.principal_term, may_read(refs, alice.principal_term, "TOCL")
        )
        out = TypecoinOutput(chosen, 600, alice.pubkey)
        spend = simple_transfer(
            [alice.input_for(OutPoint(carrier.txid, 0))],
            [out],
            body=lambda ins: SayBind(
                "w", ins[0],
                SayReturn(
                    acm.principal_term,
                    WithSnd(ForallElim(PVar("w"), alice.principal_term)),
                ),
            ),
        )
        spend_carrier = alice.submit(spend)
        net.confirm(1)
        alice.sync()
        assert convertible(ledger.output(spend_carrier.txid, 0).prop, chosen)

    def test_holder_cannot_take_both(self, net, ledger, acm, alice):
        """& is not ⊗: projecting both sides double-uses the resource."""
        refs, basis_txid, publication = publish_journal_basis(net, acm)
        alice.known[basis_txid] = publication
        txn, choice = self.issue_choice(net, acm, refs, alice)
        carrier = acm.submit(txn)
        net.confirm(1)
        acm.sync()
        alice.known[carrier.txid] = txn

        both = TypecoinOutput(
            Says(
                acm.principal_term,
                may_read(refs, alice.principal_term, "TOPLAS"),
            ),
            600, alice.pubkey,
        )
        both2 = TypecoinOutput(
            Says(
                acm.principal_term,
                may_read(refs, alice.principal_term, "TOCL"),
            ),
            600, alice.pubkey,
        )
        greedy = simple_transfer(
            [alice.input_for(OutPoint(carrier.txid, 0))],
            [both, both2],
            body=lambda ins: TensorIntro(
                SayBind(
                    "w", ins[0],
                    SayReturn(
                        acm.principal_term,
                        WithFst(ForallElim(PVar("w"), alice.principal_term)),
                    ),
                ),
                SayBind(
                    "w2", ins[0],
                    SayReturn(
                        acm.principal_term,
                        WithSnd(ForallElim(PVar("w2"), alice.principal_term)),
                    ),
                ),
            ),
        )
        with pytest.raises(ClientError, match="more than once"):
            alice.submit(greedy)


class TestTransferableCredential:
    """§2: "The holder of such a credential could exercise it by
    instantiating K with himself, or he could transfer it to someone
    else." """

    def test_transfer_then_instantiate(self, net, ledger, acm, alice, bob):
        refs, basis_txid, publication = publish_journal_basis(net, acm)
        for client in (alice, bob):
            client.known[basis_txid] = publication
        anyone = Says(
            acm.principal_term,
            Forall("K", PRINCIPAL_T, may_read(refs, Var("K"), "TOPLAS")),
        )
        inner = Forall("K", PRINCIPAL_T, may_read(refs, Var("K"), "TOPLAS"))
        out = TypecoinOutput(anyone, 600, alice.pubkey)
        issue = build_with_payload(
            Basis(), One(), [], [out],
            lambda payload: obligation_lambda(
                One(), [], [out.receipt()],
                lambda _c, _i, _r: tensor_intro_all([
                    acm.affirm_affine(inner, payload)
                ]),
            ),
        )
        issue_carrier = acm.submit(issue)
        net.confirm(1)
        acm.sync()
        alice.known[issue_carrier.txid] = issue

        # Alice transfers the still-universal credential to Bob.
        transfer = simple_transfer(
            [alice.input_for(OutPoint(issue_carrier.txid, 0))],
            [TypecoinOutput(anyone, 600, bob.pubkey)],
        )
        transfer_carrier = alice.submit(transfer)
        net.confirm(1)
        alice.sync()
        bob.known[transfer_carrier.txid] = transfer
        bob.known[issue_carrier.txid] = issue

        # Bob instantiates K := Bob.
        mine = Says(
            acm.principal_term, may_read(refs, bob.principal_term, "TOPLAS")
        )
        claim = simple_transfer(
            [bob.input_for(OutPoint(transfer_carrier.txid, 0))],
            [TypecoinOutput(mine, 600, bob.pubkey)],
            body=lambda ins: SayBind(
                "w", ins[0],
                SayReturn(
                    acm.principal_term,
                    ForallElim(PVar("w"), bob.principal_term),
                ),
            ),
        )
        claim_carrier = bob.submit(claim)
        net.confirm(1)
        bob.sync()
        assert convertible(ledger.output(claim_carrier.txid, 0).prop, mine)
