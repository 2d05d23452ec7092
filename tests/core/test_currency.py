"""Tests for the §6 newcoin currency, up to the Figure 3 purchase."""

import pytest

from repro.bitcoin.transaction import OutPoint
from repro.core.builder import build_with_payload, simple_transfer
from repro.core.currency import (
    banker_offer_prop,
    confirm_banker_proof,
    figure3_proof,
    fixed_supply_grant,
    issue_proof,
    merge_proof,
    newcoin_basis,
    plus_evidence_proof,
    printing_press_grant,
    split_proof,
    whimsical_press_grant,
)
from repro.core.proofs import obligation_lambda, tensor_intro_all
from repro.core.transaction import TypecoinOutput, TypecoinTransaction, trivial_output
from repro.core.validate import ValidationFailure, check_typecoin_transaction, world_at
from repro.core.wallet import ClientError
from repro.lf.basis import Basis
from repro.lf.syntax import NatLit, Var
from repro.logic.checker import CheckerContext, check_proof
from repro.logic.conditions import CAnd, CNot, Before, Spent
from repro.logic.freshness import prop_fresh
from repro.logic.proofterms import (
    ForallElim,
    IfBind,
    IfReturn,
    LolliElim,
    OneIntro,
    PConst,
    PVar,
    TensorIntro,
    let_,
)
from repro.logic.propositions import IfProp, One, Says, Tensor
from repro.lf.walk import convertible

from tests.core.conftest import publish_newcoin


class TestBasisPublication:
    def test_publish_and_resolve(self, net, bank):
        vocab, txid, _ = publish_newcoin(net, bank)
        assert vocab.coin.space == txid
        entry = bank.ledger.output(txid, 0)
        assert entry is not None
        assert convertible(entry.prop, One())

    def test_grants_are_fresh(self, net, bank):
        basis, vocab = newcoin_basis(bank.principal_term, bank.principal_term)
        assert prop_fresh(printing_press_grant(vocab))
        assert prop_fresh(whimsical_press_grant(vocab))
        assert prop_fresh(fixed_supply_grant(vocab, 10**9))

    def test_printing_press_grant_banked(self, net, bank):
        vocab, txid, _ = publish_newcoin(net, bank, grant=printing_press_grant)
        entry = bank.ledger.output(txid, 0)
        assert "∀" in str(entry.prop) or "forall" in str(entry.prop).lower()


class TestIssueSplitMerge:
    def issue_coins(self, net, bank, vocab, amount):
        """Issue ``amount`` newcoins by affine print affirmation (§6)."""
        out = TypecoinOutput(vocab.coin_prop(amount), 600, bank.pubkey)
        txn = build_with_payload(
            Basis(), One(), [], [out],
            lambda payload: obligation_lambda(
                One(), [], [out.receipt()],
                lambda _c, _i, _r: tensor_intro_all([
                    issue_proof(
                        vocab, amount,
                        bank.affirm_affine(vocab.print_prop(amount), payload),
                    )
                ]),
            ),
        )
        carrier = bank.submit(txn)
        net.confirm(1)
        bank.sync()
        return carrier.txid

    def test_issue_via_affirmation(self, net, bank):
        vocab, _, _ = publish_newcoin(net, bank)
        txid = self.issue_coins(net, bank, vocab, 100)
        entry = bank.ledger.output(txid, 0)
        assert convertible(entry.prop, vocab.coin_prop(100))

    def test_forged_print_rejected(self, net, bank, alice):
        """Only the bank's affirmation can trigger issue."""
        vocab, _, _ = publish_newcoin(net, bank)
        out = TypecoinOutput(vocab.coin_prop(100), 600, alice.pubkey)
        txn = build_with_payload(
            Basis(), One(), [], [out],
            lambda payload: obligation_lambda(
                One(), [], [out.receipt()],
                lambda _c, _i, _r: tensor_intro_all([
                    issue_proof(
                        vocab, 100,
                        # Alice affirms print, but the rule wants the bank.
                        alice.affirm_affine(vocab.print_prop(100), payload),
                    )
                ]),
            ),
        )
        with pytest.raises(ClientError, match="refusing"):
            alice.submit(txn)

    def test_split_coins(self, net, bank):
        vocab, _, _ = publish_newcoin(net, bank)
        whole_txid = self.issue_coins(net, bank, vocab, 100)
        inp = bank.input_for(OutPoint(whole_txid, 0))
        outs = [
            TypecoinOutput(vocab.coin_prop(30), 600, bank.pubkey),
            TypecoinOutput(vocab.coin_prop(70), 600, bank.pubkey),
        ]
        txn = simple_transfer(
            [inp], outs,
            body=lambda ins: split_proof(vocab, 30, 70, ins[0]),
        )
        carrier = bank.submit(txn)
        net.confirm(1)
        bank.sync()
        assert convertible(
            bank.ledger.output(carrier.txid, 0).prop, vocab.coin_prop(30)
        )
        assert convertible(
            bank.ledger.output(carrier.txid, 1).prop, vocab.coin_prop(70)
        )

    def test_merge_coins(self, net, bank):
        vocab, _, _ = publish_newcoin(net, bank)
        a = self.issue_coins(net, bank, vocab, 40)
        b = self.issue_coins(net, bank, vocab, 2)
        inputs = [
            bank.input_for(OutPoint(a, 0)),
            bank.input_for(OutPoint(b, 0)),
        ]
        out = TypecoinOutput(vocab.coin_prop(42), 1200, bank.pubkey)
        txn = simple_transfer(
            inputs, [out],
            body=lambda ins: merge_proof(vocab, 40, 2, ins[0], ins[1]),
        )
        carrier = bank.submit(txn)
        net.confirm(1)
        bank.sync()
        assert convertible(
            bank.ledger.output(carrier.txid, 0).prop, vocab.coin_prop(42)
        )

    def test_wrong_sum_rejected(self, net, bank):
        """split 100 into 30+71 fails: plus 30 71 100 is uninhabited."""
        vocab, _, _ = publish_newcoin(net, bank)
        whole_txid = self.issue_coins(net, bank, vocab, 100)
        inp = bank.input_for(OutPoint(whole_txid, 0))
        outs = [
            TypecoinOutput(vocab.coin_prop(30), 600, bank.pubkey),
            TypecoinOutput(vocab.coin_prop(71), 600, bank.pubkey),
        ]

        def bad_body(ins):
            rule = ForallElim(
                ForallElim(
                    ForallElim(PConst(vocab.split), NatLit(30)), NatLit(71)
                ),
                NatLit(100),
            )
            return LolliElim(LolliElim(rule, plus_evidence_proof(30, 71)), ins[0])

        txn = simple_transfer([inp], outs, body=bad_body)
        with pytest.raises(ClientError):
            bank.submit(txn)

    def test_fixed_supply_cannot_be_exceeded(self, net, bank):
        """With a fixed-supply grant there is no way to mint extra coins
        without a bank print affirmation."""
        vocab, txid, _ = publish_newcoin(
            net, bank, grant=lambda v: fixed_supply_grant(v, 1000)
        )
        # Transfer the whole supply out of the grant output.
        inp = bank.input_for(OutPoint(txid, 0))
        out = TypecoinOutput(vocab.coin_prop(1000), 600, bank.pubkey)
        txn = simple_transfer([inp], [out])
        carrier = bank.submit(txn)
        net.confirm(1)
        bank.sync()
        assert convertible(
            bank.ledger.output(carrier.txid, 0).prop, vocab.coin_prop(1000)
        )


class TestFigure3:
    def setup_offer(self, net, bank, alice):
        """Publish the basis, appoint the bank as banker, publish the offer."""
        vocab, basis_txid, _ = publish_newcoin(net, bank)
        term_end = 2_000_000_000
        n_btc = 50_000
        n_newcoins = 25

        # The banker keeps a revocation txout R under its control.
        from repro.bitcoin.standard import p2pkh_script
        from repro.bitcoin.transaction import TxOut

        revocation_tx = bank.wallet.create_transaction(
            net.chain, [TxOut(1000, p2pkh_script(bank.wallet.key_hash))], fee=1000
        )
        net.send(revocation_tx)
        net.confirm(1)
        revocation = Spent(revocation_tx.txid, 0)

        offer = banker_offer_prop(
            vocab, bank.principal_term, n_btc, n_newcoins, revocation
        )
        # The banker "publish[es] a signature of this proposition".
        order = bank.affirm_persistent(offer)
        # The president (the bank here) appoints the banker persistently.
        appointment = bank.affirm_persistent(
            vocab.appoint_prop(bank.principal_term, term_end)
        )
        return vocab, term_end, n_btc, n_newcoins, revocation, order, appointment, revocation_tx

    def purchase_txn(self, vocab, bank, alice, term_end, n_btc, n_newcoins,
                     revocation, order, appointment):
        coin_out = TypecoinOutput(vocab.coin_prop(n_newcoins), 600, alice.pubkey)
        payment_out = trivial_output(bank.pubkey, n_btc)
        condition = CAnd(CNot(revocation), Before(NatLit(term_end)))

        banker_cred = confirm_banker_proof(
            vocab, bank.principal_term, term_end, appointment
        )

        def body(_c, _ins, receipts):
            fig3 = figure3_proof(
                vocab,
                bank.principal_term,
                term_end,
                n_newcoins,
                revocation,
                receipt_var="rcpt",
                order_var="ordr",
                banker_cred_var="bnkr",
            )
            core = let_(
                "ordr", Says(bank.principal_term, order.prop), order,
                let_(
                    "bnkr",
                    vocab.is_banker_prop(bank.principal_term, term_end),
                    banker_cred,
                    let_(
                        "rcpt",
                        payment_out.receipt(),
                        receipts[1],
                        fig3,
                    ),
                ),
            )
            # B = coin ⊗ 1; re-wrap the conditional around the full tensor.
            return IfBind(
                "w", core,
                IfReturn(condition, TensorIntro(PVar("w"), OneIntro())),
            )

        proof = obligation_lambda(
            One(), [], [coin_out.receipt(), payment_out.receipt()], body
        )
        return TypecoinTransaction(
            Basis(), One(), [], [coin_out, payment_out], proof
        )

    def test_purchase_succeeds(self, net, bank, alice):
        (vocab, term_end, n_btc, n_newcoins, revocation, order, appointment,
         _rtx) = self.setup_offer(net, bank, alice)
        txn = self.purchase_txn(
            vocab, bank, alice, term_end, n_btc, n_newcoins, revocation,
            order, appointment,
        )
        carrier = alice.submit(txn)
        net.confirm(1)
        alice.sync()
        entry = alice.ledger.output(carrier.txid, 0)
        assert convertible(entry.prop, vocab.coin_prop(n_newcoins))
        # The payment really went to the bank at the Bitcoin level.
        assert carrier.vout[1].value == n_btc

    def test_purchase_fails_after_revocation(self, net, bank, alice):
        """§5: "Alice can revoke the offer at any time ... simply by
        spending I." """
        (vocab, term_end, n_btc, n_newcoins, revocation, order, appointment,
         revocation_tx) = self.setup_offer(net, bank, alice)

        # The banker revokes: spends R.
        from repro.bitcoin.standard import p2pkh_script
        from repro.bitcoin.transaction import TxOut
        from repro.bitcoin.wallet import Spendable

        entry = net.chain.utxos.get(OutPoint(revocation_tx.txid, 0))
        spend = bank.wallet.create_transaction(
            net.chain,
            [TxOut(600, p2pkh_script(bank.wallet.key_hash))],
            fee=400,
            extra_inputs=[
                Spendable(
                    OutPoint(revocation_tx.txid, 0), entry.output,
                    entry.height, entry.is_coinbase,
                )
            ],
        )
        net.send(spend)
        net.confirm(1)

        txn = self.purchase_txn(
            vocab, bank, alice, term_end, n_btc, n_newcoins, revocation,
            order, appointment,
        )
        with pytest.raises(ClientError, match="does not hold"):
            alice.submit(txn)

    def test_purchase_fails_after_term_expires(self, net, bank, alice):
        (vocab, term_end, n_btc, n_newcoins, revocation, order, appointment,
         _rtx) = self.setup_offer(net, bank, alice)
        # An expired term: rebuild the offer against a past deadline.
        past = 1  # genesis timestamp is ~10^9
        expired_appointment = bank.affirm_persistent(
            vocab.appoint_prop(bank.principal_term, past)
        )
        txn = self.purchase_txn(
            vocab, bank, alice, past, n_btc, n_newcoins, revocation,
            order, expired_appointment,
        )
        with pytest.raises(ClientError, match="does not hold"):
            alice.submit(txn)

    def test_figure3_proof_type(self, net, bank, alice):
        """The Figure 3 term, checked in isolation, has exactly the type
        if(¬spent(R) ∧ before(T), coin N)."""
        (vocab, term_end, n_btc, n_newcoins, revocation, order, appointment,
         _rtx) = self.setup_offer(net, bank, alice)
        payment = trivial_output(bank.pubkey, n_btc)
        ctx = CheckerContext(basis=bank.ledger.global_basis)
        ctx = ctx.with_persistent("ordr", Says(bank.principal_term, order.prop))
        ctx = ctx.with_affine(
            "bnkr", vocab.is_banker_prop(bank.principal_term, term_end)
        )
        ctx = ctx.with_affine("rcpt", payment.receipt())
        fig3 = figure3_proof(
            vocab, bank.principal_term, term_end, n_newcoins, revocation,
            receipt_var="rcpt", order_var="ordr", banker_cred_var="bnkr",
        )
        # Bind the persistent order as an actual proof first.
        from repro.logic.checker import infer

        proved, used = infer(
            ctx,
            let_("ordr2", Says(bank.principal_term, order.prop), order, fig3)
            if False
            else fig3,
        )
        expected = IfProp(
            CAnd(CNot(revocation), Before(NatLit(term_end))),
            vocab.coin_prop(n_newcoins),
        )
        assert convertible(proved, expected)
        assert used == {"bnkr", "rcpt"}
