"""Tests for the §3 upstream-set verification protocol."""

import dataclasses

import pytest

from repro.bitcoin.transaction import OutPoint
from repro.core.builder import basis_publication, simple_transfer
from repro.core.transaction import TypecoinInput, TypecoinOutput
from repro.core.validate import Ledger, resolve
from repro.core.verifier import ClaimBundle, VerificationError, verify_claim
from repro.lf.basis import Basis, KindDecl
from repro.lf.syntax import KIND_PROP, KPi, NatLit, TApp, TConst
from repro.lf.basis import NAT_T
from repro.logic.propositions import Atom, One, Tensor
from repro.lf.walk import convertible

from tests.core.conftest import publish_newcoin
from tests.core.test_batch import issue_to


class TestVerifyClaim:
    def test_valid_chain_of_two(self, net, bank, alice):
        vocab, _, _ = publish_newcoin(net, bank)
        outpoint, _ = issue_to(net, bank, vocab, 10, alice.pubkey)
        bundle = bank.claim_bundle(outpoint, vocab.coin_prop(10))
        ledger = verify_claim(net.chain, bundle)
        assert convertible(
            ledger.output(outpoint.txid, outpoint.index).prop,
            vocab.coin_prop(10),
        )

    def test_wrong_claimed_type_rejected(self, net, bank, alice):
        vocab, _, _ = publish_newcoin(net, bank)
        outpoint, _ = issue_to(net, bank, vocab, 10, alice.pubkey)
        bundle = bank.claim_bundle(outpoint, vocab.coin_prop(999))
        with pytest.raises(VerificationError, match="claimed type"):
            verify_claim(net.chain, bundle)

    def test_missing_upstream_rejected(self, net, bank, alice):
        vocab, basis_txid, _ = publish_newcoin(net, bank)
        outpoint, _ = issue_to(net, bank, vocab, 10, alice.pubkey)
        bundle = bank.claim_bundle(outpoint, vocab.coin_prop(10))
        # Drop the basis-publication transaction from the bundle.
        pruned = dict(bundle.transactions)
        del pruned[basis_txid]
        broken = ClaimBundle(bundle.outpoint, bundle.prop, pruned)
        with pytest.raises(VerificationError):
            verify_claim(net.chain, broken)

    def test_unconfirmed_carrier_rejected(self, net, bank, alice):
        vocab, _, _ = publish_newcoin(net, bank)
        # Submit but do not confirm.
        out = TypecoinOutput(One(), 600, alice.pubkey)
        txn = simple_transfer([], [out])
        carrier = alice.submit(txn)
        bundle = ClaimBundle(
            OutPoint(carrier.txid, 0), One(), {carrier.txid: txn}
        )
        with pytest.raises(VerificationError, match="not in the active chain"):
            verify_claim(net.chain, bundle)

    def test_confirmation_policy(self, net, bank, alice):
        out = TypecoinOutput(One(), 600, alice.pubkey)
        txn = simple_transfer([], [out])
        carrier = alice.submit(txn)
        net.confirm(2)
        alice.sync()
        bundle = alice.claim_bundle(OutPoint(carrier.txid, 0), One())
        verify_claim(net.chain, bundle, min_confirmations=2)
        with pytest.raises(VerificationError, match="confirmations"):
            verify_claim(net.chain, bundle, min_confirmations=6)

    def test_hash_mismatch_rejected(self, net, bank, alice):
        """Check 1: a Typecoin transaction not matching the embedded hash."""
        vocab, _, _ = publish_newcoin(net, bank)
        outpoint, txn = issue_to(net, bank, vocab, 10, alice.pubkey)
        bundle = bank.claim_bundle(outpoint, vocab.coin_prop(10))
        # Swap the issuing transaction for a doctored one (different hash).
        doctored = dataclasses.replace(
            bundle.transactions[outpoint.txid],
            outputs=(
                TypecoinOutput(vocab.coin_prop(10), 600, bank.pubkey),
            ),
        )
        tampered = dict(bundle.transactions)
        tampered[outpoint.txid] = doctored
        broken = ClaimBundle(bundle.outpoint, bundle.prop, tampered)
        with pytest.raises(VerificationError, match="hash embedding|carrier"):
            verify_claim(net.chain, broken)

    def test_spent_claim_rejected_when_required(self, net, bank, alice):
        vocab, _, _ = publish_newcoin(net, bank)
        outpoint, _ = issue_to(net, bank, vocab, 10, bank.pubkey)
        # The bank spends the output onward.
        inp = bank.input_for(outpoint)
        out = TypecoinOutput(vocab.coin_prop(10), 600, alice.pubkey)
        spend = simple_transfer([inp], [out])
        bank.submit(spend)
        net.confirm(1)
        bank.sync()
        bundle = bank.claim_bundle(outpoint, vocab.coin_prop(10))
        with pytest.raises(VerificationError, match="already been spent"):
            verify_claim(net.chain, bundle)
        # With require_unspent off it verifies (for historical audits).
        verify_claim(net.chain, bundle, require_unspent=False)

    def test_base_ledger_shortcut(self, net, bank, alice):
        """A verifier may trust prior history and verify only the delta."""
        vocab, basis_txid, _ = publish_newcoin(net, bank)
        outpoint, issue_txn = issue_to(net, bank, vocab, 10, alice.pubkey)
        bundle = ClaimBundle(
            outpoint, vocab.coin_prop(10), {outpoint.txid: issue_txn}
        )
        # Without the base ledger the basis publication is missing.
        with pytest.raises(VerificationError):
            verify_claim(net.chain, bundle)
        # Seeding with the bank's ledger (which has it) succeeds.
        verify_claim(net.chain, bundle, base_ledger=bank.ledger)

    def test_cycle_detection(self):
        from repro.core.transaction import TypecoinTransaction
        from repro.core.proofs import obligation_lambda, tensor_intro_all

        a_txid = b"\x01" * 32
        b_txid = b"\x02" * 32

        def tx_spending(txid):
            inp = TypecoinInput(txid, 0, One(), 600)
            out = TypecoinOutput(One(), 600, b"\x02" + b"\x11" * 32)
            proof = obligation_lambda(
                One(), [One()], [out.receipt()],
                lambda _c, ins, _r: tensor_intro_all(list(ins)),
            )
            return TypecoinTransaction(Basis(), One(), [inp], [out], proof)

        bundle = ClaimBundle(
            OutPoint(a_txid, 0),
            One(),
            {a_txid: tx_spending(b_txid), b_txid: tx_spending(a_txid)},
        )
        from repro.bitcoin.chain import Blockchain, ChainParams

        with pytest.raises(VerificationError, match="cycle"):
            verify_claim(Blockchain(ChainParams.regtest()), bundle)

    def test_base_ledger_is_left_as_it_was(self, net, bank, alice):
        """A claim — accepted or refused — reads the trusted history it is
        seeded with and never writes to it (§3.2: a batch server passes
        its own records), whether or not its transactions declare."""
        out = TypecoinOutput(One(), 600, alice.pubkey)
        first = simple_transfer([], [out])
        first_txid = alice.submit(first).txid
        net.confirm(1)
        alice.sync()
        second = simple_transfer(
            [alice.input_for(OutPoint(first_txid, 0))], [out]
        )
        outpoint = OutPoint(alice.submit(second).txid, 0)
        net.confirm(1)
        alice.sync()
        vocab, _, _ = publish_newcoin(net, bank)
        coins, _ = issue_to(net, bank, vocab, 10, alice.pubkey)

        base = Ledger()
        base.register(first_txid, first, resolve(first_txid, first))

        def fields():
            return (
                list(base.global_basis),
                dict(base.transactions),
                {
                    key: dataclasses.replace(entry)
                    for key, entry in base.outputs.items()
                },
            )

        before = fields()
        for bundle in (
            alice.claim_bundle(outpoint, One()),
            bank.claim_bundle(coins, vocab.coin_prop(10)),
        ):
            verify_claim(net.chain, bundle, base_ledger=base)
            assert fields() == before
        for wrong in (
            alice.claim_bundle(outpoint, Tensor(One(), One())),
            bank.claim_bundle(coins, vocab.coin_prop(999)),
        ):
            with pytest.raises(VerificationError, match="claimed type"):
                verify_claim(net.chain, wrong, base_ledger=base)
            assert fields() == before
        assert not base.spent_oracle(first_txid, 0)
