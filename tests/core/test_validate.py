"""Tests for the transaction-formation judgement (Appendix A)."""

import copy
import dataclasses
import re

import pytest

from repro.core.builder import basis_publication, build_with_payload, simple_transfer
from repro.core.proofs import obligation_lambda, tensor_intro_all
from repro.core.transaction import TypecoinInput, TypecoinOutput, TypecoinTransaction
from repro.core.validate import (
    Ledger,
    ValidationFailure,
    check_typecoin_transaction,
    resolve,
    world_at,
)
from repro.lf.basis import Basis, KindDecl, PropDecl, TypeDecl, NAT_T
from repro.lf.syntax import (
    KIND_PROP,
    KPi,
    ConstRef,
    NatLit,
    TApp,
    TConst,
    THIS,
    Var,
)
from repro.logic.conditions import Before, CNot, CTrue, Spent, WorldView
from repro.logic.proofterms import IfReturn, OneIntro, PVar, TensorIntro
from repro.logic.propositions import Atom, IfProp, Lolli, One, Says
from repro.lf.walk import convertible
from repro.lf.syntax import PrincipalLit

ALICE = PrincipalLit(b"\xaa" * 20)
PUBKEY = b"\x02" + b"\x11" * 32


def coin_basis():
    basis = Basis()
    ref = basis.declare_local("coin", KindDecl(KPi("n", NAT_T, KIND_PROP)))
    return basis, ref


def coin_prop(ref, n):
    return Atom(TApp(TConst(ref), NatLit(n)))


@pytest.fixture
def world():
    return WorldView.at_time(1_000_000_000)


class TestBasisChecks:
    def test_valid_publication(self, world):
        basis, ref = coin_basis()
        txn = basis_publication(basis, PUBKEY)
        check_typecoin_transaction(Ledger(), txn, world)

    def test_nonlocal_declaration_rejected(self, world):
        basis = Basis()
        basis.declare(ConstRef(b"\x99" * 32, "x"), TypeDecl(NAT_T))
        txn = basis_publication(basis, PUBKEY)
        with pytest.raises(ValidationFailure, match="this"):
            check_typecoin_transaction(Ledger(), txn, world)

    def test_ill_formed_declaration_rejected(self, world):
        basis = Basis()
        # Refers to a constant that does not exist.
        basis.declare_local(
            "bad", TypeDecl(TConst(ConstRef(THIS, "ghost")))
        )
        txn = basis_publication(basis, PUBKEY)
        with pytest.raises(ValidationFailure, match="ill-formed declaration"):
            check_typecoin_transaction(Ledger(), txn, world)

    def test_unfresh_rule_rejected(self, world):
        """A basis may not produce someone else's vocabulary."""
        other = ConstRef(b"\x88" * 32, "coin")
        basis = Basis()
        basis.declare_local(
            "forge",
            PropDecl(Lolli(One(), Atom(TApp(TConst(other), NatLit(1))))),
        )
        # Provide the foreign family in the ledger's global basis first.
        ledger = Ledger()
        ledger.global_basis.declare(other, KindDecl(KPi("n", NAT_T, KIND_PROP)))
        txn = basis_publication(basis, PUBKEY)
        with pytest.raises(ValidationFailure, match="freshness"):
            check_typecoin_transaction(ledger, txn, world)

    def test_unfresh_grant_rejected(self, world):
        txn = basis_publication(
            Basis(), PUBKEY, grant=Says(ALICE, One())
        )
        with pytest.raises(ValidationFailure, match="freshness"):
            check_typecoin_transaction(Ledger(), txn, world)


class TestInputChecks:
    def register_coin(self, world):
        basis, ref = coin_basis()
        grant_prop = coin_prop(ref, 5)
        txn = basis_publication(basis, PUBKEY, grant=grant_prop)
        ledger = Ledger()
        check_typecoin_transaction(ledger, txn, world)
        txid = b"\x01" * 32
        ledger.register(txid, txn, resolve(txid, txn))
        return ledger, txid, ref.resolved(txid)

    def test_spend_known_output(self, world):
        ledger, txid, ref = self.register_coin(world)
        inp = TypecoinInput(txid, 0, coin_prop(ref, 5), 600)
        out = TypecoinOutput(coin_prop(ref, 5), 600, PUBKEY)
        txn = simple_transfer([inp], [out])
        check_typecoin_transaction(ledger, txn, world)

    def test_unknown_input_rejected(self, world):
        ledger, txid, ref = self.register_coin(world)
        inp = TypecoinInput(b"\x77" * 32, 0, coin_prop(ref, 5), 600)
        out = TypecoinOutput(coin_prop(ref, 5), 600, PUBKEY)
        txn = simple_transfer([inp], [out])
        with pytest.raises(ValidationFailure, match="not a known"):
            check_typecoin_transaction(ledger, txn, world)

    def test_wrong_input_type_rejected(self, world):
        ledger, txid, ref = self.register_coin(world)
        inp = TypecoinInput(txid, 0, coin_prop(ref, 6), 600)
        out = TypecoinOutput(coin_prop(ref, 6), 600, PUBKEY)
        txn = simple_transfer([inp], [out])
        with pytest.raises(ValidationFailure, match="does not match"):
            check_typecoin_transaction(ledger, txn, world)

    def test_wrong_amount_rejected(self, world):
        ledger, txid, ref = self.register_coin(world)
        inp = TypecoinInput(txid, 0, coin_prop(ref, 5), 700)
        out = TypecoinOutput(coin_prop(ref, 5), 700, PUBKEY)
        txn = simple_transfer([inp], [out])
        with pytest.raises(ValidationFailure, match="amount"):
            check_typecoin_transaction(ledger, txn, world)

    def test_duplicate_inputs_rejected(self, world):
        ledger, txid, ref = self.register_coin(world)
        inp = TypecoinInput(txid, 0, coin_prop(ref, 5), 600)
        out = TypecoinOutput(coin_prop(ref, 5), 600, PUBKEY)
        proof = obligation_lambda(
            One(), [inp.prop, inp.prop], [out.receipt()],
            lambda _c, ins, _r: ins[0],
        )
        txn = TypecoinTransaction(Basis(), One(), [inp, inp], [out], proof)
        with pytest.raises(ValidationFailure, match="duplicate"):
            check_typecoin_transaction(ledger, txn, world)


class TestProofChecks:
    def test_proof_must_consume_obligation(self, world):
        basis, ref = coin_basis()
        out = TypecoinOutput(One(), 600, PUBKEY)
        # Proof of the wrong implication shape.
        proof = OneIntro()
        txn = TypecoinTransaction(basis, One(), [], [out], proof)
        with pytest.raises(ValidationFailure, match="not an implication"):
            check_typecoin_transaction(Ledger(), txn, world)

    def test_proof_output_mismatch(self, world):
        basis, ref = coin_basis()
        out = TypecoinOutput(coin_prop(ref, 5), 600, PUBKEY)
        proof = obligation_lambda(
            One(), [], [out.receipt()],
            lambda _c, _i, _r: OneIntro(),  # proves 1, not coin 5
        )
        txn = TypecoinTransaction(basis, One(), [], [out], proof)
        with pytest.raises(ValidationFailure, match="produces"):
            check_typecoin_transaction(Ledger(), txn, world)

    def test_minting_without_grant_rejected(self, world):
        """The key theorem in miniature: you cannot conjure a coin."""
        basis, ref = coin_basis()
        out = TypecoinOutput(coin_prop(ref, 5), 600, PUBKEY)
        proof = obligation_lambda(
            One(), [], [out.receipt()],
            lambda _c, _i, _r: PVar("nothing"),
        )
        txn = TypecoinTransaction(basis, One(), [], [out], proof)
        with pytest.raises(ValidationFailure, match="proof does not check"):
            check_typecoin_transaction(Ledger(), txn, world)


class TestConditionalDischarge:
    def conditional_txn(self, condition):
        out = TypecoinOutput(One(), 600, PUBKEY)
        proof = obligation_lambda(
            One(), [], [out.receipt()],
            lambda _c, _i, _r: IfReturn(condition, OneIntro()),
        )
        return TypecoinTransaction(Basis(), One(), [], [out], proof)

    def test_true_condition_discharges(self):
        txn = self.conditional_txn(Before(NatLit(2_000_000_000)))
        check_typecoin_transaction(
            Ledger(), txn, WorldView.at_time(1_000_000_000)
        )

    def test_false_condition_blocks(self):
        """§5: "the transaction is valid only if φ holds"."""
        txn = self.conditional_txn(Before(NatLit(500)))
        with pytest.raises(ValidationFailure, match="does not hold"):
            check_typecoin_transaction(
                Ledger(), txn, WorldView.at_time(1_000_000_000)
            )

    def test_revocation_condition_consults_oracle(self):
        revocation = Spent(b"\x42" * 32, 0)
        txn = self.conditional_txn(CNot(revocation))
        unspent_world = WorldView(1_000, lambda _t, _n: False)
        check_typecoin_transaction(Ledger(), txn, unspent_world)
        spent_world = WorldView(1_000, lambda _t, _n: True)
        with pytest.raises(ValidationFailure, match="does not hold"):
            check_typecoin_transaction(Ledger(), txn, spent_world)


class TestLedger:
    def test_register_resolves_this(self, world):
        basis, ref = coin_basis()
        txn = basis_publication(basis, PUBKEY, grant=coin_prop(ref, 5))
        ledger = Ledger()
        check_typecoin_transaction(ledger, txn, world)
        txid = b"\x0a" * 32
        resolved = resolve(txid, txn)
        ledger.register(txid, txn, resolved)
        entry = ledger.output(txid, 0)
        assert convertible(entry.prop, coin_prop(ref.resolved(txid), 5))
        assert ConstRef(txid, "coin") in ledger.global_basis
        # The record is the one ``resolve`` built, stored as it is: a memo
        # holds it across requests, so nothing may edit it.
        assert entry is resolved.outputs[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.amount = 1

    def test_double_registration_rejected(self, world):
        txn = basis_publication(Basis(), PUBKEY)
        txid = b"\x0c" * 32
        ledger = Ledger()
        ledger.register(txid, txn, resolve(txid, txn))
        with pytest.raises(ValidationFailure, match="already registered"):
            ledger.register(txid, txn, resolve(txid, txn))

    def test_register_replaces_global_basis_only_when_t_declares(self):
        """Σ_global is swapped for an extended copy when T declares and
        kept when it does not — never edited in place, since a claim under
        ``base_ledger`` shares the caller's."""
        ledger = Ledger()
        sigma = ledger.global_basis
        before = list(sigma)
        plain = basis_publication(Basis(), PUBKEY)
        ledger.register(b"\x0d" * 32, plain, resolve(b"\x0d" * 32, plain))
        assert ledger.global_basis is sigma
        basis, _ = coin_basis()
        txn = basis_publication(basis, PUBKEY)
        ledger.register(b"\x0e" * 32, txn, resolve(b"\x0e" * 32, txn))
        assert ledger.global_basis is not sigma
        assert ConstRef(b"\x0e" * 32, "coin") in ledger.global_basis
        assert list(sigma) == before

    def test_register_refuses_a_constant_outside_its_carriers_namespace(self):
        basis, _ = coin_basis()
        stray = ConstRef(b"\x99" * 32, "stray")
        basis.declare(stray, TypeDecl(NAT_T))
        txn = basis_publication(basis, PUBKEY)
        ledger = Ledger()
        plain = basis_publication(Basis(), PUBKEY)
        ledger.register(b"\x0d" * 32, plain, resolve(b"\x0d" * 32, plain))
        before = copy.deepcopy(ledger)
        with pytest.raises(ValidationFailure, match=re.escape(str(stray))):
            ledger.register(b"\x0f" * 32, txn, resolve(b"\x0f" * 32, txn))
        assert ledger == before
        assert b"\x0f" * 32 not in ledger.transactions

    def test_register_refuses_a_namespace_the_global_basis_holds(self):
        """A ledger over trusted history (``base_ledger``'s Σ_global, its
        transactions not among this ledger's) refuses a basis in a
        namespace Σ_global already declares in."""
        txid = b"\x0e" * 32
        basis, ref = coin_basis()
        txn = basis_publication(basis, PUBKEY, grant=coin_prop(ref, 5))
        trusted = Ledger()
        trusted.register(txid, txn, resolve(txid, txn))
        ledger = Ledger(
            global_basis=trusted.global_basis, transactions={}, outputs={}
        )
        before = copy.deepcopy(ledger)
        with pytest.raises(ValidationFailure, match=txid.hex()):
            ledger.register(txid, txn, resolve(txid, txn))
        assert ledger == before
        assert ledger.transactions == {} and ledger.outputs == {}

    def test_equality_is_logical_whichever_side_merged(self):
        """Registered declarations wait on a stack until Σ_global is read;
        a ledger equals its copy whichever of the two merged first."""
        ledger = Ledger()
        for index, name in enumerate(("coin", "token")):
            basis = Basis()
            basis.declare_local(name, KindDecl(KIND_PROP))
            txn = basis_publication(basis, PUBKEY)
            txid = bytes([0x20 + index]) * 32
            ledger.register(txid, txn, resolve(txid, txn))
        unmerged, merged = copy.deepcopy(ledger), copy.deepcopy(ledger)
        assert ConstRef(b"\x21" * 32, "token") in merged.global_basis
        assert ledger == merged  # stacked against merged
        assert unmerged == ledger  # and the other way round
        plain = basis_publication(Basis(), PUBKEY)
        unmerged.register(b"\x2f" * 32, plain, resolve(b"\x2f" * 32, plain))
        assert unmerged != ledger


class TestCheckLeavesGlobalBasis:
    """𝔗;Σ ⊢ T ok reads Σ_global and never writes to it: T's declarations
    join Σ_global only when the ledger registers T."""

    @pytest.fixture
    def ledger(self, world):
        return TestInputChecks().register_coin(world)[0]

    def test_t_declaring_nothing(self, ledger, world):
        before = list(ledger.global_basis)
        check_typecoin_transaction(
            ledger, simple_transfer([], [TypecoinOutput(One(), 600, PUBKEY)]),
            world,
        )
        assert list(ledger.global_basis) == before

    def test_t_declaring_constants(self, ledger, world):
        before = list(ledger.global_basis)
        basis = Basis()
        kind = basis.declare_local("token", KindDecl(KIND_PROP))
        basis.declare_local("mint", PropDecl(Lolli(One(), Atom(TConst(kind)))))
        check_typecoin_transaction(ledger, basis_publication(basis, PUBKEY), world)
        assert list(ledger.global_basis) == before

    def test_t_refused_at_its_second_declaration(self, ledger, world):
        before = list(ledger.global_basis)
        basis = Basis()
        basis.declare_local("token", KindDecl(KIND_PROP))
        basis.declare_local("bad", TypeDecl(TConst(ConstRef(THIS, "ghost"))))
        with pytest.raises(ValidationFailure, match="declaration this.bad"):
            check_typecoin_transaction(
                ledger, basis_publication(basis, PUBKEY), world
            )
        assert list(ledger.global_basis) == before


class TestWorldAt:
    def test_world_reads_block_timestamp(self, net, alice):
        world = world_at(net.chain)
        assert world.time == net.chain.tip.block.header.timestamp

    def test_spent_oracle_height_cutoff(self, net, alice, bob):
        from repro.bitcoin.standard import p2pkh_script
        from repro.bitcoin.transaction import COIN, TxOut

        tx = alice.wallet.create_transaction(
            net.chain, [TxOut(COIN, p2pkh_script(bob.wallet.key_hash))], fee=1000
        )
        net.send(tx)
        net.confirm(1)
        spend_height = net.chain.height
        spent_op = tx.vin[0].prevout
        # At the spend height the outpoint is spent; just before, it wasn't.
        assert world_at(net.chain, spend_height).spent_oracle(
            spent_op.txid, spent_op.index
        )
        assert not world_at(net.chain, spend_height - 1).spent_oracle(
            spent_op.txid, spent_op.index
        )
