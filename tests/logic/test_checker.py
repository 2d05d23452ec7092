"""Tests for the proof checker: T;Σ;Ψ;Γ;Δ ⊢ M : A."""

import pytest

from repro.crypto.keys import PrivateKey
from repro.lf.basis import NAT_T, PLUS, PLUS_REFL, PropDecl
from repro.lf.syntax import (
    Const,
    NatLit,
    PrincipalLit,
    TConst,
    Var,
    apply_family,
    apply_term,
)
from repro.logic.checker import (
    CheckerContext,
    ProofError,
    affine_assert_payload,
    check_proof,
    check_prop_formation,
    infer,
    persistent_assert_payload,
)
from repro.logic.conditions import Before, CAnd, CNot, CTrue, Spent
from repro.logic.propositions import (
    Atom,
    Bang,
    Exists,
    Forall,
    IfProp,
    Lolli,
    One,
    Plus,
    Says,
    Tensor,
    With,
    Zero,
)
from repro.lf.walk import convertible
from repro.logic.proofterms import (
    Affirmation,
    Assert,
    AssertPersistent,
    BangElim,
    BangIntro,
    ExistsElim,
    ExistsIntro,
    ForallElim,
    ForallIntro,
    IfBind,
    IfReturn,
    IfSay,
    IfWeaken,
    LolliElim,
    LolliIntro,
    OneElim,
    OneIntro,
    PConst,
    PlusCase,
    PlusInl,
    PlusInr,
    PVar,
    SayBind,
    SayReturn,
    TensorElim,
    TensorIntro,
    WithFst,
    WithIntro,
    WithSnd,
    ZeroElim,
    let_,
)

from tests.logic.conftest import coin

ALICE_KEY = PrivateKey.from_seed(b"checker-alice")
ALICE = PrincipalLit(ALICE_KEY.public.key_hash)


@pytest.fixture
def ctx(basis):
    return CheckerContext(basis=basis)


def proves(ctx, term, prop):
    return convertible(check_proof(ctx, term), prop)


class TestStructuralRules:
    def test_affine_var(self, ctx):
        inner = ctx.with_affine("x", coin(1))
        prop, used = infer(inner, PVar("x"))
        assert convertible(prop, coin(1))
        assert used == {"x"}

    def test_persistent_var_not_consumed(self, ctx):
        inner = ctx.with_persistent("x", coin(1))
        prop, used = infer(inner, PVar("x"))
        assert used == frozenset()

    def test_persistent_reuse_allowed(self, ctx):
        inner = ctx.with_persistent("x", coin(1))
        prop, _ = infer(inner, TensorIntro(PVar("x"), PVar("x")))
        assert convertible(prop, Tensor(coin(1), coin(1)))

    def test_affine_reuse_rejected(self, ctx):
        inner = ctx.with_affine("x", coin(1))
        with pytest.raises(ProofError, match="more than once"):
            infer(inner, TensorIntro(PVar("x"), PVar("x")))

    def test_weakening_allowed(self, ctx):
        """Affine: resources may go unused (§4 "we have elected to embrace
        affinity")."""
        term = LolliIntro("x", coin(1), OneIntro())
        assert proves(ctx, term, Lolli(coin(1), One()))

    def test_unbound_variable(self, ctx):
        with pytest.raises(ProofError, match="unbound"):
            check_proof(ctx, PVar("ghost"))

    def test_shadowing_rejected(self, ctx):
        inner = ctx.with_affine("x", coin(1))
        with pytest.raises(ProofError, match="shadows"):
            inner.with_affine("x", coin(2))


class TestMultiplicatives:
    def test_lolli_intro_elim(self, ctx):
        identity = LolliIntro("x", coin(5), PVar("x"))
        applied = ctx.with_affine("c", coin(5))
        prop, used = infer(applied, LolliElim(identity, PVar("c")))
        assert convertible(prop, coin(5))
        assert used == {"c"}

    def test_application_type_mismatch(self, ctx):
        identity = LolliIntro("x", coin(5), PVar("x"))
        wrong = ctx.with_affine("c", coin(6))
        with pytest.raises(ProofError, match="expects"):
            infer(wrong, LolliElim(identity, PVar("c")))

    def test_apply_non_function(self, ctx):
        with pytest.raises(ProofError, match="non-implication"):
            check_proof(ctx, LolliElim(OneIntro(), OneIntro()))

    def test_tensor_intro_requires_disjoint(self, ctx):
        inner = ctx.with_affine("x", coin(1)).with_affine("y", coin(2))
        prop, used = infer(inner, TensorIntro(PVar("x"), PVar("y")))
        assert convertible(prop, Tensor(coin(1), coin(2)))
        assert used == {"x", "y"}

    def test_tensor_elim(self, ctx):
        term = LolliIntro(
            "p",
            Tensor(coin(1), coin(2)),
            TensorElim("x", "y", PVar("p"), TensorIntro(PVar("y"), PVar("x"))),
        )
        assert proves(
            ctx, term, Lolli(Tensor(coin(1), coin(2)), Tensor(coin(2), coin(1)))
        )

    def test_tensor_elim_on_non_tensor(self, ctx):
        term = TensorElim("x", "y", OneIntro(), OneIntro())
        with pytest.raises(ProofError, match="not a tensor"):
            check_proof(ctx, term)

    def test_one_elim(self, ctx):
        term = LolliIntro("u", One(), OneElim(PVar("u"), OneIntro()))
        assert proves(ctx, term, Lolli(One(), One()))


class TestAdditives:
    def test_with_shares_resources(self, ctx):
        """&-intro: both alternatives may consume the same resource."""
        term = LolliIntro("x", coin(1), WithIntro(PVar("x"), PVar("x")))
        assert proves(ctx, term, Lolli(coin(1), With(coin(1), coin(1))))

    def test_projections(self, ctx):
        pair = ctx.with_affine("p", With(coin(1), coin(2)))
        prop, _ = infer(pair, WithFst(PVar("p")))
        assert convertible(prop, coin(1))
        prop, _ = infer(pair, WithSnd(PVar("p")))
        assert convertible(prop, coin(2))

    def test_projection_from_non_with(self, ctx):
        with pytest.raises(ProofError, match="non-&"):
            check_proof(ctx, WithFst(OneIntro()))

    def test_plus_injections(self, ctx):
        left = PlusInl(coin(2), OneIntro())
        prop = check_proof(ctx, left)
        assert convertible(prop, Plus(One(), coin(2)))
        right = PlusInr(coin(2), OneIntro())
        assert convertible(check_proof(ctx, right), Plus(coin(2), One()))

    def test_case_branches_share(self, ctx):
        # With s : coin1 ⊕ coin1 and k : coin 9, both branches may use k.
        inner = ctx.with_affine("s", Plus(coin(1), coin(1))).with_affine(
            "k", coin(9)
        )
        term = PlusCase(
            PVar("s"),
            "l", TensorIntro(PVar("l"), PVar("k")),
            "r", TensorIntro(PVar("r"), PVar("k")),
        )
        prop, used = infer(inner, term)
        assert convertible(prop, Tensor(coin(1), coin(9)))
        assert used == {"s", "k"}

    def test_case_branch_mismatch(self, ctx):
        inner = ctx.with_affine("s", Plus(coin(1), coin(1)))
        term = PlusCase(PVar("s"), "l", PVar("l"), "r", OneIntro())
        with pytest.raises(ProofError, match="different propositions"):
            infer(inner, term)

    def test_case_scrutinee_disjoint_from_branches(self, ctx):
        # The scrutinee consumes k; branches cannot also use k.
        inner = ctx.with_affine("k", Plus(coin(1), coin(1)))
        term = PlusCase(
            PVar("k"), "l", PVar("k"), "r", PVar("k")
        )
        with pytest.raises(ProofError, match="more than once"):
            infer(inner, term)

    def test_zero_elim(self, ctx):
        term = LolliIntro("z", Zero(), ZeroElim(PVar("z"), coin(42)))
        assert proves(ctx, term, Lolli(Zero(), coin(42)))

    def test_zero_elim_wrong_scrutinee(self, ctx):
        with pytest.raises(ProofError, match="not 0"):
            check_proof(ctx, ZeroElim(OneIntro(), coin(1)))


class TestExponential:
    def test_promotion_of_closed_proof(self, ctx):
        term = BangIntro(OneIntro())
        assert proves(ctx, term, Bang(One()))

    def test_promotion_nested_600_deep(self, ctx):
        """One Python frame per proof node: 600 fits the interpreter's
        1 000, and did not while ``infer`` was a two-function pair."""
        term = OneIntro()
        for _ in range(600):
            term = BangIntro(term)
        prop = check_proof(ctx, term)
        for _ in range(600):
            assert isinstance(prop, Bang)
            prop = prop.body
        assert prop == One()

    def test_promotion_rejects_affine_use(self, ctx):
        inner = ctx.with_affine("x", coin(1))
        with pytest.raises(ProofError, match="promotion"):
            infer(inner, BangIntro(PVar("x")))

    def test_promotion_allows_persistent_use(self, ctx):
        inner = ctx.with_persistent("x", coin(1))
        prop, _ = infer(inner, BangIntro(PVar("x")))
        assert convertible(prop, Bang(coin(1)))

    def test_dereliction_via_bang_elim(self, ctx):
        # !coin1 ⊸ coin1 ⊗ coin1: unboxing gives unlimited copies.
        term = LolliIntro(
            "b",
            Bang(coin(1)),
            BangElim("x", PVar("b"), TensorIntro(PVar("x"), PVar("x"))),
        )
        assert proves(ctx, term, Lolli(Bang(coin(1)), Tensor(coin(1), coin(1))))


class TestQuantifiers:
    def test_forall_intro_elim(self, ctx):
        univ = ForallIntro("n", NAT_T, LolliIntro("x", coin(Var("n")), PVar("x")))
        prop = check_proof(ctx, univ)
        assert isinstance(prop, Forall)
        inst = ForallElim(univ, NatLit(3))
        assert proves(ctx, inst, Lolli(coin(3), coin(3)))

    def test_forall_elim_checks_index_type(self, ctx):
        univ = ForallIntro("n", NAT_T, LolliIntro("x", coin(Var("n")), PVar("x")))
        with pytest.raises(ProofError, match="instantiation"):
            check_proof(ctx, ForallElim(univ, PrincipalLit(b"\x01" * 20)))

    def test_eigenvariable_condition(self, ctx):
        # ∀-intro over a variable free in a hypothesis is unsound.
        inner = ctx.with_affine("x", coin(Var("n")))
        term = ForallIntro("n", NAT_T, PVar("x"))
        with pytest.raises(ProofError, match="eigenvariable"):
            infer(inner, term)

    def test_exists_intro(self, ctx):
        ann = Exists(
            "x",
            apply_family(TConst(PLUS), NatLit(2), NatLit(3), NatLit(5)),
            One(),
        )
        witness = apply_term(Const(PLUS_REFL), NatLit(2), NatLit(3))
        term = ExistsIntro(ann, witness, OneIntro())
        assert proves(ctx, term, ann)

    def test_exists_intro_wrong_witness(self, ctx):
        ann = Exists(
            "x",
            apply_family(TConst(PLUS), NatLit(2), NatLit(3), NatLit(6)),
            One(),
        )
        witness = apply_term(Const(PLUS_REFL), NatLit(2), NatLit(3))
        with pytest.raises(ProofError, match="witness"):
            check_proof(ctx, ExistsIntro(ann, witness, OneIntro()))

    def test_exists_elim(self, ctx):
        ann = Exists("n", NAT_T, coin(Var("n")))
        # Given ∃n. coin n, produce 1 (we can't name the witness outside).
        inner = ctx.with_affine("e", ann)
        term = ExistsElim("n", "c", PVar("e"), OneIntro())
        prop, used = infer(inner, term)
        assert convertible(prop, One())
        assert used == {"e"}

    def test_exists_witness_escape_rejected(self, ctx):
        ann = Exists("n", NAT_T, coin(Var("n")))
        inner = ctx.with_affine("e", ann)
        term = ExistsElim("n", "c", PVar("e"), PVar("c"))
        with pytest.raises(ProofError, match="escapes"):
            infer(inner, term)


class TestAffirmation:
    def test_sayreturn(self, ctx):
        """The unit: every principal affirms everything provable."""
        term = SayReturn(ALICE, OneIntro())
        assert proves(ctx, term, Says(ALICE, One()))

    def test_saybind_same_principal(self, ctx):
        inner = ctx.with_affine("s", Says(ALICE, coin(1)))
        term = SayBind("x", PVar("s"), SayReturn(ALICE, PVar("x")))
        prop, _ = infer(inner, term)
        assert convertible(prop, Says(ALICE, coin(1)))

    def test_saybind_wrong_principal_rejected(self, ctx):
        bob = PrincipalLit(b"\xbb" * 20)
        inner = ctx.with_affine("s", Says(ALICE, coin(1)))
        term = SayBind("x", PVar("s"), SayReturn(bob, PVar("x")))
        with pytest.raises(ProofError, match="same principal"):
            infer(inner, term)

    def test_assert_persistent_valid(self, ctx):
        prop = coin(7)
        payload = persistent_assert_payload(prop)
        sig = ALICE_KEY.sign(payload)
        term = AssertPersistent(
            ALICE, prop, Affirmation(ALICE_KEY.public.encoded, sig.encode())
        )
        assert proves(ctx, term, Says(ALICE, prop))

    def test_assert_persistent_wrong_signer(self, ctx):
        prop = coin(7)
        mallory = PrivateKey.from_seed(b"mallory")
        sig = mallory.sign(persistent_assert_payload(prop))
        term = AssertPersistent(
            ALICE, prop, Affirmation(mallory.public.encoded, sig.encode())
        )
        with pytest.raises(ProofError, match="invalid affirmation"):
            check_proof(ctx, term)

    def test_assert_persistent_wrong_prop(self, ctx):
        sig = ALICE_KEY.sign(persistent_assert_payload(coin(7)))
        term = AssertPersistent(
            ALICE, coin(8), Affirmation(ALICE_KEY.public.encoded, sig.encode())
        )
        with pytest.raises(ProofError, match="invalid affirmation"):
            check_proof(ctx, term)

    def test_affine_assert_bound_to_transaction(self, basis):
        """assert signs the transaction; the same signature fails elsewhere."""
        prop = coin(7)
        payload_a = affine_assert_payload(b"txn-A", prop)
        sig = ALICE_KEY.sign(payload_a)
        term = Assert(
            ALICE, prop, Affirmation(ALICE_KEY.public.encoded, sig.encode())
        )
        ctx_a = CheckerContext(basis=basis, txn_payload=b"txn-A")
        assert convertible(check_proof(ctx_a, term), Says(ALICE, prop))
        # Replay into transaction B: rejected.
        ctx_b = CheckerContext(basis=basis, txn_payload=b"txn-B")
        with pytest.raises(ProofError, match="invalid affirmation"):
            check_proof(ctx_b, term)

    def test_affine_assert_requires_transaction(self, ctx):
        sig = ALICE_KEY.sign(b"whatever")
        term = Assert(
            ALICE, coin(1), Affirmation(ALICE_KEY.public.encoded, sig.encode())
        )
        with pytest.raises(ProofError, match="outside a transaction"):
            check_proof(ctx, term)


class TestConditionalMonad:
    def test_ifreturn(self, ctx):
        cond = Before(NatLit(100))
        term = IfReturn(cond, OneIntro())
        assert proves(ctx, term, IfProp(cond, One()))

    def test_ifbind_same_condition(self, ctx):
        cond = Before(NatLit(100))
        inner = ctx.with_affine("i", IfProp(cond, coin(1)))
        term = IfBind("x", PVar("i"), IfReturn(cond, TensorIntro(PVar("x"), OneIntro())))
        prop, _ = infer(inner, term)
        assert convertible(prop, IfProp(cond, Tensor(coin(1), One())))

    def test_ifbind_condition_mismatch(self, ctx):
        inner = ctx.with_affine("i", IfProp(Before(NatLit(100)), coin(1)))
        term = IfBind(
            "x", PVar("i"), IfReturn(Before(NatLit(50)), PVar("x"))
        )
        with pytest.raises(ProofError, match="same φ"):
            infer(inner, term)

    def test_ifweaken_strengthens_condition(self, ctx):
        weak = IfReturn(Before(NatLit(100)), OneIntro())
        stronger = CAnd(Before(NatLit(50)), CNot(Spent(b"\x01" * 32, 0)))
        term = IfWeaken(stronger, weak)
        assert proves(ctx, term, IfProp(stronger, One()))

    def test_ifweaken_rejects_non_entailment(self, ctx):
        weak = IfReturn(Before(NatLit(50)), OneIntro())
        term = IfWeaken(Before(NatLit(100)), weak)
        with pytest.raises(ProofError, match="entail"):
            check_proof(ctx, term)

    def test_if_say_commutation(self, ctx):
        cond = Before(NatLit(10))
        term = IfSay(SayReturn(ALICE, IfReturn(cond, OneIntro())))
        assert proves(ctx, term, IfProp(cond, Says(ALICE, One())))

    def test_if_say_requires_nested_shape(self, ctx):
        with pytest.raises(ProofError, match="if/say"):
            check_proof(ctx, IfSay(OneIntro()))

    def test_no_discharge_operation_exists(self):
        """§5: "we have no explicit discharge operation at all" — the AST
        simply has no such constructor."""
        import repro.logic.proofterms as pt

        assert not hasattr(pt, "Discharge")


class TestBasisProofConstants:
    def test_pconst_lookup(self, ctx, basis):
        ref = basis.declare_local("rule", PropDecl(Lolli(coin(1), coin(2))))
        prop, used = infer(CheckerContext(basis=basis), PConst(ref))
        assert convertible(prop, Lolli(coin(1), coin(2)))
        assert used == frozenset()

    def test_pconst_is_persistent(self, basis):
        ref = basis.declare_local("rule", PropDecl(Lolli(coin(1), coin(2))))
        ctx = CheckerContext(basis=basis)
        term = TensorIntro(PConst(ref), PConst(ref))
        check_proof(ctx, term)  # no double-use complaint

    def test_pconst_wrong_sort(self, ctx):
        from repro.lf.basis import NAT

        with pytest.raises(ProofError, match="not a proof constant"):
            check_proof(ctx, PConst(NAT))


class TestLetDerivedForm:
    def test_let_checks_like_figure_3(self, ctx):
        """let x : A ← M in N is λ-application (paper §6.1)."""
        inner = ctx.with_affine("c", coin(1))
        term = let_("x", coin(1), PVar("c"), TensorIntro(PVar("x"), OneIntro()))
        prop, used = infer(inner, term)
        assert convertible(prop, Tensor(coin(1), One()))
        assert used == {"c"}


class TestPropFormation:
    def test_atom_must_be_prop_kind(self, ctx, basis):
        check_prop_formation(basis, ctx.lf_ctx, coin(1))
        # plus has kind type, not prop.
        bad = Atom(apply_family(TConst(PLUS), NatLit(1), NatLit(1), NatLit(2)))
        with pytest.raises(ProofError, match="expected prop"):
            check_prop_formation(basis, ctx.lf_ctx, bad)

    def test_says_principal_typed(self, ctx, basis):
        with pytest.raises(ProofError):
            check_prop_formation(basis, ctx.lf_ctx, Says(NatLit(1), One()))

    def test_before_index_typed(self, ctx, basis):
        bad = IfProp(Before(PrincipalLit(b"\x01" * 20)), One())
        with pytest.raises(ProofError, match="not a nat"):
            check_prop_formation(basis, ctx.lf_ctx, bad)

    def test_underapplied_atom_rejected(self, ctx, basis):
        from tests.logic.conftest import COIN_REF

        with pytest.raises(ProofError):
            check_prop_formation(basis, ctx.lf_ctx, Atom(TConst(COIN_REF)))
