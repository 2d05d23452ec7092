"""Tests for LF type checking and normalization."""

import pytest

from repro.lf.basis import (
    ADD,
    NAT,
    NAT_T,
    PLUS,
    PLUS_REFL,
    PRINCIPAL,
    PRINCIPAL_T,
    Basis,
    BasisError,
    KindDecl,
    TypeDecl,
    builtin_basis,
)
from repro.lf.walk import convertible, normalize
from repro.lf.syntax import (
    BUILTIN,
    THIS,
    App,
    Const,
    ConstRef,
    KIND_PROP,
    KIND_TYPE,
    KPi,
    Lam,
    NatLit,
    PrincipalLit,
    TApp,
    TConst,
    TPi,
    Var,
    apply_family,
    apply_term,
    arrow,
)
from repro.lf.typecheck import (
    EMPTY_CONTEXT,
    LFContext,
    LFTypeError,
    check_kind,
    check_type,
    infer_kind,
    infer_type,
)


@pytest.fixture
def basis():
    return builtin_basis()


class TestNormalization:
    def test_beta(self):
        term = App(Lam("x", NAT_T, Var("x")), NatLit(3))
        assert normalize(term) == NatLit(3)

    def test_nested_beta(self):
        const_fn = Lam("x", NAT_T, Lam("y", NAT_T, Var("x")))
        term = apply_term(const_fn, NatLit(1), NatLit(2))
        assert normalize(term) == NatLit(1)

    def test_delta_add(self):
        term = apply_term(Const(ADD), NatLit(2), NatLit(3))
        assert normalize(term) == NatLit(5)

    def test_delta_needs_both_literals(self):
        term = apply_term(Const(ADD), Var("n"), NatLit(3))
        assert isinstance(normalize(term), App)

    def test_normalize_under_lambda(self):
        term = Lam("z", NAT_T, App(Lam("x", NAT_T, Var("x")), Var("z")))
        assert normalize(term) == Lam("z", NAT_T, Var("z"))

    def test_family_args_normalized(self):
        fam = TApp(TConst(PLUS), apply_term(Const(ADD), NatLit(1), NatLit(1)))
        assert normalize(fam) == TApp(TConst(PLUS), NatLit(2))

    def test_terms_equal_mod_beta(self):
        assert convertible(App(Lam("x", NAT_T, Var("x")), NatLit(9)), NatLit(9))

    def test_families_equal_mod_delta(self):
        a = apply_family(TConst(PLUS), NatLit(1), NatLit(2), NatLit(3))
        b = apply_family(
            TConst(PLUS),
            NatLit(1),
            NatLit(2),
            apply_term(Const(ADD), NatLit(1), NatLit(2)),
        )
        assert convertible(a, b)


class TestTermTyping:
    def test_literals(self, basis):
        assert infer_type(basis, EMPTY_CONTEXT, NatLit(4)) == NAT_T
        lit = PrincipalLit(b"\x02" * 20)
        assert infer_type(basis, EMPTY_CONTEXT, lit) == PRINCIPAL_T

    def test_variable_lookup(self, basis):
        ctx = EMPTY_CONTEXT.extend("x", PRINCIPAL_T)
        assert infer_type(basis, ctx, Var("x")) == PRINCIPAL_T

    def test_unbound_variable(self, basis):
        with pytest.raises(LFTypeError, match="unbound"):
            infer_type(basis, EMPTY_CONTEXT, Var("ghost"))

    def test_lambda_and_app(self, basis):
        identity = Lam("x", NAT_T, Var("x"))
        ty = infer_type(basis, EMPTY_CONTEXT, identity)
        assert isinstance(ty, TPi)
        check_type(basis, EMPTY_CONTEXT, App(identity, NatLit(1)), NAT_T)

    def test_wrong_argument_type(self, basis):
        identity = Lam("x", NAT_T, Var("x"))
        bad = App(identity, PrincipalLit(b"\x03" * 20))
        with pytest.raises(LFTypeError):
            infer_type(basis, EMPTY_CONTEXT, bad)

    def test_apply_non_function(self, basis):
        with pytest.raises(LFTypeError, match="non-function"):
            infer_type(basis, EMPTY_CONTEXT, App(NatLit(1), NatLit(2)))

    def test_plus_refl_computes_sums(self, basis):
        proof = apply_term(Const(PLUS_REFL), NatLit(7), NatLit(35))
        expected = apply_family(TConst(PLUS), NatLit(7), NatLit(35), NatLit(42))
        check_type(basis, EMPTY_CONTEXT, proof, expected)

    def test_plus_refl_rejects_wrong_sum(self, basis):
        proof = apply_term(Const(PLUS_REFL), NatLit(7), NatLit(35))
        wrong = apply_family(TConst(PLUS), NatLit(7), NatLit(35), NatLit(41))
        with pytest.raises(LFTypeError):
            check_type(basis, EMPTY_CONTEXT, proof, wrong)

    def test_dependent_application_substitutes(self, basis):
        # plus_refl n : Πm:nat. plus n m (add n m) — with n := 4.
        partial = App(Const(PLUS_REFL), NatLit(4))
        ty = normalize(infer_type(basis, EMPTY_CONTEXT, partial))
        assert isinstance(ty, TPi)
        assert "4" in str(ty)

    def test_unknown_constant(self, basis):
        with pytest.raises(LFTypeError, match="unknown"):
            infer_type(basis, EMPTY_CONTEXT, Const(ConstRef(BUILTIN, "nope")))

    def test_kind_used_as_term_rejected(self, basis):
        with pytest.raises(LFTypeError, match="not an index-term"):
            infer_type(basis, EMPTY_CONTEXT, Const(NAT))

    def test_lambda_nested_600_deep(self, basis):
        """One Python frame per node: 600 fits the interpreter's 1 000, and
        did not while ``infer_type`` was a two-function pair."""
        term = NatLit(0)
        for i in range(600):
            term = Lam(f"x{i}", NAT_T, term)
        family = infer_type(basis, EMPTY_CONTEXT, term)
        for _ in range(600):
            assert isinstance(family, TPi) and family.domain == NAT_T
            family = family.body
        assert family == NAT_T


class TestFamilyKinding:
    def test_base_types(self, basis):
        assert infer_kind(basis, EMPTY_CONTEXT, NAT_T) == KIND_TYPE

    def test_plus_fully_applied(self, basis):
        fam = apply_family(TConst(PLUS), NatLit(1), NatLit(2), NatLit(3))
        assert infer_kind(basis, EMPTY_CONTEXT, fam) == KIND_TYPE

    def test_plus_partially_applied(self, basis):
        fam = TApp(TConst(PLUS), NatLit(1))
        kind = infer_kind(basis, EMPTY_CONTEXT, fam)
        assert isinstance(kind, KPi)

    def test_overapplication_rejected(self, basis):
        fam = TApp(NAT_T, NatLit(1))
        with pytest.raises(LFTypeError):
            infer_kind(basis, EMPTY_CONTEXT, fam)

    def test_wrong_index_type_rejected(self, basis):
        fam = TApp(TConst(PLUS), PrincipalLit(b"\x04" * 20))
        with pytest.raises(LFTypeError):
            infer_kind(basis, EMPTY_CONTEXT, fam)

    def test_pi_formation(self, basis):
        fam = arrow(NAT_T, PRINCIPAL_T)
        assert infer_kind(basis, EMPTY_CONTEXT, fam) == KIND_TYPE

    def test_pi_nested_600_deep(self, basis):
        fam = NAT_T
        for i in range(600):
            fam = TPi(f"x{i}", NAT_T, fam)
        assert infer_kind(basis, EMPTY_CONTEXT, fam) == KIND_TYPE

    def test_prop_kind_families(self, basis):
        # Declare coin : nat → prop (the §6 idiom) and kind-check coin 5.
        coin = ConstRef(THIS, "coin")
        basis.declare(coin, KindDecl(KPi("n", NAT_T, KIND_PROP)))
        fam = TApp(TConst(coin), NatLit(5))
        assert infer_kind(basis, EMPTY_CONTEXT, fam) == KIND_PROP

    def test_check_kind_rejects_bad_domain(self, basis):
        bad = KPi("x", TApp(NAT_T, NatLit(1)), KIND_TYPE)
        with pytest.raises(LFTypeError):
            check_kind(basis, EMPTY_CONTEXT, bad)


class TestBasis:
    def test_duplicate_declaration_rejected(self, basis):
        with pytest.raises(BasisError, match="already declared"):
            basis.declare(NAT, KindDecl(KIND_TYPE))

    def test_local_declarations(self):
        basis = Basis()
        ref = basis.declare_local("x", TypeDecl(NAT_T))
        assert ref.is_local
        assert basis.all_local()

    def test_extended_merges_in_order(self, basis):
        local = Basis()
        local.declare_local("c", TypeDecl(NAT_T))
        merged = basis.extended(local)
        assert len(merged) == len(basis) + 1
        assert ConstRef(THIS, "c") in merged

    def test_extended_names_the_first_clash_in_the_extension(self):
        """Either side is left as it was, and the message names the first
        constant of ``other``, in its order, that ``self`` declares."""
        base, other = Basis(), Basis()
        for name in ("a", "b", "c"):
            base.declare_local(name, TypeDecl(NAT_T))
        for name in ("z", "c", "b"):
            other.declare_local(name, TypeDecl(NAT_T))
        with pytest.raises(BasisError) as raised:
            base.extended(other)
        assert str(raised.value) == "constant this.c already declared"
        assert (len(base), len(other)) == (3, 3)

    def test_resolved_rewrites_names_and_bodies(self):
        txid = b"\x11" * 32
        basis = Basis()
        basis.declare_local("t", KindDecl(KIND_TYPE))
        basis.declare_local(
            "x", TypeDecl(TConst(ConstRef(THIS, "t")))
        )
        resolved = basis.resolved(txid)
        assert ConstRef(txid, "x") in resolved
        decl = resolved.lookup(ConstRef(txid, "x"))
        assert decl.family == TConst(ConstRef(txid, "t"))

    def test_lookup_unknown(self, basis):
        with pytest.raises(BasisError, match="unknown"):
            basis.lookup(ConstRef(THIS, "missing"))
