"""Tests for LF syntax: substitution, α-equivalence, this-resolution."""

import pytest

from repro.lf.basis import NAT_T
from repro.lf.syntax import (
    BUILTIN,
    THIS,
    App,
    Const,
    ConstRef,
    KIND_TYPE,
    KPi,
    Lam,
    NatLit,
    PrincipalLit,
    TApp,
    TConst,
    TPi,
    Var,
    arrow,
)
from repro.lf.walk import alpha_equal, free_vars, substitute, substitute_this


class TestFreeVars:
    def test_var(self):
        assert free_vars(Var("x")) == {"x"}

    def test_lambda_binds(self):
        assert free_vars(Lam("x", NAT_T, Var("x"))) == set()
        assert free_vars(Lam("x", NAT_T, Var("y"))) == {"y"}

    def test_pi_binds(self):
        assert free_vars(TPi("x", NAT_T, TApp(NAT_T, Var("x")))) == set()
        assert "y" in free_vars(KPi("x", TApp(NAT_T, Var("y")), KIND_TYPE))

    def test_literals_closed(self):
        assert free_vars(NatLit(3)) == set()
        assert free_vars(PrincipalLit(b"\x01" * 20)) == set()


class TestSubstitution:
    def test_basic(self):
        assert substitute(Var("x"), "x", NatLit(1)) == NatLit(1)
        assert substitute(Var("y"), "x", NatLit(1)) == Var("y")

    def test_shadowing(self):
        # λx.x with [1/x] is unchanged.
        lam = Lam("x", NAT_T, Var("x"))
        assert substitute(lam, "x", NatLit(1)) == lam

    def test_capture_avoidance(self):
        # [x/y] in λx.y must NOT produce λx.x.
        lam = Lam("x", NAT_T, Var("y"))
        result = substitute(lam, "y", Var("x"))
        assert isinstance(result, Lam)
        assert result.var != "x"
        assert result.body == Var("x")

    def test_app_descends(self):
        term = App(Var("f"), Var("x"))
        assert substitute(term, "x", NatLit(2)) == App(Var("f"), NatLit(2))


class TestAlphaEquality:
    def test_renamed_binders_equal(self):
        a = Lam("x", NAT_T, Var("x"))
        b = Lam("y", NAT_T, Var("y"))
        assert alpha_equal(a, b)

    def test_free_vars_differ(self):
        assert not alpha_equal(Var("x"), Var("y"))

    def test_bound_vs_free(self):
        a = Lam("x", NAT_T, Var("x"))
        b = Lam("y", NAT_T, Var("x"))
        assert not alpha_equal(a, b)

    def test_literals(self):
        assert alpha_equal(NatLit(5), NatLit(5))
        assert not alpha_equal(NatLit(5), NatLit(6))

    def test_nested_binders(self):
        a = Lam("x", NAT_T, Lam("y", NAT_T, App(Var("x"), Var("y"))))
        b = Lam("y", NAT_T, Lam("x", NAT_T, App(Var("y"), Var("x"))))
        assert alpha_equal(a, b)

    def test_swapped_not_equal(self):
        a = Lam("x", NAT_T, Lam("y", NAT_T, App(Var("x"), Var("y"))))
        b = Lam("x", NAT_T, Lam("y", NAT_T, App(Var("y"), Var("x"))))
        assert not alpha_equal(a, b)


class TestThisResolution:
    def test_const_resolved(self):
        txid = b"\xab" * 32
        local = Const(ConstRef(THIS, "coin"))
        resolved = substitute_this(local, txid)
        assert resolved == Const(ConstRef(txid, "coin"))

    def test_builtin_untouched(self):
        txid = b"\xab" * 32
        builtin = Const(ConstRef(BUILTIN, "add"))
        assert substitute_this(builtin, txid) == builtin

    def test_other_txid_untouched(self):
        txid = b"\xab" * 32
        other = Const(ConstRef(b"\xcd" * 32, "coin"))
        assert substitute_this(other, txid) == other

    def test_descends_into_binders(self):
        txid = b"\xab" * 32
        fam = TPi("x", TConst(ConstRef(THIS, "t")), TApp(NAT_T, Var("x")))
        resolved = substitute_this(fam, txid)
        assert resolved.domain == TConst(ConstRef(txid, "t"))


class TestMisc:
    def test_negative_nat_rejected(self):
        with pytest.raises(ValueError):
            NatLit(-1)

    def test_principal_length_enforced(self):
        with pytest.raises(ValueError):
            PrincipalLit(b"\x01" * 19)

    def test_arrow_is_nondependent(self):
        arr = arrow(NAT_T, NAT_T)
        assert arr.var not in free_vars(arr.body)

    def test_str_forms(self):
        assert str(NatLit(3)) == "3"
        assert "this.coin" in str(Const(ConstRef(THIS, "coin")))
        assert str(KIND_TYPE) == "type"
