"""Tests for proposition structure, substitution, and equality."""

import pytest

from repro.lf.basis import NAT_T, PRINCIPAL_T
from repro.lf.syntax import NatLit, PrincipalLit, Var
from repro.logic.propositions import (
    Atom,
    Bang,
    Exists,
    Forall,
    IfProp,
    Lolli,
    One,
    Plus,
    Receipt,
    Says,
    Tensor,
    With,
    Zero,
    tensor_all,
)
from repro.lf.walk import (
    alpha_equal,
    convertible,
    free_vars,
    substitute,
    substitute_this,
)
from repro.logic.conditions import Before, CTrue

from tests.logic.conftest import coin

ALICE = PrincipalLit(b"\xaa" * 20)


class TestTensorAll:
    def test_empty_is_one(self):
        assert tensor_all([]) == One()

    def test_singleton(self):
        assert tensor_all([coin(1)]) == coin(1)

    def test_right_nested(self):
        result = tensor_all([coin(1), coin(2), coin(3)])
        assert result == Tensor(coin(1), Tensor(coin(2), coin(3)))


class TestFreeVars:
    def test_atom(self):
        assert free_vars(coin(Var("n"))) == {"n"}

    def test_forall_binds(self):
        prop = Forall("n", NAT_T, coin(Var("n")))
        assert free_vars(prop) == set()

    def test_exists_binds(self):
        prop = Exists("n", NAT_T, Tensor(coin(Var("n")), coin(Var("m"))))
        assert free_vars(prop) == {"m"}

    def test_says_principal_counted(self):
        prop = Says(Var("k"), One())
        assert free_vars(prop) == {"k"}

    def test_receipt_recipient_counted(self):
        prop = Receipt(One(), 5, Var("k"))
        assert free_vars(prop) == {"k"}

    def test_condition_vars_counted(self):
        prop = IfProp(Before(Var("t")), One())
        assert free_vars(prop) == {"t"}


class TestSubstitution:
    def test_atom_substitution(self):
        prop = coin(Var("n"))
        assert substitute(prop, "n", NatLit(5)) == coin(5)

    def test_shadowed_not_substituted(self):
        prop = Forall("n", NAT_T, coin(Var("n")))
        assert substitute(prop, "n", NatLit(5)) == prop

    def test_capture_avoided(self):
        # [n/m] into ∀n. coin m must not capture.
        prop = Forall("n", NAT_T, coin(Var("m")))
        result = substitute(prop, "m", Var("n"))
        assert isinstance(result, Forall)
        assert result.var != "n"
        assert free_vars(result) == {"n"}

    def test_says_substitution(self):
        prop = Says(Var("k"), coin(Var("n")))
        result = substitute(prop, "k", ALICE)
        assert result == Says(ALICE, coin(Var("n")))

    def test_condition_substitution(self):
        prop = IfProp(Before(Var("t")), One())
        result = substitute(prop, "t", NatLit(99))
        assert result == IfProp(Before(NatLit(99)), One())


class TestEquality:
    def test_alpha_quantifiers(self):
        a = Forall("n", NAT_T, coin(Var("n")))
        b = Forall("m", NAT_T, coin(Var("m")))
        assert alpha_equal(a, b)

    def test_different_connectives_unequal(self):
        assert not alpha_equal(Tensor(One(), One()), With(One(), One()))
        assert not alpha_equal(Zero(), One())

    def test_normalization_in_equality(self):
        from repro.lf.basis import ADD
        from repro.lf.syntax import Const, apply_term

        computed = coin(apply_term(Const(ADD), NatLit(2), NatLit(3)))
        assert convertible(computed, coin(5))
        assert not convertible(computed, coin(6))

    def test_receipt_amount_matters(self):
        assert not alpha_equal(
            Receipt(One(), 1, ALICE), Receipt(One(), 2, ALICE)
        )

    def test_bang_plus(self):
        assert alpha_equal(Bang(Plus(One(), Zero())), Bang(Plus(One(), Zero())))


class TestThisResolution:
    def test_atom_head_resolved(self):
        txid = b"\x11" * 32
        resolved = substitute_this(coin(1), txid)
        assert "this" not in str(resolved)
        assert convertible(substitute_this(coin(1), txid), resolved)

    def test_nested_resolution(self):
        txid = b"\x11" * 32
        prop = Lolli(coin(1), IfProp(CTrue(), Says(ALICE, coin(2))))
        resolved = substitute_this(prop, txid)
        assert "this" not in str(resolved)

    def test_receipt_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            Receipt(One(), -1, ALICE)
