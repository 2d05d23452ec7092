"""Tests for the canonical (hashable/signable) encoding."""

import pytest

from repro.lf.basis import NAT_T, PLUS
from repro.lf.syntax import (
    App,
    Const,
    ConstRef,
    Lam,
    NatLit,
    PrincipalLit,
    TConst,
    THIS,
    Var,
)
from repro.logic.codec import EncodingError, encode, write_uint
from repro.logic.conditions import Before, CAnd, CNot, CTrue, Spent
from repro.logic.propositions import (
    Bang,
    Exists,
    Forall,
    IfProp,
    Lolli,
    One,
    Receipt,
    Says,
    Tensor,
    With,
    Zero,
)

from tests.logic.conftest import coin

ALICE = PrincipalLit(b"\xaa" * 20)


def test_alpha_invariance_of_terms():
    a = Lam("x", NAT_T, Var("x"))
    b = Lam("y", NAT_T, Var("y"))
    assert encode(a) == encode(b)


def test_alpha_invariance_of_props():
    a = Forall("n", NAT_T, coin(Var("n")))
    b = Forall("m", NAT_T, coin(Var("m")))
    assert encode(a) == encode(b)


def test_distinct_props_distinct_encodings():
    props = [
        One(),
        Zero(),
        coin(1),
        coin(2),
        Tensor(One(), One()),
        With(One(), One()),
        Lolli(One(), One()),
        Bang(One()),
        Says(ALICE, One()),
        Receipt(One(), 5, ALICE),
        Receipt(One(), 6, ALICE),
        IfProp(CTrue(), One()),
        Forall("n", NAT_T, One()),
        Exists("n", NAT_T, One()),
    ]
    encodings = [encode(p) for p in props]
    assert len(set(encodings)) == len(encodings)


def test_free_variables_rejected():
    with pytest.raises(EncodingError, match="free variable"):
        encode(Var("loose"))
    with pytest.raises(EncodingError):
        encode(coin(Var("n")))


def test_a_negative_integer_has_no_encoding():
    """LEB128 of a negative number never terminates: refused up front."""
    with pytest.raises(ValueError, match="unsigned"):
        write_uint(-1)


def test_bound_variables_fine():
    encode(Forall("n", NAT_T, coin(Var("n"))))


def test_nested_binder_indices():
    # λx.λy.x vs λx.λy.y must differ.
    a = Lam("x", NAT_T, Lam("y", NAT_T, Var("x")))
    b = Lam("x", NAT_T, Lam("y", NAT_T, Var("y")))
    assert encode(a) != encode(b)


def test_namespace_separation():
    this_const = Const(ConstRef(THIS, "c"))
    txid_const = Const(ConstRef(b"\x00" * 32, "c"))
    assert encode(this_const) != encode(txid_const)


def test_condition_encodings_distinct():
    conds = [
        CTrue(),
        Before(NatLit(1)),
        Before(NatLit(2)),
        Spent(b"\x01" * 32, 0),
        Spent(b"\x01" * 32, 1),
        CNot(CTrue()),
        CAnd(CTrue(), CTrue()),
    ]
    encodings = [encode(c) for c in conds]
    assert len(set(encodings)) == len(encodings)


def test_length_prefixing_prevents_ambiguity():
    # receipt(1/1 ↠ K) vs receipt(1/17 ↠ K) with trailing structure.
    a = encode(Tensor(Receipt(One(), 1, ALICE), One()))
    b = encode(Tensor(Receipt(One(), 17, ALICE), One()))
    assert a != b


def test_application_encoding_is_order_sensitive():
    f = Const(ConstRef(THIS, "f"))
    a = App(App(f, NatLit(1)), NatLit(2))
    b = App(App(f, NatLit(2)), NatLit(1))
    assert encode(a) != encode(b)
