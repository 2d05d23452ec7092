"""Normal forms are kept on the node: the same answer as rebuilding them.

``repro.lf.walk.normalize`` stores its result on the frozen node it was
given, whatever the node's syntactic class.  The
reference is ``tests.oracles.plain_normalize_prop``, the normaliser as it
was before, which rebuilds every node on every call.  Over hypothesis-built
propositions full of β- and δ-redexes and over every proposition of the
benchmark's working set (the §6 currency with its merge and split, the
Figure 3 purchase, the §5 conditionals and the §7 escrow), the memoised
result must be α-equal to the oracle's, a second call must return the
very same object, and a normal form must be its own.  The memo must not
show in anything that reads a node's value.
"""

import copy
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from bench.workloads.claims import build_working_set
from repro.core.transaction import TypecoinOutput, TypecoinTransaction
from repro.core.verifier import verify_claim
from repro.core.wire import decode_bundle, encode_bundle
from repro.lf.basis import ADD, NAT_T, PRINCIPAL_T, Basis
from repro.lf.syntax import (
    App,
    Const,
    ConstRef,
    Lam,
    NatLit,
    PrincipalLit,
    THIS,
    TApp,
    TConst,
    TPi,
    Var,
)
from repro.lf.walk import NORMAL_FORM, alpha_equal, nodes_of_type, normalize
from repro.logic.codec import encode
from repro.logic.conditions import (
    Before,
    CAnd,
    CNot,
    CTrue,
    Spent,
)
from repro.logic.proofterms import OneIntro
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
)

from tests.oracles import (
    plain_normalize,
    plain_normalize_cond,
    plain_normalize_family,
    plain_normalize_prop,
)

PROPOSITION = (
    Atom, Lolli, Tensor, With, Plus, Zero, One, Bang, Forall, Exists, Says,
    Receipt, IfProp,
)
CONDITION = (CTrue, CAnd, CNot, Before, Spent)
FAMILY = (TConst, TApp, TPi)
TERM = (Var, Const, Lam, App, PrincipalLit, NatLit)

COIN = TConst(ConstRef(THIS, "coin"))
PUBKEY = b"\x02" + b"\x33" * 32
# Few names, so binders shadow and substitutions must rename.
NAMES = ("q", "x", "y")
KEY = PrincipalLit(b"\x44" * 20)


def _add(a, b):
    return App(App(Const(ADD), a), b)


nat_terms = st.recursive(
    st.one_of(
        st.builds(NatLit, st.integers(0, 50)),
        st.sampled_from([Var(name) for name in NAMES]),
    ),
    lambda sub: st.one_of(
        st.builds(_add, sub, sub),
        st.builds(
            lambda name, body, arg: App(Lam(name, NAT_T, body), arg),
            st.sampled_from(NAMES),
            sub,
            sub,
        ),
    ),
    max_leaves=6,
)

principal_terms = st.one_of(
    st.just(KEY),
    st.builds(lambda: App(Lam("k", PRINCIPAL_T, Var("k")), KEY)),
)

families = st.one_of(
    st.just(NAT_T),
    st.builds(lambda t: TApp(COIN, t), nat_terms),
    st.builds(
        lambda name, t: TPi(name, NAT_T, TApp(COIN, t)), st.sampled_from(NAMES), nat_terms
    ),
)

conditions = st.recursive(
    st.one_of(
        st.builds(CTrue),
        st.builds(Before, nat_terms),
        st.builds(Spent, st.just(b"\x33" * 32), st.integers(0, 3)),
    ),
    lambda sub: st.one_of(st.builds(CAnd, sub, sub), st.builds(CNot, sub)),
    max_leaves=4,
)

propositions = st.recursive(
    st.one_of(
        st.builds(One),
        st.builds(Zero),
        st.builds(lambda t: Atom(TApp(COIN, t)), nat_terms),
    ),
    lambda sub: st.one_of(
        st.builds(Lolli, sub, sub),
        st.builds(Tensor, sub, sub),
        st.builds(With, sub, sub),
        st.builds(Plus, sub, sub),
        st.builds(Bang, sub),
        st.builds(Says, principal_terms, sub),
        st.builds(IfProp, conditions, sub),
        st.builds(Receipt, sub, st.integers(0, 10_000), principal_terms),
        st.builds(Forall, st.sampled_from(NAMES), families, sub),
        st.builds(Exists, st.sampled_from(NAMES), families, sub),
    ),
    max_leaves=8,
)


def _all_nodes(root):
    """Every syntax node under ``root``, itself included."""
    stack, seen = [root], []
    while stack:
        node = stack.pop()
        if isinstance(node, (tuple, list)):
            stack.extend(node)
        elif dataclasses.is_dataclass(node):
            seen.append(node)
            stack.extend(getattr(node, f.name) for f in dataclasses.fields(node))
    return seen


def _agrees_with_the_oracle(node):
    """Check one node's memoised normal form against the oracle's, and
    that the memo returns one object and keeps normal forms fixed."""
    if isinstance(node, PROPOSITION):
        plain = plain_normalize_prop
    elif isinstance(node, CONDITION):
        plain = plain_normalize_cond
    elif isinstance(node, FAMILY):
        plain = plain_normalize_family
    elif isinstance(node, TERM):
        plain = plain_normalize
    else:
        return False
    expected = plain(node)
    normal = normalize(node)
    assert alpha_equal(normal, expected), node
    assert normalize(node) is normal
    assert normalize(normal) is normal
    return True


def _check_everywhere(root):
    checked = sum(_agrees_with_the_oracle(node) for node in _all_nodes(root))
    assert checked


@given(propositions)
@settings(max_examples=300, deadline=None)
def test_the_memo_agrees_with_the_oracle_on_every_node(prop):
    # Cold: the root first, so the memo is filled top-down; then every
    # node under it, each now a memo hit.
    assert _agrees_with_the_oracle(prop)
    _check_everywhere(prop)


@given(propositions)
@settings(max_examples=200, deadline=None)
def test_the_memo_agrees_with_the_oracle_bottom_up(prop):
    # Leaves first: a parent's rebuild then meets children already kept.
    for node in reversed(_all_nodes(prop)):
        _agrees_with_the_oracle(node)


def test_a_redex_free_node_is_its_own_normal_form():
    prop = Forall("q", NAT_T, Tensor(Atom(TApp(COIN, Var("q"))), One()))
    assert normalize(prop) is prop
    assert prop.__dict__[NORMAL_FORM] is True
    assert prop.body.__dict__[NORMAL_FORM] is True


def test_a_rebuild_keeps_every_unchanged_child():
    untouched = Bang(Atom(TApp(COIN, NatLit(1))))
    prop = Tensor(untouched, Atom(TApp(COIN, _add(NatLit(2), NatLit(3)))))
    normal = normalize(prop)
    assert normal is not prop and normal.left is untouched
    assert normal.right.family.arg == NatLit(5)
    assert normalize(prop) is normal and normalize(normal) is normal


def test_one_shared_node_under_different_binders_is_not_alpha_equal():
    """α-equivalence short-cuts ``a is b`` only where both sides bind every
    name alike: one ``coin x`` object means the outer binder on one side
    and the inner one on the other."""
    shared_term = Var("x")
    assert not alpha_equal(
        Lam("x", NAT_T, Lam("y", NAT_T, shared_term)),
        Lam("y", NAT_T, Lam("x", NAT_T, shared_term)),
    )
    shared = Atom(TApp(COIN, Var("x")))
    outer = Forall("x", NAT_T, Forall("y", NAT_T, shared))
    inner = Forall("y", NAT_T, Forall("x", NAT_T, shared))
    assert not alpha_equal(outer, inner)
    assert alpha_equal(outer, Forall("x", NAT_T, Forall("y", NAT_T, shared)))
    time = Before(Var("x"))
    assert not alpha_equal(
        Forall("x", NAT_T, Forall("y", NAT_T, IfProp(time, One()))),
        Forall("y", NAT_T, Forall("x", NAT_T, IfProp(time, One()))),
    )


@given(propositions)
@settings(max_examples=150, deadline=None)
def test_the_memo_is_invisible_to_everything_that_reads_a_value(prop):
    for name in NAMES:  # closed, so that it has an encoding
        prop = Forall(name, NAT_T, prop)
    twin = copy.deepcopy(prop)
    outputs = [TypecoinOutput(prop, 600, PUBKEY)]
    txn = TypecoinTransaction(Basis(), prop, [], outputs, OneIntro())
    twin_txn = TypecoinTransaction(
        Basis(), twin, [], [TypecoinOutput(twin, 600, PUBKEY)], OneIntro()
    )
    walked = {kind: nodes_of_type(txn, kind) for kind in (ConstRef, Var, NatLit)}
    encoded = encode(prop)

    normalize(prop)
    assert NORMAL_FORM in prop.__dict__ or isinstance(prop, (Zero, One))
    assert prop == twin and hash(prop) == hash(twin) and repr(prop) == repr(twin)
    assert str(prop) == str(twin)
    assert [f.name for f in dataclasses.fields(prop)] == [
        f.name for f in dataclasses.fields(twin)
    ]
    assert {kind: nodes_of_type(txn, kind) for kind in walked} == walked
    assert encode(prop) == encoded == encode(twin)
    assert txn.serialize() == twin_txn.serialize()


@pytest.fixture(scope="module")
def working_set():
    return build_working_set(7, 1)


def _corpus(bundles):
    """Each claimed type, and the outermost propositions and LF terms of
    every transaction (bases, grants, inputs, outputs, proof terms);
    ``_check_everywhere`` descends from them."""
    for bundle in bundles:
        yield bundle.prop
        for txn in bundle.transactions.values():
            yield from nodes_of_type(txn, PROPOSITION)
            yield from nodes_of_type(txn, TERM)


def test_every_working_set_proposition_agrees_with_the_oracle(working_set):
    """Fig. 3, escrow, merge/split and the conditionals, freshly decoded,
    before and after the checker has filled the memo its own way."""
    claims = working_set.claims
    fresh = [decode_bundle(encode_bundle(claim.bundle)) for claim in claims]
    for root in _corpus(fresh):
        _check_everywhere(root)

    checked = [decode_bundle(encode_bundle(claim.bundle)) for claim in claims]
    for bundle in checked:
        verify_claim(working_set.chain, bundle)
    for root in _corpus(checked):
        _check_everywhere(root)
    # The objects the benchmark re-presents, checked many times over.
    for root in _corpus([claim.bundle for claim in claims]):
        _check_everywhere(root)
    for claim in claims:
        assert alpha_equal(
            normalize(claim.wrong.prop), plain_normalize_prop(claim.wrong.prop)
        )
