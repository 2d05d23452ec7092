"""The one walker set, against independent decision procedures.

``alpha_equal`` is checked against the de Bruijn encoder — a second,
independent decision procedure for α-equivalence of closed terms — and
``substitute`` against the laws capture-avoiding substitution must obey,
over the shadowing-heavy propositions of ``test_normal_form_memo``.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.lf.basis import ADD, NAT_T
from repro.lf.syntax import App, Const, ConstRef, Lam, TApp, TPi, Var
from repro.lf.walk import alpha_equal, free_vars, substitute
from repro.logic.codec import Cursor, decode, encode
from repro.logic.conditions import Before
from repro.logic.propositions import Atom, Exists, Forall, IfProp, One, Proposition

from tests.logic.test_normal_form_memo import COIN, NAMES, nat_terms, propositions

# A permutation of every variable name the strategies use.
SWAP = {"q": "x", "x": "y", "y": "q"}


def closed(prop):
    for name in NAMES:
        prop = Forall(name, NAT_T, prop)
    return prop


def swapped(node):
    """``node`` with every LF variable name, bound and free, permuted by
    ``SWAP``: α-equivalent to ``node`` when ``node`` is closed."""
    if isinstance(node, Var):
        return Var(SWAP.get(node.name, node.name))
    if not dataclasses.is_dataclass(node) or isinstance(node, ConstRef):
        return node
    values = {}
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if field.name == "var":
            values["var"] = SWAP.get(value, value)
        else:
            values[field.name] = swapped(value)
    return type(node)(**values)


def rebound(node, env=None, depth=0):
    """``node`` with every binder renamed to ``b<depth>``, a name no
    strategy uses, and its bound occurrences with it; free names stay."""
    env = env or {}
    if isinstance(node, Var):
        return Var(env.get(node.name, node.name))
    if not dataclasses.is_dataclass(node) or isinstance(node, ConstRef):
        return node
    values = {}
    inner = env
    if isinstance(node, (Lam, TPi, Forall, Exists)):
        inner = {**env, node.var: f"b{depth}"}
        values["var"] = f"b{depth}"
    for field in dataclasses.fields(node):
        if field.name == "var":
            continue
        scope = inner if field.name == "body" else env
        values[field.name] = rebound(getattr(node, field.name), scope, depth + 1)
    return type(node)(**values)


def coin(term):
    return Atom(TApp(COIN, term))


def add(a, b):
    return App(App(Const(ADD), a), b)


HOW = st.sampled_from(["self", "decoded", "swapped", "other"])


@given(propositions, propositions, HOW)
@settings(max_examples=400, deadline=None)
def test_alpha_equal_is_equality_of_de_bruijn_encodings(p, other, how):
    p = closed(p)
    if how == "self":
        q = p
    elif how == "decoded":  # every binder renamed u0, u1, …
        q = decode(Cursor(encode(p)), Proposition)
    elif how == "swapped":
        q = swapped(p)
    else:
        q = closed(other)
    assert alpha_equal(p, q) == (encode(p) == encode(q))
    if how != "other":
        assert alpha_equal(p, q)


def test_one_shared_subterm_under_swapped_binders():
    shared = coin(Var("x"))
    outer = Forall("x", NAT_T, Forall("y", NAT_T, shared))
    inner = Forall("y", NAT_T, Forall("x", NAT_T, shared))
    assert encode(outer) != encode(inner)
    assert not alpha_equal(outer, inner)
    twin = Forall("x", NAT_T, Forall("y", NAT_T, shared))
    assert encode(outer) == encode(twin) and alpha_equal(outer, twin)


@given(propositions, st.sampled_from(NAMES), nat_terms)
@settings(max_examples=300, deadline=None)
def test_substitution_frees_exactly_what_it_should(p, x, t):
    before = free_vars(p)
    expected = (before - {x}) | (free_vars(t) if x in before else frozenset())
    assert free_vars(substitute(p, x, t)) == expected


@given(propositions, st.sampled_from(NAMES), nat_terms)
@settings(max_examples=300, deadline=None)
def test_substitution_respects_alpha(p, x, t):
    twin = rebound(p)
    assert alpha_equal(p, twin)
    assert alpha_equal(substitute(p, x, t), substitute(twin, x, t))


@given(propositions, st.sampled_from(NAMES), nat_terms)
@settings(max_examples=200, deadline=None)
def test_substitution_of_an_absent_variable_returns_the_node(p, x, t):
    if x not in free_vars(p):
        assert substitute(p, x, t) is p


def test_a_replacement_is_not_captured_by_an_inner_binder():
    """[y/x] ∀y. coin (x + y) is ∀z. coin (y + z), not ∀y. coin (y + y)."""
    prop = Forall("y", NAT_T, coin(add(Var("x"), Var("y"))))
    result = substitute(prop, "x", Var("y"))
    assert isinstance(result, Forall) and result.var != "y"
    assert free_vars(result) == {"y"}
    assert alpha_equal(result, Forall("z", NAT_T, coin(add(Var("y"), Var("z")))))
    # Through a condition and an LF λ as well.
    time = App(Lam("x", NAT_T, Var("y")), Var("x"))
    prop = Exists("y", NAT_T, IfProp(Before(time), One()))
    result = substitute(prop, "x", Var("y"))
    assert free_vars(result) == {"y"}
