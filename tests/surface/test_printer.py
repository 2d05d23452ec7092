"""``str`` is the surface printer, and what it prints parses back.

The oracle is the encoding: it is α-invariant for LF and proof binders
alike, so ``encode(parse(str(x))) == encode(x)`` says the text names the
same node without asking the printer to keep any binder's name.
"""

import typing

from hypothesis import given, settings, strategies as st

from repro.lf.basis import ADD, NAT, NAT_T, KindDecl, PropDecl, TypeDecl
from repro.lf.syntax import (
    BUILTIN,
    THIS,
    App,
    Const,
    ConstRef,
    KindT,
    Lam,
    NatLit,
    PrincipalLit,
    TApp,
    TConst,
    TypeFamily,
    Var,
)
from repro.logic import proofterms as pt
from repro.logic.codec import encode
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
    Receipt,
    Says,
    Tensor,
    With,
    Zero,
)
from repro.surface.parser import parse_family, parse_kind, parse_prop, parse_term
from repro.surface.proofs import parse_proof

P = TConst(ConstRef(THIS, "p"))
RULE = pt.PConst(ConstRef(THIS, "rule"))
KEY = PrincipalLit(b"\xaa" * 20)
SIGNED = pt.Affirmation(b"\x02" * 33, b"\x03" * 64)
# Binder names as capture-avoiding substitution leaves them: a root and
# a ``$`` suffix, several of which print alike once the suffix is gone.
NAMES = st.sampled_from(["x", "x$0", "x$1", "y$2"])
TXID = b"\x44" * 32


def parsed(node):
    """``node`` read back from ``str(node)`` by the parser of its category."""
    text = str(node)
    if node.__class__ in typing.get_args(KindT):
        return parse_kind(text)
    if node.__class__ in typing.get_args(TypeFamily):
        return parse_family(text)
    if node.__class__ in typing.get_args(pt.ProofTerm):
        return parse_proof(text)
    return parse_prop(text)


def assert_round_trips(node):
    assert encode(parsed(node)) == encode(node), str(node)


# -- closed nodes with `$`-suffixed binders --------------------------------


@st.composite
def terms(draw, lf, depth=2):
    """A closed LF term of type nat over the LF variables ``lf``."""
    leaves = [st.builds(NatLit, st.integers(0, 9))]
    if lf:
        leaves.append(st.sampled_from(lf).map(Var))
    if depth == 0 or draw(st.booleans()):
        return draw(st.one_of(leaves))
    if draw(st.booleans()):
        left, right = draw(terms(lf, depth - 1)), draw(terms(lf, depth - 1))
        return App(App(Const(ADD), left), right)
    var = draw(NAMES)
    func = Lam(var, NAT_T, draw(terms((*lf, var), depth - 1)))
    return App(func, draw(terms(lf, depth - 1)))


@st.composite
def conditions(draw, lf):
    return draw(st.one_of(
        st.builds(CTrue),
        terms(lf).map(Before),
        st.builds(Spent, st.just(TXID), st.integers(0, 3)),
        st.builds(lambda t: CAnd(CNot(Before(t)), CTrue()), terms(lf)),
    ))


@st.composite
def props(draw, lf=(), depth=3):
    """A closed proposition over the LF variables ``lf``."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.one_of(
            st.builds(One),
            st.builds(Zero),
            st.builds(lambda a, b: Atom(TApp(TApp(P, a), b)), terms(lf), terms(lf)),
        ))
    sub = props(lf, depth - 1)
    kind = draw(st.integers(0, 9))
    if kind < 4:
        return (Lolli, Tensor, With, Plus)[kind](draw(sub), draw(sub))
    if kind == 4:
        return Bang(draw(sub))
    if kind == 5:
        return Says(KEY, draw(sub))
    if kind == 6:
        return IfProp(draw(conditions(lf)), draw(sub))
    if kind == 7:
        return Receipt(draw(sub), draw(st.integers(0, 5)), KEY)
    var = draw(NAMES)
    quantifier = Forall if kind == 8 else Exists
    return quantifier(var, NAT_T, draw(props((*lf, var), depth - 1)))


@st.composite
def proofs(draw, lf=(), proof=(), depth=3):
    """A closed proof term — not a well-typed one — over the LF variables
    ``lf`` and the proof variables ``proof``; proof binders draw from the
    same names as LF binders, so the two kinds share one naming scope."""
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        leaves = [st.builds(pt.OneIntro), st.just(RULE)]
        if proof:
            leaves.append(st.sampled_from(proof).map(pt.PVar))
        return draw(st.one_of(leaves))
    sub = proofs(lf, proof, depth - 1)
    prop = props(lf, 1)
    form = draw(st.sampled_from([
        "pair", "prefix", "inject", "abort", "unit", "instance", "say", "if",
        "assert", "pack", "tfn", "unpack", "split", "case", "fn", "bind",
    ]))
    if form == "pair":
        pair = draw(st.sampled_from([pt.LolliElim, pt.TensorIntro, pt.WithIntro]))
        return pair(draw(sub), draw(sub))
    if form == "prefix":
        prefix = draw(st.sampled_from([pt.WithFst, pt.WithSnd, pt.BangIntro, pt.IfSay]))
        return prefix(draw(sub))
    if form == "inject":
        return draw(st.sampled_from([pt.PlusInl, pt.PlusInr]))(draw(prop), draw(sub))
    if form == "abort":
        return pt.ZeroElim(draw(sub), draw(prop))
    if form == "unit":
        return pt.OneElim(draw(sub), draw(sub))
    if form == "instance":
        return pt.ForallElim(draw(sub), draw(terms(lf)))
    if form == "say":
        return pt.SayReturn(KEY, draw(sub))
    if form == "if":
        unit = draw(st.sampled_from([pt.IfReturn, pt.IfWeaken]))
        return unit(draw(conditions(lf)), draw(sub))
    if form == "assert":
        signed = draw(st.sampled_from([pt.Assert, pt.AssertPersistent]))
        return signed(KEY, draw(prop), SIGNED)
    var = draw(NAMES)
    if form == "pack":
        witness = Exists(var, NAT_T, draw(props((*lf, var), 1)))
        return pt.ExistsIntro(witness, draw(terms(lf)), draw(sub))
    if form == "tfn":
        return pt.ForallIntro(var, NAT_T, draw(proofs((*lf, var), proof, depth - 1)))
    if form == "unpack":
        proof_var = draw(NAMES)
        body = draw(proofs((*lf, var), (*proof, proof_var), depth - 1))
        return pt.ExistsElim(var, proof_var, draw(sub), body)
    if form == "split":
        right = draw(NAMES)
        body = draw(proofs(lf, (*proof, var, right), depth - 1))
        return pt.TensorElim(var, right, draw(sub), body)
    if form == "case":
        right = draw(NAMES)
        return pt.PlusCase(
            draw(sub),
            var, draw(proofs(lf, (*proof, var), depth - 1)),
            right, draw(proofs(lf, (*proof, right), depth - 1)),
        )
    body = draw(proofs(lf, (*proof, var), depth - 1))
    if form == "fn":
        return pt.LolliIntro(var, draw(prop), body)
    binder = draw(st.sampled_from([pt.BangElim, pt.SayBind, pt.IfBind]))
    return binder(var, draw(sub), body)


def test_a_dollar_suffixed_binder_does_not_capture():
    """``forall x. forall x$0. p x x$0`` used to print as ``forall x:nat.
    forall x:nat. this.p x x``, which reads back as a different
    proposition."""
    prop = Forall("x", NAT_T, Forall("x$0", NAT_T, Atom(
        TApp(TApp(P, Var("x")), Var("x$0"))
    )))
    assert str(prop) == "forall x:nat. forall x_2:nat. this.p x x_2"
    assert_round_trips(prop)


def test_a_binder_avoids_what_a_free_variable_prints_as():
    """Open nodes are printed in messages: a binder must not capture a
    free variable, and a free name outside the identifier grammar is
    quoted."""
    body = Atom(TApp(TApp(P, Var("x")), Var("x$0")))
    assert str(Forall("x$0", NAT_T, body)) == "forall x_2:nat. this.p x x_2"
    assert str(body) == 'this.p x "x$0"'


def test_an_lf_binder_in_a_proof_does_not_capture_inside_a_proposition():
    """A proof's LF binders and the propositions under them share one
    scope: ``tfn x$0`` over an annotation naming an outer ``x``."""
    proof = pt.ForallIntro("x", NAT_T, pt.ForallIntro("x$0", NAT_T, pt.LolliIntro(
        "x", Atom(TApp(TApp(P, Var("x")), Var("x$0"))), pt.PVar("x"),
    )))
    assert str(proof) == "tfn x : nat. tfn x_2 : nat. fn x_3 : this.p x x_2. x_3"
    assert_round_trips(proof)


@given(props())
@settings(max_examples=300, deadline=None)
def test_propositions_with_dollar_names_round_trip(prop):
    assert_round_trips(prop)


@given(proofs())
@settings(max_examples=300, deadline=None)
def test_proof_terms_with_dollar_names_round_trip(proof):
    assert_round_trips(proof)


# -- constant names -----------------------------------------------------------


def test_a_constant_name_with_a_hyphen_round_trips():
    """``this.option-good`` used to stop the lexer at the ``-``."""
    good = Atom(TConst(ConstRef(THIS, "option-good")))
    assert str(good) == 'this."option-good"'
    assert_round_trips(good)


@given(
    st.text(min_size=1),
    st.sampled_from([THIS, BUILTIN, TXID]),
    st.sampled_from(["family", "term", "proof"]),
)
@settings(max_examples=500, deadline=None)
def test_any_constant_name_round_trips(name, space, where):
    ref = ConstRef(space, name)
    if where == "family":
        assert parse_family(str(TConst(ref))) == TConst(ref)
    elif where == "term":
        assert parse_term(str(Const(ref))) == Const(ref)
    else:
        assert parse_proof(str(pt.PConst(ref))) == pt.PConst(ref)


def test_a_builtin_prints_by_the_bare_name_the_parser_reads_there():
    assert str(TConst(NAT)) == "nat"
    assert str(TConst(ConstRef(BUILTIN, "time"))) == "builtin.time"
    assert str(Const(ADD)) == "add" and str(Const(NAT)) == "builtin.nat"
    assert str(pt.PConst(ADD)) == "builtin.add"


# -- the benchmark's working set -------------------------------------------


def test_every_node_of_the_working_set_round_trips(working_set):
    """Every kind, family, proposition and proof term of the working
    set's transactions: 4 propositions and 2 proofs that name
    ``*-good`` / ``*-exercise`` constants used to raise ``LexError``."""
    transactions = {}
    for claim in working_set.claims:
        transactions.update(claim.bundle.transactions)
    declared = {KindDecl: "kind", TypeDecl: "family", PropDecl: "prop"}
    nodes = []
    for txn in transactions.values():
        nodes += [getattr(decl, declared[type(decl)]) for _, decl in txn.basis]
        nodes += [txn.grant, *(i.prop for i in txn.inputs)]
        nodes += [*(o.prop for o in txn.outputs), txn.proof]
    assert (len(transactions), len(nodes)) == (79, 322)
    for node in nodes:
        assert_round_trips(node)
