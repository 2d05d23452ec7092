"""Tests for the surface parser and pretty-printer round trip."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lf.basis import NAT, NAT_T, PLUS, PRINCIPAL
from repro.lf.walk import alpha_equal, convertible
from repro.lf.syntax import (
    ConstRef,
    KIND_PROP,
    KPi,
    Lam,
    NatLit,
    PrincipalLit,
    TApp,
    TConst,
    THIS,
    TPi,
    Var,
)
from repro.logic.conditions import (
    Before,
    CAnd,
    CNot,
    CTrue,
    Spent,
)
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
from repro.surface.parser import (
    ParseError,
    Resolver,
    parse_basis_text,
    parse_cond,
    parse_family,
    parse_kind,
    parse_prop,
    parse_term,
)
from repro.surface.pretty import (
    pretty_cond,
    pretty_family,
    pretty_kind,
    pretty_prop,
    pretty_term,
)

COIN = ConstRef(THIS, "coin")


@pytest.fixture
def resolver():
    return Resolver(families={"coin": COIN})


def coin(n):
    return Atom(TApp(TConst(COIN), NatLit(n) if isinstance(n, int) else n))


class TestTermParsing:
    def test_literals(self, resolver):
        assert parse_term("42") == NatLit(42)
        lit = parse_term("#" + "ab" * 20)
        assert isinstance(lit, PrincipalLit)

    def test_lambda(self, resolver):
        term = parse_term("\\x:nat. x", resolver)
        assert isinstance(term, Lam)
        assert term.body == Var("x")

    def test_application_left_assoc(self, resolver):
        term = parse_term("add 1 2", resolver)
        assert convertible(term, NatLit(3))

    def test_unknown_identifier(self, resolver):
        with pytest.raises(ParseError, match="unknown term"):
            parse_term("mystery", resolver)

    def test_qualified_this(self, resolver):
        resolver.terms["x"] = ConstRef(THIS, "x")
        assert parse_term("this.x", resolver) == parse_term("x", resolver)

    def test_qualified_txid(self, resolver):
        term = parse_term("0x" + "11" * 32 + ".mint", resolver)
        from repro.lf.syntax import Const

        assert term == Const(ConstRef(b"\x11" * 32, "mint"))

    def test_bad_txid_length(self, resolver):
        with pytest.raises(ParseError, match="32 bytes"):
            parse_term("0x1122.mint", resolver)


class TestFamilyParsing:
    def test_builtins(self):
        assert parse_family("nat") == NAT_T
        assert parse_family("time") == NAT_T  # alias, fn. 10
        assert parse_family("principal") == TConst(PRINCIPAL)

    def test_arrow_right_assoc(self):
        family = parse_family("nat -> nat -> nat")
        assert isinstance(family, TPi)
        assert isinstance(family.body, TPi)

    def test_pi(self):
        family = parse_family("pi n:nat. plus n n 4")
        assert isinstance(family, TPi)
        assert "n" in str(family.body)

    def test_application(self):
        family = parse_family("plus 1 2 3")
        assert isinstance(family, TApp)


class TestKindParsing:
    def test_base_kinds(self):
        assert parse_kind("type").sort.value == "type"
        assert parse_kind("prop").sort.value == "prop"

    def test_pi_kind(self):
        kind = parse_kind("pi n:nat. prop")
        assert kind == KPi("n", NAT_T, KIND_PROP)


class TestCondParsing:
    def test_atoms(self):
        assert parse_cond("true") == CTrue()
        assert parse_cond("before(99)") == Before(NatLit(99))
        spent = parse_cond("spent(0x" + "22" * 32 + ".3)")
        assert spent == Spent(b"\x22" * 32, 3)

    def test_negation_and_conjunction(self):
        cond = parse_cond("~spent(0x" + "22" * 32 + ".0) /\\ before(10)")
        assert isinstance(cond, CAnd)
        assert isinstance(cond.left, CNot)

    def test_parens(self):
        cond = parse_cond("~(true /\\ true)")
        assert isinstance(cond, CNot)
        assert isinstance(cond.body, CAnd)


class TestPropParsing:
    def test_units(self, resolver):
        assert parse_prop("1", resolver) == One()
        assert parse_prop("0", resolver) == Zero()

    def test_other_numbers_rejected(self, resolver):
        with pytest.raises(ParseError, match="only 0 and 1"):
            parse_prop("2", resolver)

    def test_precedence_lolli_loosest(self, resolver):
        prop = parse_prop("coin 1 * coin 2 -o coin 3", resolver)
        assert isinstance(prop, Lolli)
        assert isinstance(prop.antecedent, Tensor)

    def test_lolli_right_assoc(self, resolver):
        prop = parse_prop("coin 1 -o coin 2 -o coin 3", resolver)
        assert isinstance(prop, Lolli)
        assert isinstance(prop.consequent, Lolli)

    def test_tensor_binds_tighter_than_with(self, resolver):
        prop = parse_prop("coin 1 & coin 2 * coin 3", resolver)
        assert isinstance(prop, With)
        assert isinstance(prop.right, Tensor)

    def test_with_binds_tighter_than_plus(self, resolver):
        prop = parse_prop("coin 1 + coin 2 & coin 3", resolver)
        assert isinstance(prop, Plus)
        assert isinstance(prop.right, With)

    def test_bang(self, resolver):
        prop = parse_prop("!coin 1", resolver)
        assert prop == Bang(coin(1))

    def test_affirmation(self, resolver):
        alice = "#" + "aa" * 20
        prop = parse_prop(f"[{alice}] coin 1", resolver)
        assert isinstance(prop, Says)
        assert isinstance(prop.principal, PrincipalLit)

    def test_quantifier_extends_right(self, resolver):
        prop = parse_prop("forall n:nat. coin n -o coin n", resolver)
        assert isinstance(prop, Forall)
        assert isinstance(prop.body, Lolli)

    def test_exists(self, resolver):
        prop = parse_prop("exists x:plus 1 1 2. 1", resolver)
        assert isinstance(prop, Exists)

    def test_if_prop(self, resolver):
        prop = parse_prop("if(before(5), coin 1)", resolver)
        assert prop == IfProp(Before(NatLit(5)), coin(1))

    def test_receipt_forms(self, resolver):
        alice = "#" + "aa" * 20
        full = parse_prop(f"receipt(coin 1/600 ->> {alice})", resolver)
        assert isinstance(full, Receipt)
        assert full.amount == 600
        money = parse_prop(f"receipt(450 ->> {alice})", resolver)
        assert money.prop == One()
        assert money.amount == 450
        pure = parse_prop(f"receipt(coin 1 ->> {alice})", resolver)
        assert pure.amount == 0

    def test_receipt_zero_prop_round_trips(self, resolver):
        # receipt(0 ->> K) re-parses as amount 0 over One(); the printer
        # must write 0/0 so Receipt(Zero(), 0, K) survives a round trip.
        alice = "#" + "aa" * 20
        original = Receipt(Zero(), 0, PrincipalLit(b"\xaa" * 20))
        printed = pretty_prop(original)
        assert printed == f"receipt(0/0 ->> {alice})"
        assert parse_prop(printed, resolver) == original

    def test_unknown_family(self, resolver):
        with pytest.raises(ParseError, match="unknown proposition"):
            parse_prop("wealth 5", resolver)


class TestBasisText:
    def test_newcoin_basis_parses(self):
        source = """
        family coin : pi n:nat. prop
        rule merge : forall N:nat. forall M:nat. forall P:nat.
                     (exists x:plus N M P. 1) -o coin N * coin M -o coin P
        rule split : forall N:nat. forall M:nat. forall P:nat.
                     (exists x:plus N M P. 1) -o coin P -o coin N * coin M
        """
        basis, resolver = parse_basis_text(source)
        assert len(basis) == 3
        assert resolver.family("coin") == ConstRef(THIS, "coin")
        assert "merge" in resolver.props

    def test_forward_reference_rejected(self):
        with pytest.raises(ParseError, match="unknown"):
            parse_basis_text("rule r : later 1\nfamily later : pi n:nat. prop")

    def test_term_declarations(self):
        basis, resolver = parse_basis_text("term lucky : nat")
        assert "lucky" in resolver.terms

    def test_bad_keyword(self):
        with pytest.raises(ParseError, match="family"):
            parse_basis_text("axiom x : nat")


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------

principals = st.builds(PrincipalLit, st.binary(min_size=20, max_size=20))
nat_lits = st.builds(NatLit, st.integers(min_value=0, max_value=1000))

atoms = st.one_of(
    st.builds(One),
    st.builds(Zero),
    st.builds(lambda n: coin(n.value), nat_lits),
)

conds = st.recursive(
    st.one_of(
        st.builds(CTrue),
        st.builds(Before, nat_lits),
        st.builds(Spent, st.just(b"\x33" * 32), st.integers(0, 5)),
    ),
    lambda sub: st.one_of(st.builds(CAnd, sub, sub), st.builds(CNot, sub)),
    max_leaves=4,
)

props = st.recursive(
    atoms,
    lambda sub: st.one_of(
        st.builds(Lolli, sub, sub),
        st.builds(Tensor, sub, sub),
        st.builds(With, sub, sub),
        st.builds(Plus, sub, sub),
        st.builds(Bang, sub),
        st.builds(Says, principals, sub),
        st.builds(IfProp, conds, sub),
        st.builds(
            Receipt, sub, st.integers(min_value=0, max_value=10_000), principals
        ),
        st.builds(lambda body: Forall("q", NAT_T, body), sub),
        st.builds(lambda body: Exists("q", NAT_T, body), sub),
    ),
    max_leaves=8,
)


class TestRoundTrip:
    @given(props)
    @settings(max_examples=200, deadline=None)
    def test_prop_roundtrip(self, prop):
        resolver = Resolver(families={"coin": COIN})
        reparsed = parse_prop(pretty_prop(prop), resolver)
        assert convertible(prop, reparsed)

    @given(conds)
    @settings(max_examples=100, deadline=None)
    def test_cond_roundtrip(self, cond):
        reparsed = parse_cond(pretty_cond(cond))
        assert convertible(cond, reparsed)

    def test_kind_roundtrip(self):
        for text in ("type", "prop", "pi n:nat. pi m:nat. prop"):
            kind = parse_kind(text)
            assert alpha_equal(parse_kind(pretty_kind(kind)), kind)

    def test_family_roundtrip(self):
        for text in ("nat", "nat -> nat", "pi n:nat. plus n n 2", "plus 1 2 3"):
            family = parse_family(text)
            reparsed = parse_family(pretty_family(family))
            assert convertible(family, reparsed)

    def test_term_roundtrip(self):
        resolver = Resolver()
        for text in ("42", "\\x:nat. add x 1", "add (add 1 2) 3"):
            term = parse_term(text, resolver)
            reparsed = parse_term(pretty_term(term), resolver)
            assert convertible(term, reparsed)

    def test_figure_1_syntax_coverage(self):
        """Every Figure 1 syntactic form is expressible and round-trips."""
        resolver = Resolver(families={"coin": COIN})
        alice = "#" + "aa" * 20
        samples = [
            "coin 5",
            "coin 1 -o coin 2",
            "coin 1 & coin 2",
            "coin 1 * coin 2",
            "coin 1 + coin 2",
            "0",
            "1",
            "!coin 1",
            "forall u:nat. coin u",
            "exists u:nat. coin u",
            f"[{alice}] coin 1",
            f"receipt(coin 1/5 ->> {alice})",
            "if(true, coin 1)",
            "if(before(9) /\\ ~spent(0x" + "44" * 32 + ".0), coin 1)",
        ]
        for text in samples:
            prop = parse_prop(text, resolver)
            assert convertible(prop, parse_prop(pretty_prop(prop), resolver))
