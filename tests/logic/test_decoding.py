"""Tests for wire-format decoding: decode ∘ encode ≡ α-identity."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lf.basis import NAT_T, PLUS_REFL
from repro.lf.syntax import (
    App,
    Const,
    ConstRef,
    KIND_PROP,
    KindT,
    KPi,
    Lam,
    NatLit,
    PrincipalLit,
    THIS,
    Term,
    TypeFamily,
    Var,
    apply_term,
)
from repro.lf.walk import alpha_equal
from repro.logic.codec import MAX_NESTING, Cursor, DecodingError, decode, encode
from repro.logic.conditions import Before, CAnd, CNot, Condition, CTrue, Spent
from repro.logic.proofterms import (
    Affirmation,
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
    ProofTerm,
    PVar,
    SayBind,
    SayReturn,
    TensorElim,
    TensorIntro,
    WithFst,
    WithIntro,
    WithSnd,
    ZeroElim,
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
    Proposition,
    Receipt,
    Says,
    Tensor,
    With,
    Zero,
)

from tests.logic.conftest import coin

ALICE = PrincipalLit(b"\xaa" * 20)


def roundtrip_term(term):
    decoded = decode(Cursor(encode(term)), Term)
    assert alpha_equal(decoded, term)
    assert encode(decoded) == encode(term)


def roundtrip_prop(prop):
    decoded = decode(Cursor(encode(prop)), Proposition)
    assert alpha_equal(decoded, prop)
    assert encode(decoded) == encode(prop)


def roundtrip_proof(proof):
    decoded = decode(Cursor(encode(proof)), ProofTerm)
    assert encode(decoded) == encode(proof)
    return decoded


class TestTerms:
    def test_literals(self):
        roundtrip_term(NatLit(42))
        roundtrip_term(ALICE)

    def test_constants(self):
        roundtrip_term(Const(PLUS_REFL))
        roundtrip_term(Const(ConstRef(THIS, "x")))
        roundtrip_term(Const(ConstRef(b"\x11" * 32, "mint")))

    def test_binders(self):
        roundtrip_term(Lam("x", NAT_T, Var("x")))
        roundtrip_term(Lam("x", NAT_T, Lam("y", NAT_T, App(Var("x"), Var("y")))))

    def test_application(self):
        roundtrip_term(apply_term(Const(PLUS_REFL), NatLit(1), NatLit(2)))

    def test_free_variable_index_rejected(self):
        # tag 0x10 with index 0 at depth 0.
        with pytest.raises(DecodingError, match="index"):
            decode(Cursor(b"\x10\x00"), Term)

    def test_truncation_rejected(self):
        data = encode(Lam("x", NAT_T, Var("x")))
        with pytest.raises(DecodingError):
            decode(Cursor(data[:-1]), Term)

    def test_unknown_tag_rejected(self):
        with pytest.raises(DecodingError, match="tag"):
            decode(Cursor(b"\xff"), Term)


class TestKindsAndConditions:
    def test_kinds(self):
        for kind in (KIND_PROP, KPi("n", NAT_T, KIND_PROP)):
            decoded = decode(Cursor(encode(kind)), KindT)
            assert alpha_equal(decoded, kind)

    def test_conditions(self):
        for cond in (
            CTrue(),
            Before(NatLit(9)),
            Spent(b"\x01" * 32, 3),
            CAnd(CNot(CTrue()), Before(NatLit(1))),
        ):
            decoded = decode(Cursor(encode(cond)), Condition)
            assert encode(decoded) == encode(cond)


class TestPropositions:
    def test_every_figure1_form(self):
        samples = [
            coin(5),
            Lolli(coin(1), coin(2)),
            With(coin(1), coin(2)),
            Tensor(coin(1), coin(2)),
            Plus(coin(1), coin(2)),
            Zero(),
            One(),
            Bang(coin(1)),
            Forall("n", NAT_T, coin(Var("n"))),
            Exists("n", NAT_T, coin(Var("n"))),
            Says(ALICE, coin(1)),
            Receipt(coin(1), 600, ALICE),
            IfProp(CNot(Spent(b"\x02" * 32, 0)), coin(1)),
        ]
        for prop in samples:
            roundtrip_prop(prop)

    # Reuse the random proposition strategy from the parser tests.
    from tests.surface.test_parser import props as _props_strategy

    @given(_props_strategy)
    @settings(max_examples=150, deadline=None)
    def test_random_roundtrip(self, prop):
        roundtrip_prop(prop)


class TestProofs:
    def test_structural_forms(self):
        samples = [
            OneIntro(),
            LolliIntro("x", coin(1), PVar("x")),
            LolliElim(LolliIntro("x", coin(1), PVar("x")), OneIntro()),
            TensorIntro(OneIntro(), OneIntro()),
            LolliIntro(
                "p", Tensor(coin(1), coin(2)),
                TensorElim("a", "b", PVar("p"), TensorIntro(PVar("b"), PVar("a"))),
            ),
            WithIntro(OneIntro(), OneIntro()),
            WithFst(WithIntro(OneIntro(), OneIntro())),
            WithSnd(WithIntro(OneIntro(), OneIntro())),
            PlusInl(coin(1), OneIntro()),
            PlusInr(coin(1), OneIntro()),
            LolliIntro(
                "s", Plus(coin(1), coin(1)),
                PlusCase(PVar("s"), "l", PVar("l"), "r", PVar("r")),
            ),
            OneElim(OneIntro(), OneIntro()),
            LolliIntro("z", Zero(), ZeroElim(PVar("z"), coin(9))),
            BangIntro(OneIntro()),
            LolliIntro("b", Bang(coin(1)), BangElim("x", PVar("b"), PVar("x"))),
            ForallIntro("n", NAT_T, LolliIntro("x", coin(Var("n")), PVar("x"))),
            ForallElim(
                ForallIntro("n", NAT_T, LolliIntro("x", coin(Var("n")), PVar("x"))),
                NatLit(3),
            ),
            ExistsIntro(Exists("n", NAT_T, One()), NatLit(4), OneIntro()),
            LolliIntro(
                "e", Exists("n", NAT_T, coin(Var("n"))),
                ExistsElim("n", "c", PVar("e"), OneIntro()),
            ),
            SayReturn(ALICE, OneIntro()),
            LolliIntro(
                "s", Says(ALICE, coin(1)),
                SayBind("x", PVar("s"), SayReturn(ALICE, PVar("x"))),
            ),
            IfReturn(Before(NatLit(5)), OneIntro()),
            IfWeaken(
                CAnd(Before(NatLit(3)), CTrue()),
                IfReturn(Before(NatLit(5)), OneIntro()),
            ),
            IfSay(SayReturn(ALICE, IfReturn(CTrue(), OneIntro()))),
            PConst(ConstRef(b"\x01" * 32, "rule")),
            AssertPersistent(
                ALICE, coin(1), Affirmation(b"\x02" * 33, b"\x03" * 64)
            ),
        ]
        for proof in samples:
            roundtrip_proof(proof)

    def test_decoded_proof_still_checks(self, basis):
        """A decoded proof term passes the checker with the same result."""
        from repro.logic.checker import CheckerContext, check_proof
        from repro.lf.walk import convertible

        proof = LolliIntro(
            "p", Tensor(coin(1), coin(2)),
            TensorElim("a", "b", PVar("p"), TensorIntro(PVar("b"), PVar("a"))),
        )
        decoded = roundtrip_proof(proof)
        ctx = CheckerContext(basis=basis)
        assert convertible(check_proof(ctx, proof), check_proof(ctx, decoded))

    def test_ifbind_roundtrip(self):
        proof = LolliIntro(
            "i", IfProp(CTrue(), coin(1)),
            IfBind("x", PVar("i"), IfReturn(CTrue(), PVar("x"))),
        )
        roundtrip_proof(proof)


_NAT = encode(NAT_T)

# (category, the bytes of one more level, the leaf that closes them)
_CHAINS = {
    "cond-not": (Condition, b"\x42", b"\x40"),
    "prop-bang": (Proposition, b"\x57", b"\x56"),
    "proof-withfst": (ProofTerm, b"\x67", b"\x6c"),
    "term-lambda": (Term, b"\x12" + _NAT, b"\x15\x00"),
    "family-pi": (TypeFamily, b"\x22" + _NAT, _NAT),
    "kind-pi": (KindT, b"\x31" + _NAT, b"\x30\x00"),
}


@pytest.mark.parametrize("chain", _CHAINS)
class TestNestingBound:
    """Over-nested input is refused by count, as a ``DecodingError`` —
    not by the interpreter, as a ``RecursionError``."""

    @pytest.mark.parametrize("levels", [MAX_NESTING + 1, 5000])
    def test_past_the_bound_is_a_decoding_error(self, chain, levels):
        category, level, leaf = _CHAINS[chain]
        with pytest.raises(DecodingError, match="nesting too deep"):
            decode(Cursor(level * (levels - 1) + leaf), category)

    def test_term_at_the_bound_round_trips(self, chain):
        category, level, leaf = _CHAINS[chain]
        data = level * (MAX_NESTING - 1) + leaf
        cursor = Cursor(data)
        assert encode(decode(cursor, category)) == data
        assert cursor.exhausted and cursor.nesting == 0
