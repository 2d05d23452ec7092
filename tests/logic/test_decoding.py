"""Tests for wire-format decoding: decode ∘ encode ≡ α-identity."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lf.basis import NAT_T, PLUS_REFL
from repro.lf.syntax import (
    App,
    Const,
    ConstRef,
    KIND_PROP,
    KPi,
    Lam,
    NatLit,
    PrincipalLit,
    THIS,
    Var,
    apply_term,
)
from repro.lf.walk import alpha_equal
from repro.logic.conditions import Before, CAnd, CNot, CTrue, Spent
from repro.logic.decoding import (
    MAX_NESTING,
    Cursor,
    DecodingError,
    decode_cond,
    decode_family,
    decode_kind,
    decode_proof,
    decode_prop,
    decode_term,
)
from repro.logic.encoding import (
    encode_cond,
    encode_family,
    encode_kind,
    encode_proof,
    encode_prop,
    encode_term,
)
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
    Receipt,
    Says,
    Tensor,
    With,
    Zero,
)

from tests.logic.conftest import coin

ALICE = PrincipalLit(b"\xaa" * 20)


def roundtrip_term(term):
    decoded = decode_term(Cursor(encode_term(term)))
    assert alpha_equal(decoded, term)
    assert encode_term(decoded) == encode_term(term)


def roundtrip_prop(prop):
    decoded = decode_prop(Cursor(encode_prop(prop)))
    assert alpha_equal(decoded, prop)
    assert encode_prop(decoded) == encode_prop(prop)


def roundtrip_proof(proof):
    decoded = decode_proof(Cursor(encode_proof(proof)))
    assert encode_proof(decoded) == encode_proof(proof)
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
            decode_term(Cursor(b"\x10\x00"))

    def test_truncation_rejected(self):
        data = encode_term(Lam("x", NAT_T, Var("x")))
        with pytest.raises(DecodingError):
            decode_term(Cursor(data[:-1]))

    def test_unknown_tag_rejected(self):
        with pytest.raises(DecodingError, match="tag"):
            decode_term(Cursor(b"\xff"))


class TestKindsAndConditions:
    def test_kinds(self):
        for kind in (KIND_PROP, KPi("n", NAT_T, KIND_PROP)):
            decoded = decode_kind(Cursor(encode_kind(kind)))
            assert alpha_equal(decoded, kind)

    def test_conditions(self):
        for cond in (
            CTrue(),
            Before(NatLit(9)),
            Spent(b"\x01" * 32, 3),
            CAnd(CNot(CTrue()), Before(NatLit(1))),
        ):
            decoded = decode_cond(Cursor(encode_cond(cond)))
            assert encode_cond(decoded) == encode_cond(cond)


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


_NAT = encode_family(NAT_T)

# (decoder, encoder, the bytes of one more level, the leaf that closes them)
_CHAINS = {
    "cond-not": (decode_cond, encode_cond, b"\x42", b"\x40"),
    "prop-bang": (decode_prop, encode_prop, b"\x57", b"\x56"),
    "proof-withfst": (decode_proof, encode_proof, b"\x67", b"\x6c"),
    "term-lambda": (decode_term, encode_term, b"\x12" + _NAT, b"\x15\x00"),
    "family-pi": (decode_family, encode_family, b"\x22" + _NAT, _NAT),
    "kind-pi": (decode_kind, encode_kind, b"\x31" + _NAT, b"\x30\x00"),
}


@pytest.mark.parametrize("chain", _CHAINS)
class TestNestingBound:
    """Over-nested input is refused by count, as a ``DecodingError`` —
    not by the interpreter, as a ``RecursionError``."""

    @pytest.mark.parametrize("levels", [MAX_NESTING + 1, 5000])
    def test_past_the_bound_is_a_decoding_error(self, chain, levels):
        decode, _, level, leaf = _CHAINS[chain]
        with pytest.raises(DecodingError, match="nesting too deep"):
            decode(Cursor(level * (levels - 1) + leaf))

    def test_term_at_the_bound_round_trips(self, chain):
        decode, encode, level, leaf = _CHAINS[chain]
        data = level * (MAX_NESTING - 1) + leaf
        cursor = Cursor(data)
        assert encode(decode(cursor)) == data
        assert cursor.exhausted and cursor.nesting == 0
