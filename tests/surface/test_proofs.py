"""Tests for the proof-term surface syntax."""

import pytest

from repro.crypto.keys import PrivateKey
from repro.lf.basis import KindDecl, NAT_T, PropDecl, builtin_basis
from repro.lf.syntax import ConstRef, KIND_PROP, KPi, NatLit, PrincipalLit, TApp, TConst, THIS, Var
from repro.logic import proofterms as pt
from repro.logic.checker import CheckerContext, check_proof, persistent_assert_payload
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
    Says,
    Tensor,
    With,
    Zero,
)
from repro.lf.walk import convertible
from repro.surface.parser import ParseError, Resolver
from repro.surface.pretty import pretty_proof
from repro.surface.proofs import parse_proof

COIN = ConstRef(THIS, "coin")
RULE = ConstRef(THIS, "step")


@pytest.fixture
def resolver():
    return Resolver(families={"coin": COIN}, props={"step": RULE})


@pytest.fixture
def basis():
    b = builtin_basis()
    b.declare(COIN, KindDecl(KPi("n", NAT_T, KIND_PROP)))
    b.declare(RULE, PropDecl(Lolli(coin(1), coin(2))))
    return b


def coin(n):
    return Atom(TApp(TConst(COIN), NatLit(n) if isinstance(n, int) else n))


def roundtrip(proof, resolver):
    text = pretty_proof(proof)
    reparsed = parse_proof(text, resolver)
    assert encode(reparsed) == encode(proof), text
    return text


class TestParsing:
    def test_identity(self, resolver, basis):
        proof = parse_proof("fn x : coin 1. x", resolver)
        assert convertible(
            check_proof(CheckerContext(basis=basis), proof),
            Lolli(coin(1), coin(1)),
        )

    def test_unit_and_bang(self, resolver):
        assert parse_proof("<>", resolver) == pt.OneIntro()
        assert parse_proof("!<>", resolver) == pt.BangIntro(pt.OneIntro())

    def test_tensor_let(self, resolver, basis):
        proof = parse_proof(
            "fn p : coin 1 * coin 2. let a * b = p in b * a", resolver
        )
        proved = check_proof(CheckerContext(basis=basis), proof)
        assert convertible(
            proved, Lolli(Tensor(coin(1), coin(2)), Tensor(coin(2), coin(1)))
        )

    def test_with_intro_and_projections(self, resolver, basis):
        proof = parse_proof("fn x : coin 1. fst (x, x)", resolver)
        proved = check_proof(CheckerContext(basis=basis), proof)
        assert convertible(proved, Lolli(coin(1), coin(1)))

    def test_case(self, resolver, basis):
        proof = parse_proof(
            "fn s : coin 1 + coin 1. case s of inl l => l | inr r => r",
            resolver,
        )
        proved = check_proof(CheckerContext(basis=basis), proof)
        assert convertible(proved, Lolli(Plus(coin(1), coin(1)), coin(1)))

    def test_injections(self, resolver, basis):
        proof = parse_proof("inl[coin 2] <>", resolver)
        proved = check_proof(CheckerContext(basis=basis), proof)
        assert convertible(proved, Plus(One(), coin(2)))

    def test_abort(self, resolver, basis):
        proof = parse_proof("fn z : 0. abort[coin 7] z", resolver)
        proved = check_proof(CheckerContext(basis=basis), proof)
        assert convertible(proved, Lolli(Zero(), coin(7)))

    def test_type_abstraction_and_application(self, resolver, basis):
        proof = parse_proof("tfn n : nat. fn x : coin n. x", resolver)
        proved = check_proof(CheckerContext(basis=basis), proof)
        assert isinstance(proved, Forall)
        applied = parse_proof("(tfn n : nat. fn x : coin n. x) [5]", resolver)
        proved = check_proof(CheckerContext(basis=basis), applied)
        assert convertible(proved, Lolli(coin(5), coin(5)))

    def test_pack_unpack(self, resolver, basis):
        proof = parse_proof("pack[exists n:nat. 1](3, <>)", resolver)
        proved = check_proof(CheckerContext(basis=basis), proof)
        assert convertible(proved, Exists("n", NAT_T, One()))
        consume = parse_proof(
            "fn e : exists n:nat. coin n. let (n, c) = unpack e in <>",
            resolver,
        )
        proved = check_proof(CheckerContext(basis=basis), consume)
        assert convertible(proved, Lolli(Exists("n", NAT_T, coin(Var("n"))), One()))

    def test_say_monad(self, resolver, basis):
        alice = "#" + "aa" * 20
        proof = parse_proof(
            f"fn s : [{alice}] coin 1."
            f" saybind x <- s in sayreturn[{alice}](x)",
            resolver,
        )
        proved = check_proof(CheckerContext(basis=basis), proof)
        assert isinstance(proved, Lolli)
        assert isinstance(proved.consequent, Says)

    def test_if_monad(self, resolver, basis):
        proof = parse_proof(
            "fn i : if(before(100), coin 1)."
            " ifbind x <- i in ifreturn[before(100)](x * <>)",
            resolver,
        )
        proved = check_proof(CheckerContext(basis=basis), proof)
        assert isinstance(proved.consequent, IfProp)

    def test_ifweaken_and_ifsay(self, resolver, basis):
        alice = "#" + "aa" * 20
        txid = "0x" + "22" * 32
        proof = parse_proof(
            f"ifweaken[before(50) /\\ ~spent({txid}.0)]"
            "(ifreturn[before(100)](<>))",
            resolver,
        )
        check_proof(CheckerContext(basis=basis), proof)
        proof = parse_proof(
            f"ifsay(sayreturn[{alice}](ifreturn[true](<>)))", resolver
        )
        check_proof(CheckerContext(basis=basis), proof)

    def test_assert_persistent(self, resolver, basis):
        key = PrivateKey.from_seed(b"surface-assert")
        principal = PrincipalLit(key.public.key_hash)
        prop = coin(1)
        sig = key.sign(persistent_assert_payload(prop))
        text = (
            f"assertp[#{principal.key_hash.hex()}]"
            f"(coin 1; 0x{key.public.encoded.hex()}; 0x{sig.encode().hex()})"
        )
        proof = parse_proof(text, resolver)
        proved = check_proof(CheckerContext(basis=basis), proof)
        assert convertible(proved, Says(principal, coin(1)))

    def test_proof_constants(self, resolver, basis):
        proof = parse_proof("fn x : coin 1. step x", resolver)
        proved = check_proof(CheckerContext(basis=basis), proof)
        assert convertible(proved, Lolli(coin(1), coin(2)))

    def test_unknown_identifier(self, resolver):
        with pytest.raises(ParseError, match="unknown proof identifier"):
            parse_proof("mystery", resolver)

    def test_figure3_shape_parses(self, resolver, basis):
        """A Figure 3-shaped nesting parses (checkability needs the full
        newcoin scenario; this is a syntax test)."""
        alice = "#" + "aa" * 20
        txid = "0x" + "33" * 32
        text = (
            f"fn p : [{alice}] if(~spent({txid}.0), coin 25)."
            f" fn b : coin 9."
            f" ifbind z <- ifweaken[~spent({txid}.0) /\\ before(2000000000)]"
            f"(ifsay(p)) in"
            f" ifreturn[~spent({txid}.0) /\\ before(2000000000)](z * b)"
        )
        proof = parse_proof(text, resolver)
        check_proof(CheckerContext(basis=basis), proof)


class TestRoundTrip:
    def test_structural_corpus(self, resolver):
        alice = PrincipalLit(b"\xaa" * 20)
        samples = [
            pt.OneIntro(),
            pt.LolliIntro("x", coin(1), pt.PVar("x")),
            pt.LolliIntro(
                "p", Tensor(coin(1), coin(2)),
                pt.TensorElim(
                    "a", "b", pt.PVar("p"),
                    pt.TensorIntro(pt.PVar("b"), pt.PVar("a")),
                ),
            ),
            pt.LolliIntro("x", coin(1), pt.WithIntro(pt.PVar("x"), pt.PVar("x"))),
            pt.WithFst(pt.WithIntro(pt.OneIntro(), pt.OneIntro())),
            pt.PlusInl(coin(2), pt.OneIntro()),
            pt.LolliIntro(
                "s", Plus(coin(1), coin(1)),
                pt.PlusCase(pt.PVar("s"), "l", pt.PVar("l"), "r", pt.PVar("r")),
            ),
            pt.LolliIntro("z", Zero(), pt.ZeroElim(pt.PVar("z"), coin(3))),
            pt.BangIntro(pt.OneIntro()),
            pt.LolliIntro(
                "b", Bang(coin(1)),
                pt.BangElim("x", pt.PVar("b"),
                            pt.TensorIntro(pt.PVar("x"), pt.PVar("x"))),
            ),
            pt.ForallIntro("n", NAT_T, pt.LolliIntro("x", coin(Var("n")), pt.PVar("x"))),
            pt.ExistsIntro(Exists("n", NAT_T, One()), NatLit(3), pt.OneIntro()),
            pt.LolliIntro(
                "e", Exists("n", NAT_T, coin(Var("n"))),
                pt.ExistsElim("n", "c", pt.PVar("e"), pt.OneIntro()),
            ),
            pt.SayReturn(alice, pt.OneIntro()),
            pt.LolliIntro(
                "s", Says(alice, coin(1)),
                pt.SayBind("x", pt.PVar("s"), pt.SayReturn(alice, pt.PVar("x"))),
            ),
            pt.IfReturn(Before(NatLit(5)), pt.OneIntro()),
            pt.IfWeaken(
                CAnd(Before(NatLit(3)), CNot(Spent(b"\x01" * 32, 0))),
                pt.IfReturn(Before(NatLit(5)), pt.OneIntro()),
            ),
            pt.IfSay(pt.SayReturn(alice, pt.IfReturn(CTrue(), pt.OneIntro()))),
            pt.PConst(RULE),
            pt.LolliElim(pt.PConst(RULE), pt.OneIntro()),
            pt.AssertPersistent(
                alice, coin(1), pt.Affirmation(b"\x02" * 33, b"\x03" * 64)
            ),
        ]
        for proof in samples:
            roundtrip(proof, resolver)

    def test_machine_generated_proofs_roundtrip(self, resolver):
        """Proofs built by obligation_lambda (fresh $-suffixed names)
        survive pretty → parse with the collision-avoiding renamer."""
        from repro.core.proofs import obligation_lambda, tensor_intro_all
        from repro.logic.propositions import Receipt

        proof = obligation_lambda(
            coin(9),
            [coin(1), coin(2)],
            [Receipt(coin(1), 5, PrincipalLit(b"\xaa" * 20))],
            lambda c, ins, rs: tensor_intro_all([c, *ins]),
        )
        roundtrip(proof, resolver)

    def test_renamer_avoids_collisions(self, resolver):
        # Two distinct binders that clean to the same base name.
        proof = pt.LolliIntro(
            "x$1", coin(1),
            pt.LolliIntro(
                "x$2", coin(2),
                pt.TensorIntro(pt.PVar("x$1"), pt.PVar("x$2")),
            ),
        )
        text = roundtrip(proof, resolver)
        assert "x" in text and "x_2" in text
