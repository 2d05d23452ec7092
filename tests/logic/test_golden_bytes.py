"""The wire format, pinned byte for byte.

§3 embeds the hash of a Typecoin transaction's bytes in its carrier, so a
layout that moves changes every hash a chain already holds.  Each vector
below is one tag's: a minimal node of that class — with a binder and a
bound variable wherever the class has one — and the bytes it contributes
to a transaction.  They are read through ``TypecoinTransaction.serialize``
and ``decode_transaction``, the two ends of the hash preimage, so they
pin whichever module writes and reads the layout, and the bytes around
each node pin the transaction envelope.  Beside them, one sha256 over the
encoding of every declaration, proposition and proof term of the
benchmark's working set and the hashes of its 79 transactions.
"""

import hashlib
import typing

import pytest

from repro.core.transaction import TypecoinOutput, TypecoinTransaction
from repro.core.wire import decode_transaction
from repro.lf.basis import NAT_T, Basis, Declaration, KindDecl, PropDecl, TypeDecl
from repro.lf.syntax import (
    BUILTIN,
    KIND_PROP,
    KIND_TYPE,
    THIS,
    App,
    Const,
    ConstRef,
    KindT,
    KPi,
    Lam,
    NatLit,
    PrincipalLit,
    TApp,
    TConst,
    Term,
    TPi,
    TypeFamily,
    Var,
)
from repro.logic import proofterms as pt
from repro.logic.conditions import Before, CAnd, CNot, Condition, CTrue, Spent
from repro.logic.proofterms import ProofTerm
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

from tests.oracles import rebuilt

PUBKEY = b"\x02" + b"\x55" * 32
HEAD = b"typecoin-txn:"
DECLARED = b"\x01" + b"\x01\x00\x01c"  # one declaration, of this.c
NO_DECLARATIONS = b"\x00"
ONE_OUTPUT = b"\x00\x01" + b"\x56\x00\x21" + PUBKEY  # no inputs; 1/0 ↠ PUBKEY
GRANT_ONE = b"\x56"
PROOF_ONE = b"\x6c"

# category: how a node of it enters a transaction, and the bytes before
# and after the node's own there.
SLOTS = {
    Declaration: (
        lambda d: {"basis": d},
        HEAD + DECLARED, GRANT_ONE + ONE_OUTPUT + PROOF_ONE,
    ),
    KindT: (
        lambda k: {"basis": KindDecl(k)},
        HEAD + DECLARED + b"\x01", GRANT_ONE + ONE_OUTPUT + PROOF_ONE,
    ),
    TypeFamily: (
        lambda f: {"basis": TypeDecl(f)},
        HEAD + DECLARED + b"\x02", GRANT_ONE + ONE_OUTPUT + PROOF_ONE,
    ),
    Proposition: (
        lambda p: {"grant": p},
        HEAD + NO_DECLARATIONS, ONE_OUTPUT + PROOF_ONE,
    ),
    Term: (
        lambda m: {"grant": Says(m, One())},
        HEAD + NO_DECLARATIONS + b"\x5a", GRANT_ONE + ONE_OUTPUT + PROOF_ONE,
    ),
    Condition: (
        lambda c: {"grant": IfProp(c, One())},
        HEAD + NO_DECLARATIONS + b"\x5c", GRANT_ONE + ONE_OUTPUT + PROOF_ONE,
    ),
    ProofTerm: (
        lambda m: {"proof": m},
        HEAD + NO_DECLARATIONS + GRANT_ONE + ONE_OUTPUT, b"",
    ),
}


def wire(node) -> bytes:
    """The bytes ``node`` contributes to a transaction that holds it, after
    checking the envelope around them and that they read back."""
    (category,) = [c for c in SLOTS if type(node) in typing.get_args(c)]
    place, head, tail = SLOTS[category]
    fields = {"grant": One(), "proof": pt.OneIntro(), **place(node)}
    basis = Basis()
    if "basis" in fields:
        basis.declare(ConstRef(THIS, "c"), fields["basis"])
    txn = TypecoinTransaction(
        basis, fields["grant"], [], [TypecoinOutput(One(), 0, PUBKEY)],
        fields["proof"],
    )
    data = txn.serialize()
    assert data.startswith(head) and data.endswith(tail)
    assert rebuilt(decode_transaction(data)).serialize() == data
    return data[len(head) : len(data) - len(tail)]


NAT = TConst(ConstRef(BUILTIN, "nat"))
COIN = TConst(ConstRef(THIS, "coin"))
ALICE = PrincipalLit(b"\xaa" * 20)
RULE = pt.PConst(ConstRef(THIS, "rule"))
TXID = b"\x22" * 32
SIGNED = pt.Affirmation(b"k", b"sig")

# tag: (a node whose root carries the tag — a variable sits under its
# binder — and its bytes)
VECTORS = {
    0x01: (KindDecl(KIND_TYPE), "013000"),
    0x02: (TypeDecl(NAT_T), "02200101036e6174"),
    0x03: (PropDecl(One()), "0356"),
    0x10: (
        Lam("x", NAT, Lam("y", NAT, Var("x"))),
        "12200101036e617412200101036e61741001",
    ),
    0x11: (
        Const(ConstRef(b"\x11" * 32, "mint")),
        "112102" + "11" * 32 + "046d696e74",
    ),
    0x12: (Lam("x", NAT, Var("x")), "12200101036e61741000"),
    0x13: (App(Const(ConstRef(BUILTIN, "add")), NatLit(1)), "13110101036164641501"),
    0x14: (ALICE, "1414aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"),
    0x15: (NatLit(300), "15ac02"),
    0x20: (NAT, "200101036e6174"),
    0x21: (TApp(COIN, NatLit(5)), "2120010004636f696e1505"),
    0x22: (
        TPi("n", NAT, TApp(COIN, Var("n"))),
        "22200101036e61742120010004636f696e1000",
    ),
    0x30: (KIND_PROP, "3001"),
    0x31: (
        KPi("n", NAT, KPi("m", TApp(COIN, Var("n")), KIND_TYPE)),
        "31200101036e6174312120010004636f696e10003000",
    ),
    0x40: (CTrue(), "40"),
    0x41: (CAnd(CTrue(), Before(NatLit(1))), "4140431501"),
    0x42: (
        CNot(Spent(TXID, 1)),
        "424420222222222222222222222222222222222222222222222222222222222222222201",
    ),
    0x43: (Before(NatLit(2_000_000_000)), "431580a8d6b907"),
    0x44: (
        Spent(TXID, 3),
        "4420222222222222222222222222222222222222222222222222222222222222222203",
    ),
    0x50: (Atom(TConst(ConstRef(THIS, "gold"))), "5020010004676f6c64"),
    0x51: (Lolli(One(), Zero()), "515655"),
    0x52: (Tensor(One(), Zero()), "525655"),
    0x53: (With(One(), Zero()), "535655"),
    0x54: (Plus(One(), Zero()), "545655"),
    0x55: (Zero(), "55"),
    0x56: (One(), "56"),
    0x57: (Bang(One()), "5756"),
    0x58: (
        Forall("n", NAT, Atom(TApp(COIN, Var("n")))),
        "58200101036e6174502120010004636f696e1000",
    ),
    0x59: (
        Exists("n", NAT, Atom(TApp(COIN, Var("n")))),
        "59200101036e6174502120010004636f696e1000",
    ),
    0x5A: (Says(ALICE, One()), "5a1414aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa56"),
    0x5B: (
        Receipt(One(), 600, ALICE),
        "5b56d8041414aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
    ),
    0x5C: (IfProp(Before(NatLit(9)), One()), "5c43150956"),
    0x60: (
        pt.LolliIntro("x", One(), pt.LolliIntro("y", Zero(), pt.PVar("x"))),
        "625662556001",
    ),
    0x61: (RULE, "6101000472756c65"),
    0x62: (pt.LolliIntro("x", One(), pt.PVar("x")), "62566000"),
    0x63: (pt.LolliElim(RULE, pt.OneIntro()), "636101000472756c656c"),
    0x64: (pt.TensorIntro(pt.OneIntro(), RULE), "646c6101000472756c65"),
    0x65: (
        pt.TensorElim(
            "a", "b", RULE, pt.TensorIntro(pt.PVar("b"), pt.PVar("a"))
        ),
        "656101000472756c656460006001",
    ),
    0x66: (pt.WithIntro(pt.OneIntro(), RULE), "666c6101000472756c65"),
    0x67: (pt.WithFst(RULE), "676101000472756c65"),
    0x68: (pt.WithSnd(RULE), "686101000472756c65"),
    0x69: (pt.PlusInl(Zero(), pt.OneIntro()), "69556c"),
    0x6A: (pt.PlusInr(One(), RULE), "6a566101000472756c65"),
    0x6B: (
        pt.PlusCase(RULE, "l", pt.PVar("l"), "r", RULE),
        "6b6101000472756c6560006101000472756c65",
    ),
    0x6C: (pt.OneIntro(), "6c"),
    0x6D: (pt.OneElim(RULE, pt.OneIntro()), "6d6101000472756c656c"),
    0x6E: (pt.ZeroElim(RULE, One()), "6e6101000472756c6556"),
    0x6F: (pt.BangIntro(pt.OneIntro()), "6f6c"),
    0x70: (pt.BangElim("x", RULE, pt.PVar("x")), "706101000472756c656000"),
    0x71: (
        pt.ForallIntro(
            "n", NAT, pt.LolliIntro("x", Atom(TApp(COIN, Var("n"))), pt.PVar("x"))
        ),
        "71200101036e617462502120010004636f696e10006000",
    ),
    0x72: (pt.ForallElim(RULE, NatLit(3)), "726101000472756c651503"),
    0x73: (
        pt.ExistsIntro(Exists("n", NAT, One()), NatLit(4), pt.OneIntro()),
        "7359200101036e61745615046c",
    ),
    0x74: (
        pt.ExistsElim(
            "n", "c", RULE, pt.ZeroElim(pt.PVar("c"), Atom(TApp(COIN, Var("n"))))
        ),
        "746101000472756c656e6000502120010004636f696e1000",
    ),
    0x75: (
        pt.SayReturn(ALICE, pt.OneIntro()),
        "751414aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa6c",
    ),
    0x76: (
        pt.SayBind("x", RULE, pt.SayReturn(ALICE, pt.PVar("x"))),
        "766101000472756c65751414aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa6000",
    ),
    0x77: (
        pt.Assert(ALICE, One(), SIGNED),
        "771414aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa56016b03736967",
    ),
    0x78: (
        pt.AssertPersistent(ALICE, One(), SIGNED),
        "781414aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa56016b03736967",
    ),
    0x79: (pt.IfReturn(CTrue(), pt.OneIntro()), "79406c"),
    0x7A: (
        pt.IfBind("x", RULE, pt.IfReturn(CTrue(), pt.PVar("x"))),
        "7a6101000472756c6579406000",
    ),
    0x7B: (pt.IfWeaken(Before(NatLit(3)), RULE), "7b4315036101000472756c65"),
    0x7C: (pt.IfSay(RULE), "7c6101000472756c65"),
}

WORKING_SET_DIGEST = (
    "5a6b77d6266f39fb03f6b5c5203018416d2ba6e1fc26e224cd9301642bc644dc"
)


@pytest.mark.parametrize("tag", sorted(VECTORS), ids=lambda tag: f"0x{tag:02x}")
def test_each_tag_keeps_its_bytes(tag):
    node, expected = VECTORS[tag]
    assert wire(node).hex() == expected


def test_every_tag_has_a_vector():
    assert len(VECTORS) == 61
    roots = {tag: bytes.fromhex(expected)[0] for tag, (_, expected) in VECTORS.items()}
    assert [tag for tag, root in roots.items() if tag != root] == [0x10, 0x60]


def test_the_working_set_keeps_its_bytes(working_set):
    transactions = {}
    for claim in working_set.claims:
        transactions.update(claim.bundle.transactions)
    digest = hashlib.sha256()
    encodings = 0
    for _txid, txn in sorted(transactions.items()):
        nodes = [decl for _ref, decl in txn.basis] + [txn.grant]
        nodes += [inp.prop for inp in txn.inputs]
        nodes += [out.prop for out in txn.outputs]
        nodes.append(txn.proof)
        for node in nodes:
            digest.update(wire(node))
        encodings += len(nodes)
        digest.update(txn.hash)
    assert (len(transactions), encodings) == (79, 322)
    assert digest.hexdigest() == WORKING_SET_DIGEST
