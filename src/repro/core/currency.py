"""The newcoin currency of paper §6, with the §6.1 extensions.

The basis defines ``coin : nat → prop`` with merge/split rules gated on
``plus`` evidence, three ways to introduce money (a fixed supply, a private
printing press, and affirmation-triggered printing), the §6.1 independent
central banker whose printing power expires with their term, and the
bitcoins-for-newcoins offer whose redemption proof term is Figure 3 —
reproduced here constructor-for-constructor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lf.basis import (
    Basis,
    KindDecl,
    NAT_T,
    PLUS,
    PLUS_REFL,
    PRINCIPAL_T,
    PropDecl,
)
from repro.lf.syntax import (
    Const,
    ConstRef,
    KIND_PROP,
    KPi,
    NatLit,
    PrincipalLit,
    TConst,
    Term,
    Var,
    apply_family,
    apply_term,
)
from repro.logic.conditions import Before, CAnd, CNot, Condition, Spent
from repro.logic.propositions import (
    Atom,
    Bang,
    Exists,
    Forall,
    IfProp,
    Lolli,
    One,
    Proposition,
    Receipt,
    Says,
    Tensor,
)
from repro.logic.proofterms import (
    ExistsIntro,
    ForallElim,
    IfBind,
    IfSay,
    IfWeaken,
    LolliElim,
    OneIntro,
    PConst,
    ProofTerm,
    PVar,
    SayBind,
    SayReturn,
    TensorIntro,
    let_,
)


@dataclass(frozen=True)
class NewcoinVocabulary:
    """The constant references of a published newcoin basis.

    Starts life with ``this`` references; :meth:`resolved` rebinds them to
    the publishing transaction's carrier txid.
    """

    coin: ConstRef
    merge: ConstRef
    split: ConstRef
    print_: ConstRef
    issue: ConstRef
    appoint: ConstRef
    is_banker: ConstRef
    confirm: ConstRef
    issue_term: ConstRef  # the §6.1 term-limited issue rule

    def resolved(self, txid: bytes) -> "NewcoinVocabulary":
        return NewcoinVocabulary(
            **{name: ref.resolved(txid) for name, ref in self.__dict__.items()}
        )

    # -- proposition builders --------------------------------------------

    def coin_prop(self, n: int | Term) -> Atom:
        index = NatLit(n) if isinstance(n, int) else n
        return Atom(apply_family(TConst(self.coin), index))

    def print_prop(self, n: int | Term) -> Atom:
        index = NatLit(n) if isinstance(n, int) else n
        return Atom(apply_family(TConst(self.print_), index))

    def appoint_prop(self, who: Term, until: int | Term) -> Atom:
        t = NatLit(until) if isinstance(until, int) else until
        return Atom(apply_family(TConst(self.appoint), who, t))

    def is_banker_prop(self, who: Term, until: int | Term) -> Atom:
        t = NatLit(until) if isinstance(until, int) else until
        return Atom(apply_family(TConst(self.is_banker), who, t))


def newcoin_basis(
    bank: PrincipalLit, president: PrincipalLit
) -> tuple[Basis, NewcoinVocabulary]:
    """The §6 basis (coin/merge/split, print/issue) plus §6.1 (banker).

    ``bank`` is the principal whose affirmations trigger the plain
    ``issue`` rule; ``president`` appoints term-limited bankers.
    """
    basis = Basis()
    coin = basis.declare_local("coin", KindDecl(KPi("n", NAT_T, KIND_PROP)))

    def coin_at(v: str) -> Atom:
        return Atom(apply_family(TConst(coin), Var(v)))

    def plus_evidence() -> Exists:
        return Exists(
            "x",
            apply_family(TConst(PLUS), Var("N"), Var("M"), Var("P")),
            One(),
        )

    merge = basis.declare_local(
        "merge",
        PropDecl(
            Forall("N", NAT_T, Forall("M", NAT_T, Forall("P", NAT_T,
                Lolli(
                    plus_evidence(),
                    Lolli(Tensor(coin_at("N"), coin_at("M")), coin_at("P")),
                ),
            )))
        ),
    )
    split = basis.declare_local(
        "split",
        PropDecl(
            Forall("N", NAT_T, Forall("M", NAT_T, Forall("P", NAT_T,
                Lolli(
                    plus_evidence(),
                    Lolli(coin_at("P"), Tensor(coin_at("N"), coin_at("M"))),
                ),
            )))
        ),
    )

    print_ = basis.declare_local("print", KindDecl(KPi("n", NAT_T, KIND_PROP)))

    def print_at(v: str) -> Atom:
        return Atom(apply_family(TConst(print_), Var(v)))

    issue = basis.declare_local(
        "issue",
        PropDecl(
            Forall("N", NAT_T, Lolli(Says(bank, print_at("N")), coin_at("N")))
        ),
    )

    # --- §6.1: the independent central banker -----------------------------
    appoint = basis.declare_local(
        "appoint",
        KindDecl(KPi("k", PRINCIPAL_T, KPi("t", NAT_T, KIND_PROP))),
    )
    is_banker = basis.declare_local(
        "is_banker",
        KindDecl(KPi("k", PRINCIPAL_T, KPi("t", NAT_T, KIND_PROP))),
    )

    def rel(ref: ConstRef, k: str, t: str) -> Atom:
        return Atom(apply_family(TConst(ref), Var(k), Var(t)))

    confirm = basis.declare_local(
        "confirm",
        PropDecl(
            Forall("K", PRINCIPAL_T, Forall("t", NAT_T,
                Lolli(
                    Says(president, rel(appoint, "K", "t")),
                    rel(is_banker, "K", "t"),
                ),
            ))
        ),
    )
    issue_term = basis.declare_local(
        "issue_term",
        PropDecl(
            Forall("K", PRINCIPAL_T, Forall("t", NAT_T, Forall("N", NAT_T,
                Lolli(
                    rel(is_banker, "K", "t"),
                    Lolli(
                        Says(Var("K"), print_at("N")),
                        IfProp(Before(Var("t")), coin_at("N")),
                    ),
                ),
            )))
        ),
    )

    vocab = NewcoinVocabulary(
        coin=coin,
        merge=merge,
        split=split,
        print_=print_,
        issue=issue,
        appoint=appoint,
        is_banker=is_banker,
        confirm=confirm,
        issue_term=issue_term,
    )
    return basis, vocab


def printing_press_grant(vocab: NewcoinVocabulary) -> Proposition:
    """The §6 affine grant giving the bank "the equivalent of a printing
    press": ∀n:nat. coin n.  (If this appeared in the basis instead,
    "anyone could print arbitrary amounts of money!")"""
    return Forall("n", NAT_T, vocab.coin_prop(Var("n")))


def whimsical_press_grant(vocab: NewcoinVocabulary) -> Proposition:
    """"More whimsically, the bank could simply give itself !(coin 1)."""
    return Bang(vocab.coin_prop(1))


# ----------------------------------------------------------------------
# Proof builders
# ----------------------------------------------------------------------


def plus_evidence_proof(n: int, m: int) -> ProofTerm:
    """A proof of ∃x:plus n m (n+m). 1 — "a somewhat unusual idiom: it has
    no interesting resource content, but serves to require that plus N M P
    is inhabited" (§6)."""
    annotation = Exists(
        "x",
        apply_family(TConst(PLUS), NatLit(n), NatLit(m), NatLit(n + m)),
        One(),
    )
    witness = apply_term(Const(PLUS_REFL), NatLit(n), NatLit(m))
    return ExistsIntro(annotation, witness, OneIntro())


def merge_proof(
    vocab: NewcoinVocabulary, n: int, m: int, left: ProofTerm, right: ProofTerm
) -> ProofTerm:
    """coin n ⊗ coin m ⟶ coin (n+m) via the merge rule."""
    rule = ForallElim(
        ForallElim(ForallElim(PConst(vocab.merge), NatLit(n)), NatLit(m)),
        NatLit(n + m),
    )
    return LolliElim(
        LolliElim(rule, plus_evidence_proof(n, m)),
        TensorIntro(left, right),
    )


def split_proof(
    vocab: NewcoinVocabulary, n: int, m: int, whole: ProofTerm
) -> ProofTerm:
    """coin (n+m) ⟶ coin n ⊗ coin m via the split rule."""
    rule = ForallElim(
        ForallElim(ForallElim(PConst(vocab.split), NatLit(n)), NatLit(m)),
        NatLit(n + m),
    )
    return LolliElim(LolliElim(rule, plus_evidence_proof(n, m)), whole)


def issue_proof(
    vocab: NewcoinVocabulary, n: int, print_affirmation: ProofTerm
) -> ProofTerm:
    """⟨Bank⟩print n ⟶ coin n: the bank "simply signs an affine
    affirmation and then immediately uses it to trigger the issue rule"."""
    return LolliElim(
        ForallElim(PConst(vocab.issue), NatLit(n)), print_affirmation
    )


def confirm_banker_proof(
    vocab: NewcoinVocabulary,
    banker: Term,
    term_end: int,
    appointment: ProofTerm,
) -> ProofTerm:
    """⟨President⟩appoint K t ⟶ is_banker K t."""
    rule = ForallElim(
        ForallElim(PConst(vocab.confirm), banker), NatLit(term_end)
    )
    return LolliElim(rule, appointment)


def banker_offer_prop(
    vocab: NewcoinVocabulary,
    deposit_address: PrincipalLit,
    n_btc: int,
    n_newcoins: int,
    revocation: Spent,
) -> Proposition:
    """The §6.1 published order: a receipt for n_btc sent to the bank's
    address D becomes a print order, revocable by spending R::

        receipt(n_btc ↠ D) ⊸ if(¬spent(R), print n_nc)
    """
    return Lolli(
        Receipt(One(), n_btc, deposit_address),
        IfProp(CNot(revocation), vocab.print_prop(n_newcoins)),
    )


def figure3_proof(
    vocab: NewcoinVocabulary,
    banker: Term,
    term_end: int,
    n_newcoins: int,
    revocation: Spent,
    receipt_var: str,
    order_var: str,
    banker_cred_var: str,
) -> ProofTerm:
    """The proof term of Figure 3, line for line.

    Given proof variables bound to r : receipt(n_btc ↠ D), p : ⟨Banker⟩(…
    offer …), and b : is_banker Banker T, produce
    if(¬spent(R) ∧ before(T), coin n_nc)::

        let x : ⟨Banker⟩if(¬spent(R), print N) ←
            (saybind f ← p in sayreturn(Banker, f r)) in
        let y : if(¬spent(R), ⟨Banker⟩print N) ← if/say(x) in
        ifbind z : ⟨Banker⟩print N ← ifweaken_{¬spent(R)∧before(T)}(y) in
        ifweaken_{¬spent(R)∧before(T)}(issue Banker T N b z)
    """
    not_spent: Condition = CNot(revocation)
    combined: Condition = CAnd(not_spent, Before(NatLit(term_end)))
    says_if = Says(banker, IfProp(not_spent, vocab.print_prop(n_newcoins)))
    if_says = IfProp(not_spent, Says(banker, vocab.print_prop(n_newcoins)))

    issue_rule = ForallElim(
        ForallElim(
            ForallElim(PConst(vocab.issue_term), banker), NatLit(term_end)
        ),
        NatLit(n_newcoins),
    )

    x_value = SayBind(
        "f",
        PVar(order_var),
        SayReturn(banker, LolliElim(PVar("f"), PVar(receipt_var))),
    )
    return let_(
        "x",
        says_if,
        x_value,
        let_(
            "y",
            if_says,
            IfSay(PVar("x")),
            IfBind(
                "z",
                IfWeaken(combined, PVar("y")),
                IfWeaken(
                    combined,
                    LolliElim(
                        LolliElim(issue_rule, PVar(banker_cred_var)),
                        PVar("z"),
                    ),
                ),
            ),
        ),
    )
