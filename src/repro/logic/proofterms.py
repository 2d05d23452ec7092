"""Proof terms of the affine logic (paper §4, Figure 1).

"Most of the proof terms are the standard proof terms of affine logic.  In
addition, there are four forms for affirmation [sayreturn, saybind, assert,
assert!]" plus the four conditional-monad forms of §5 (ifreturn, ifbind,
ifweaken, if/say).

Introduction forms carry enough annotations that checking is syntax-directed
type *synthesis*; :mod:`repro.logic.checker` implements the judgement
``T;Σ;Ψ;Γ;Δ ⊢ M : A``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from repro.lf.syntax import ConstRef, Term, TypeFamily, declare_shape

if TYPE_CHECKING:  # pragma: no cover
    from repro.logic.conditions import Condition
    from repro.logic.propositions import Proposition


@dataclass(frozen=True)
class Affirmation:
    """A digital signature packaged with the public key that made it.

    Principals are key *hashes* (paper §4 fn. 6), so signatures must carry
    the preimage key for verification.
    """

    pubkey: bytes  # compressed SEC1 encoding
    signature: bytes  # 64-byte compact ECDSA


@dataclass(frozen=True)
class PVar:
    """A proof variable (affine from Δ or persistent from Γ)."""

    name: str


@dataclass(frozen=True)
class PConst:
    """A proof constant declared in a basis (persistent)."""

    ref: ConstRef


@dataclass(frozen=True)
class LolliIntro:
    """λx:A.M : A ⊸ B."""

    var: str
    annotation: "Proposition"
    body: "ProofTerm"


@dataclass(frozen=True)
class LolliElim:
    """M N : B where M : A ⊸ B and N : A (disjoint resources)."""

    func: "ProofTerm"
    arg: "ProofTerm"


@dataclass(frozen=True)
class TensorIntro:
    """M ⊗ N : A ⊗ B (disjoint resources)."""

    left: "ProofTerm"
    right: "ProofTerm"


@dataclass(frozen=True)
class TensorElim:
    """let x ⊗ y = M in N."""

    left_var: str
    right_var: str
    scrutinee: "ProofTerm"
    body: "ProofTerm"


@dataclass(frozen=True)
class WithIntro:
    """(M, N) : A & B — both alternatives over the *same* resources."""

    left: "ProofTerm"
    right: "ProofTerm"


@dataclass(frozen=True)
class WithFst:
    """fst M : A from M : A & B."""

    body: "ProofTerm"


@dataclass(frozen=True)
class WithSnd:
    """snd M : B from M : A & B."""

    body: "ProofTerm"


@dataclass(frozen=True)
class PlusInl:
    """inl M : A ⊕ B (annotated with the absent side B)."""

    other: "Proposition"
    body: "ProofTerm"


@dataclass(frozen=True)
class PlusInr:
    """inr M : A ⊕ B (annotated with the absent side A)."""

    other: "Proposition"
    body: "ProofTerm"


@dataclass(frozen=True)
class PlusCase:
    """case M of inl x ⇒ N₁ | inr y ⇒ N₂ (branches share resources)."""

    scrutinee: "ProofTerm"
    left_var: str
    left_body: "ProofTerm"
    right_var: str
    right_body: "ProofTerm"


@dataclass(frozen=True)
class OneIntro:
    """⟨⟩ : 1."""


@dataclass(frozen=True)
class OneElim:
    """let ⟨⟩ = M in N."""

    scrutinee: "ProofTerm"
    body: "ProofTerm"


@dataclass(frozen=True)
class ZeroElim:
    """abort M : C for any C, from M : 0."""

    scrutinee: "ProofTerm"
    annotation: "Proposition"


@dataclass(frozen=True)
class BangIntro:
    """!M : !A — promotion; M may use no affine resources."""

    body: "ProofTerm"


@dataclass(frozen=True)
class BangElim:
    """let !x = M in N — x becomes a persistent hypothesis in N."""

    var: str
    scrutinee: "ProofTerm"
    body: "ProofTerm"


@dataclass(frozen=True)
class ForallIntro:
    """Λu:τ.M : ∀u:τ.A."""

    var: str
    domain: TypeFamily
    body: "ProofTerm"


@dataclass(frozen=True)
class ForallElim:
    """M [m] : [m/u]A from M : ∀u:τ.A."""

    body: "ProofTerm"
    arg: Term


@dataclass(frozen=True)
class ExistsIntro:
    """pack(m, M) as ∃u:τ.A (the annotation fixes A)."""

    annotation: "Proposition"  # the Exists proposition being introduced
    witness: Term
    body: "ProofTerm"


@dataclass(frozen=True)
class ExistsElim:
    """let (u, x) = unpack M in N."""

    type_var: str
    proof_var: str
    scrutinee: "ProofTerm"
    body: "ProofTerm"


@dataclass(frozen=True)
class SayReturn:
    """sayreturnₘ(M) : ⟨m⟩A — every principal affirms everything provable."""

    principal: Term
    body: "ProofTerm"


@dataclass(frozen=True)
class SayBind:
    """saybind x ← M₁ in M₂ : ⟨m⟩B — reason under an affirmation."""

    var: str
    scrutinee: "ProofTerm"
    body: "ProofTerm"


@dataclass(frozen=True)
class Assert:
    """assert(K, A, sig) : ⟨K⟩A — affine affirmation; the signature covers
    the enclosing transaction, so it cannot be replayed elsewhere."""

    principal: Term  # must normalize to a PrincipalLit
    prop: "Proposition"
    affirmation: Affirmation


@dataclass(frozen=True)
class AssertPersistent:
    """assert!(K, A, sig) : ⟨K⟩A — persistent affirmation; the signature
    covers only A, so it may be lifted out of its transaction."""

    principal: Term
    prop: "Proposition"
    affirmation: Affirmation


@dataclass(frozen=True)
class IfReturn:
    """ifreturn_φ(M) : if(φ, A) — weaken any A into a conditional."""

    condition: "Condition"
    body: "ProofTerm"


@dataclass(frozen=True)
class IfBind:
    """ifbind x ← M₁ in M₂ : if(φ, B)."""

    var: str
    scrutinee: "ProofTerm"
    body: "ProofTerm"


@dataclass(frozen=True)
class IfWeaken:
    """ifweaken_φ(M) : if(φ, A) from M : if(φ′, A), when φ ⊃ φ′."""

    condition: "Condition"
    body: "ProofTerm"


@dataclass(frozen=True)
class IfSay:
    """if/say(M) : if(φ, ⟨m⟩A) from M : ⟨m⟩if(φ, A).

    The commutation runs only this direction; "the opposite direction ...
    is semantically dubious and we do not include it" (§5).
    """

    body: "ProofTerm"


ProofTerm = Union[
    PVar, PConst, LolliIntro, LolliElim, TensorIntro, TensorElim, WithIntro,
    WithFst, WithSnd, PlusInl, PlusInr, PlusCase, OneIntro, OneElim, ZeroElim,
    BangIntro, BangElim, ForallIntro, ForallElim, ExistsIntro, ExistsElim,
    SayReturn, SayBind, Assert, AssertPersistent, IfReturn, IfBind, IfWeaken,
    IfSay,
]

# The walkers of repro.lf.walk speak LF variables: ``ForallIntro`` and
# ``ExistsElim`` bind one over their body.  Proof-variable binders are
# data to them, compared by name; the wire codec reads which child each
# one scopes over.
declare_shape(PVar, data=("name",), tag=0x60)
declare_shape(PConst, data=("ref",), tag=0x61)
declare_shape(LolliIntro, proof_binders={"var": "body"}, tag=0x62)
declare_shape(LolliElim, tag=0x63)
declare_shape(TensorIntro, tag=0x64)
declare_shape(
    TensorElim, proof_binders={"left_var": "body", "right_var": "body"}, tag=0x65
)
declare_shape(WithIntro, tag=0x66)
declare_shape(WithFst, tag=0x67)
declare_shape(WithSnd, tag=0x68)
declare_shape(PlusInl, tag=0x69)
declare_shape(PlusInr, tag=0x6A)
declare_shape(
    PlusCase,
    proof_binders={"left_var": "left_body", "right_var": "right_body"},
    tag=0x6B,
)
declare_shape(OneIntro, tag=0x6C)
declare_shape(OneElim, tag=0x6D)
declare_shape(ZeroElim, tag=0x6E)
declare_shape(BangIntro, tag=0x6F)
declare_shape(BangElim, proof_binders={"var": "body"}, tag=0x70)
declare_shape(ForallIntro, binder="var", tag=0x71)
declare_shape(ForallElim, tag=0x72)
declare_shape(ExistsIntro, tag=0x73)
declare_shape(
    ExistsElim, binder="type_var", proof_binders={"proof_var": "body"}, tag=0x74
)
declare_shape(SayReturn, tag=0x75)
declare_shape(SayBind, proof_binders={"var": "body"}, tag=0x76)
declare_shape(Assert, data=("affirmation",), tag=0x77)
declare_shape(AssertPersistent, data=("affirmation",), tag=0x78)
declare_shape(IfReturn, tag=0x79)
declare_shape(IfBind, proof_binders={"var": "body"}, tag=0x7A)
declare_shape(IfWeaken, tag=0x7B)
declare_shape(IfSay, tag=0x7C)


def let_(var: str, annotation: "Proposition", value: ProofTerm, body: ProofTerm) -> ProofTerm:
    """``let x : A ← M in N`` — "a derived form built from lambda and
    application" (paper §6.1, Figure 3)."""
    return LolliElim(LolliIntro(var, annotation, body), value)
