"""LF type checking: kind formation, family kinding, term typing.

Implements three of the paper's judgements (Appendix A)::

    Σ; Ψ ⊢ k kind      kind formation
    Σ; Ψ ⊢ τ : k       type-family formation
    Σ; Ψ ⊢ m : τ       term typing

The algorithm is standard bidirectional checking with definitional equality
as α-equivalence of β(δ)-normal forms.  Family-level λ is absent (per
Harper–Pfenning), so families are always constants applied to terms or Π
types — which keeps equality checking simple.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.lf.basis import Basis, BasisError, KindDecl, NAT_T, PRINCIPAL_T, TypeDecl
from repro.lf.syntax import (
    App,
    Const,
    Kind,
    KindSort,
    KindT,
    KPi,
    Lam,
    NatLit,
    PrincipalLit,
    TApp,
    TConst,
    TPi,
    Term,
    TypeFamily,
    Var,
)
from repro.lf.walk import convertible, normalize, substitute


class LFTypeError(Exception):
    """An LF-level type error (with a human-readable reason)."""


@dataclass(frozen=True)
class LFContext:
    """The LF context Ψ: an ordered list of variable typings."""

    bindings: tuple[tuple[str, TypeFamily], ...] = ()

    def extend(self, var: str, family: TypeFamily) -> "LFContext":
        return LFContext(self.bindings + ((var, family),))

    def lookup(self, var: str) -> TypeFamily:
        for name, family in reversed(self.bindings):
            if name == var:
                return family
        raise LFTypeError(f"unbound variable {var}")

    def __contains__(self, var: str) -> bool:
        return any(name == var for name, _ in self.bindings)


EMPTY_CONTEXT = LFContext()


def check_kind(basis: Basis, ctx: LFContext, kind: KindT) -> None:
    """Judgement Σ;Ψ ⊢ k kind."""
    if isinstance(kind, Kind):
        return
    if isinstance(kind, KPi):
        check_family_is_type(basis, ctx, kind.domain)
        check_kind(basis, ctx.extend(kind.var, kind.domain), kind.body)
        return
    raise LFTypeError(f"not a kind: {kind!r}")


def infer_kind(basis: Basis, ctx: LFContext, family: TypeFamily) -> KindT:
    """Judgement Σ;Ψ ⊢ τ : k (kind synthesis)."""
    if isinstance(family, TConst):
        try:
            decl = basis.lookup(family.ref)
        except BasisError as exc:
            raise LFTypeError(str(exc)) from exc
        if not isinstance(decl, KindDecl):
            raise LFTypeError(f"{family.ref} is not a type-family constant")
        return decl.kind
    if isinstance(family, TApp):
        head_kind = infer_kind(basis, ctx, family.family)
        if not isinstance(head_kind, KPi):
            raise LFTypeError(
                f"family {family.family} applied to an argument but has kind"
                f" {head_kind}"
            )
        check_type(basis, ctx, family.arg, head_kind.domain)
        return substitute(head_kind.body, head_kind.var, family.arg)
    if isinstance(family, TPi):
        check_family_is_type(basis, ctx, family.domain)
        body_kind = infer_kind(basis, ctx.extend(family.var, family.domain), family.body)
        if not isinstance(body_kind, Kind):
            raise LFTypeError("Π body must have a base kind")
        return body_kind
    raise LFTypeError(f"not a type family: {family!r}")


def check_family_is_type(basis: Basis, ctx: LFContext, family: TypeFamily) -> None:
    """Check τ : type (contexts may only bind at kind ``type``)."""
    kind = infer_kind(basis, ctx, family)
    if kind != Kind(KindSort.TYPE):
        raise LFTypeError(f"{family} has kind {kind}, expected type")


def infer_type(basis: Basis, ctx: LFContext, term: Term) -> TypeFamily:
    """Judgement Σ;Ψ ⊢ m : τ (type synthesis)."""
    if obs.ENABLED:
        obs.inc("lf.typecheck_total")
    if isinstance(term, Var):
        return ctx.lookup(term.name)
    if isinstance(term, Const):
        try:
            decl = basis.lookup(term.ref)
        except BasisError as exc:
            raise LFTypeError(str(exc)) from exc
        if not isinstance(decl, TypeDecl):
            raise LFTypeError(f"{term.ref} is not an index-term constant")
        return decl.family
    if isinstance(term, PrincipalLit):
        return PRINCIPAL_T
    if isinstance(term, NatLit):
        return NAT_T
    if isinstance(term, Lam):
        check_family_is_type(basis, ctx, term.domain)
        body_type = infer_type(basis, ctx.extend(term.var, term.domain), term.body)
        return TPi(term.var, term.domain, body_type)
    if isinstance(term, App):
        func_type = normalize(infer_type(basis, ctx, term.func))
        if not isinstance(func_type, TPi):
            raise LFTypeError(
                f"application head {term.func} has non-function type {func_type}"
            )
        check_type(basis, ctx, term.arg, func_type.domain)
        return substitute(func_type.body, func_type.var, term.arg)
    raise LFTypeError(f"not an LF term: {term!r}")


def check_type(
    basis: Basis, ctx: LFContext, term: Term, expected: TypeFamily
) -> None:
    """Judgement Σ;Ψ ⊢ m : τ (checking against an expected type)."""
    actual = infer_type(basis, ctx, term)
    if not convertible(actual, expected):
        raise LFTypeError(
            f"term {term} has type {normalize(actual)}, expected"
            f" {normalize(expected)}"
        )
