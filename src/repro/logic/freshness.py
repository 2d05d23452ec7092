"""The freshness check (paper §4 and Appendix A).

"Each constant's sort ... must be restricted so that no transaction can make
declarations that change the meanings of non-local constants.  This check,
called the *freshness check*, requires that any *restricted form* must
appear on the left-hand side of a lolli or universal quantifier.  Thus,
restricted forms can be consumed but not produced.  Restricted forms
include non-local constants, the proposition 0, affirmations, and
receipts."

The rules are *positive*: there are simply no freshness rules for the
restricted forms, so a derivation exists exactly when every head position is
safe.  Local bases and affine grants must both pass.
"""

from __future__ import annotations

from repro.lf.basis import Basis, KindDecl, PropDecl, TypeDecl
from repro.lf.syntax import KindT, TApp, TConst, TPi, TypeFamily
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


class FreshnessError(Exception):
    """A basis or affine grant tries to produce a restricted form."""


def family_fresh(family: TypeFamily) -> bool:
    """τ fresh (Appendix A).

    * this.ℓ fresh — only locally-declared family heads;
    * τ m fresh when τ fresh — arguments are unrestricted;
    * Πx:τ.τ′ fresh when τ′ fresh — domains are unrestricted (left of Π).
    """
    if isinstance(family, TConst):
        return family.ref.is_local
    if isinstance(family, TApp):
        return family_fresh(family.family)
    if isinstance(family, TPi):
        return family_fresh(family.body)
    raise TypeError(f"not an LF family: {family!r}")


def prop_fresh(prop: Proposition) -> bool:
    """A fresh (Appendix A).

    Restricted forms — non-local atoms, 0, affirmations ⟨m⟩A, and receipts —
    have no rule and are therefore never fresh; everything to the left of a
    ⊸ (and quantifier domains) is unrestricted.
    """
    if isinstance(prop, Atom):
        return family_fresh(prop.family)
    if isinstance(prop, Lolli):
        return prop_fresh(prop.consequent)  # antecedent unrestricted
    if isinstance(prop, (Tensor, With, Plus)):
        return prop_fresh(prop.left) and prop_fresh(prop.right)
    if isinstance(prop, Zero):
        return False  # restricted form
    if isinstance(prop, One):
        return True
    if isinstance(prop, Bang):
        return prop_fresh(prop.body)
    if isinstance(prop, Forall):
        return prop_fresh(prop.body)  # domain unrestricted
    if isinstance(prop, Exists):
        return family_fresh(prop.domain) and prop_fresh(prop.body)
    if isinstance(prop, Says):
        return False  # affirmations are restricted
    if isinstance(prop, Receipt):
        return False  # receipts are restricted
    if isinstance(prop, IfProp):
        return prop_fresh(prop.body)
    raise TypeError(f"not a proposition: {prop!r}")


def kind_fresh(_kind: KindT) -> bool:
    """Kinds are always fresh: declaring a new family is harmless
    (Appendix A: ``Σ, this.ℓ:k fresh`` has no premise on k)."""
    return True


def is_fresh(sort) -> bool:
    """Freshness of a declaration sort (kind, family, or proposition)."""
    if isinstance(sort, KindDecl):
        return kind_fresh(sort.kind)
    if isinstance(sort, TypeDecl):
        return family_fresh(sort.family)
    if isinstance(sort, PropDecl):
        return prop_fresh(sort.prop)
    raise TypeError(f"not a declaration: {sort!r}")


def check_prop_fresh(prop: Proposition) -> None:
    """Raise unless the affine grant C is fresh."""
    if not prop_fresh(prop):
        raise FreshnessError(f"affine grant fails the freshness check: {prop}")


def check_basis_fresh(basis: Basis) -> None:
    """Σ fresh: every declaration local and individually fresh."""
    for ref, decl in basis:
        if not ref.is_local:
            raise FreshnessError(
                f"local basis may only declare this.* constants, got {ref}"
            )
        if not is_fresh(decl):
            raise FreshnessError(f"declaration {ref} fails the freshness check")
