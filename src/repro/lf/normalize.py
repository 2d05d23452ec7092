"""β-normalization (plus arithmetic δ-rules) for LF terms and families.

Definitional equality in this LF fragment is α-equivalence of β-normal
forms.  One δ-rule augments β: the builtin ``add`` applied to two ``nat``
literals reduces to their sum, which is what lets ``plus_refl n m`` inhabit
``plus n m (n+m)`` with literal numbers (see :mod:`repro.lf.basis`).

A normal form is a pure function of a deeply immutable node, so each
normaliser here (and ``normalize_prop`` / ``normalize_cond`` in
:mod:`repro.logic`) computes it once per node: the result is stored in the
node's instance ``__dict__`` under :data:`NORMAL_FORM`, the way
``functools.cached_property`` stores its value, and the result is marked
as its own normal form.  Dataclass ``==``, ``hash``, ``repr`` and
``fields`` never read the instance dict, so the memo is invisible to them
and to every encoding.  A rebuild returns the node itself when no child
changed, so a node already in normal form costs one walk and no copies.
The memo check sits inline at the top of each normaliser rather than in a
decorator: a wrapper would double the interpreter frames per nesting level.
"""

from __future__ import annotations

from repro.lf import syntax
from repro.lf.syntax import (
    App,
    Const,
    Kind,
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
    alpha_equal,
    substitute,
)

# The δ-reducible arithmetic constants, filled in by repro.lf.basis at
# import time (avoiding a circular import).
_DELTA_ARITH: dict[syntax.ConstRef, object] = {}


def register_arith(ref: syntax.ConstRef, fn) -> None:
    """Register a binary nat operation for δ-reduction (add, etc.)."""
    _DELTA_ARITH[ref] = fn


def _try_delta(term: App) -> Term | None:
    """Reduce ``op l1 l2`` when op is registered and both args are literals."""
    if not isinstance(term.func, App):
        return None
    inner = term.func
    if not isinstance(inner.func, Const):
        return None
    fn = _DELTA_ARITH.get(inner.func.ref)
    if fn is None:
        return None
    a, b = inner.arg, term.arg
    if isinstance(a, NatLit) and isinstance(b, NatLit):
        return NatLit(fn(a.value, b.value))
    return None


# The instance-dict key of a node's memoised normal form.  The value is
# ``True`` when the node is its own normal form (a marker rather than a
# self-reference, so a node is never a reference cycle of its own), else
# the normal-form node.
NORMAL_FORM = "_normal_form"


def remember_normal_form(node, normal):
    """Record ``normal`` as ``node``'s normal form, and as its own; return it."""
    if normal is node:
        node.__dict__[NORMAL_FORM] = True
    else:
        node.__dict__[NORMAL_FORM] = normal
        normal.__dict__[NORMAL_FORM] = True
    return normal


def normalize(term: Term, _depth: int = 0) -> Term:
    """Full β(δ)-normalization of a term."""
    if _depth > 10_000:
        raise RecursionError("normalization diverged")
    if isinstance(term, (Var, Const, PrincipalLit, NatLit)):
        return term
    known = term.__dict__.get(NORMAL_FORM)
    if known is not None:
        return term if known is True else known
    if isinstance(term, Lam):
        domain = normalize_family(term.domain)
        body = normalize(term.body)
        if domain is term.domain and body is term.body:
            return remember_normal_form(term, term)
        return remember_normal_form(term, Lam(term.var, domain, body))
    if isinstance(term, App):
        func = normalize(term.func, _depth + 1)
        arg = normalize(term.arg, _depth + 1)
        if isinstance(func, Lam):
            return remember_normal_form(
                term, normalize(substitute(func.body, func.var, arg), _depth + 1)
            )
        if func is term.func and arg is term.arg:
            reduced = term
        else:
            reduced = App(func, arg)
        delta = _try_delta(reduced)
        return remember_normal_form(term, reduced if delta is None else delta)
    raise TypeError(f"not an LF term: {term!r}")


def normalize_family(family: TypeFamily) -> TypeFamily:
    """Normalize the term arguments inside a type family."""
    if isinstance(family, TConst):
        return family
    known = family.__dict__.get(NORMAL_FORM)
    if known is not None:
        return family if known is True else known
    if isinstance(family, TApp):
        head = normalize_family(family.family)
        arg = normalize(family.arg)
        if head is family.family and arg is family.arg:
            return remember_normal_form(family, family)
        return remember_normal_form(family, TApp(head, arg))
    if isinstance(family, TPi):
        domain = normalize_family(family.domain)
        body = normalize_family(family.body)
        if domain is family.domain and body is family.body:
            return remember_normal_form(family, family)
        return remember_normal_form(family, TPi(family.var, domain, body))
    raise TypeError(f"not an LF family: {family!r}")


def normalize_kind(kind):
    """Normalize the families inside a kind."""
    if isinstance(kind, Kind):
        return kind
    if isinstance(kind, KPi):
        return KPi(kind.var, normalize_family(kind.domain), normalize_kind(kind.body))
    raise TypeError(f"not an LF kind: {kind!r}")


def terms_equal(a: Term, b: Term) -> bool:
    """Definitional equality of terms: α-equivalence of normal forms."""
    return alpha_equal(normalize(a), normalize(b))


def families_equal(a: TypeFamily, b: TypeFamily) -> bool:
    """Definitional equality of families."""
    return alpha_equal(normalize_family(a), normalize_family(b))


def kinds_equal(a, b) -> bool:
    """Definitional equality of kinds."""
    return alpha_equal(normalize_kind(a), normalize_kind(b))
