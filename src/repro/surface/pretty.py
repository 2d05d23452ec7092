"""Pretty printer: logic syntax back to parseable surface text.

The invariant the test suite enforces: ``parse(pretty(x))`` is α-equivalent
to ``x`` for every syntactic class.  Printing is precedence-aware, inserting
parentheses only where the grammar demands them.
"""

from __future__ import annotations

from repro.lf.basis import ADD, NAT, PLUS, PLUS_REFL, PRINCIPAL
from repro.lf.syntax import (
    App,
    BUILTIN,
    Const,
    ConstRef,
    Kind,
    KindSort,
    KindT,
    KPi,
    Lam,
    NatLit,
    PrincipalLit,
    TApp,
    TConst,
    THIS,
    TPi,
    Term,
    TypeFamily,
    Var,
)
from repro.lf.walk import free_vars
from repro.logic.conditions import Before, CAnd, CNot, Condition, CTrue, Spent
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

_BUILTIN_NAMES = {NAT: "nat", PRINCIPAL: "principal", PLUS: "plus",
                  ADD: "add", PLUS_REFL: "plus_refl"}


def pretty_ref(ref: ConstRef) -> str:
    if ref.space is BUILTIN:
        return _BUILTIN_NAMES.get(ref, ref.name)
    if ref.space is THIS:
        return f"this.{ref.name}"
    return f"0x{ref.space.hex()}.{ref.name}"


def _clean(var: str) -> str:
    """Strip freshness suffixes ($N) for printing; parsers re-unique them."""
    return var.split("$", 1)[0] or "_"


# -- kinds ------------------------------------------------------------


def pretty_kind(kind: KindT) -> str:
    if isinstance(kind, Kind):
        return "type" if kind.sort is KindSort.TYPE else "prop"
    if isinstance(kind, KPi):
        return (
            f"pi {_clean(kind.var)}:{pretty_family(kind.domain)}."
            f" {pretty_kind(kind.body)}"
        )
    raise TypeError(f"not a kind: {kind!r}")


# -- families ----------------------------------------------------------


def pretty_family(family: TypeFamily, atomic: bool = False) -> str:
    if isinstance(family, TConst):
        return pretty_ref(family.ref)
    if isinstance(family, TApp):
        text = (
            f"{pretty_family(family.family, atomic=False)}"
            f" {pretty_term(family.arg, atomic=True)}"
        )
        # Application heads must themselves be applications or atoms.
        if isinstance(family.family, TPi):
            raise TypeError("family application head cannot be a Π type")
        return f"({text})" if atomic else text
    if isinstance(family, TPi):
        if family.var in free_vars(family.body):
            text = (
                f"pi {_clean(family.var)}:{pretty_family(family.domain)}."
                f" {pretty_family(family.body)}"
            )
        else:
            text = (
                f"{pretty_family(family.domain, atomic=True)} ->"
                f" {pretty_family(family.body)}"
            )
        return f"({text})" if atomic else text
    raise TypeError(f"not a family: {family!r}")


# -- terms ---------------------------------------------------------------


def pretty_term(term: Term, atomic: bool = False) -> str:
    if isinstance(term, Var):
        return _clean(term.name)
    if isinstance(term, Const):
        return pretty_ref(term.ref)
    if isinstance(term, NatLit):
        return str(term.value)
    if isinstance(term, PrincipalLit):
        return f"#{term.key_hash.hex()}"
    if isinstance(term, Lam):
        text = (
            f"\\{_clean(term.var)}:{pretty_family(term.domain)}."
            f" {pretty_term(term.body)}"
        )
        return f"({text})" if atomic else text
    if isinstance(term, App):
        text = (
            f"{pretty_term(term.func, atomic=isinstance(term.func, Lam))}"
            f" {pretty_term(term.arg, atomic=True)}"
        )
        return f"({text})" if atomic else text
    raise TypeError(f"not a term: {term!r}")


# -- conditions --------------------------------------------------------------


def pretty_cond(cond: Condition, atomic: bool = False) -> str:
    if isinstance(cond, CTrue):
        return "true"
    if isinstance(cond, CAnd):
        text = (
            f"{pretty_cond(cond.left, atomic=True)} /\\"
            f" {pretty_cond(cond.right, atomic=True)}"
        )
        return f"({text})" if atomic else text
    if isinstance(cond, CNot):
        return f"~{pretty_cond(cond.body, atomic=True)}"
    if isinstance(cond, Before):
        return f"before({pretty_term(cond.time)})"
    if isinstance(cond, Spent):
        return f"spent(0x{cond.txid.hex()}.{cond.index})"
    raise TypeError(f"not a condition: {cond!r}")


# -- propositions --------------------------------------------------------------

# Precedence levels: 0 lolli, 1 plus, 2 with, 3 tensor, 4 prefix/atom.
_LOLLI, _PLUS, _WITH, _TENSOR, _PREFIX = range(5)


def pretty_prop(prop: Proposition, level: int = _LOLLI) -> str:
    text, prec = _render(prop)
    if prec < level:
        return f"({text})"
    return text


def _render(prop: Proposition) -> tuple[str, int]:
    if isinstance(prop, Lolli):
        left = pretty_prop(prop.antecedent, _PLUS)
        right = pretty_prop(prop.consequent, _LOLLI)
        return f"{left} -o {right}", _LOLLI
    if isinstance(prop, Plus):
        left = pretty_prop(prop.left, _PLUS)
        right = pretty_prop(prop.right, _WITH)
        return f"{left} + {right}", _PLUS
    if isinstance(prop, With):
        left = pretty_prop(prop.left, _WITH)
        right = pretty_prop(prop.right, _TENSOR)
        return f"{left} & {right}", _WITH
    if isinstance(prop, Tensor):
        left = pretty_prop(prop.left, _TENSOR)
        right = pretty_prop(prop.right, _PREFIX)
        return f"{left} * {right}", _TENSOR
    if isinstance(prop, Bang):
        return f"!{pretty_prop(prop.body, _PREFIX)}", _PREFIX
    if isinstance(prop, Says):
        principal = pretty_term(prop.principal)
        return f"[{principal}] {pretty_prop(prop.body, _PREFIX)}", _PREFIX
    if isinstance(prop, (Forall, Exists)):
        keyword = "forall" if isinstance(prop, Forall) else "exists"
        text = (
            f"{keyword} {_clean(prop.var)}:{pretty_family(prop.domain)}."
            f" {pretty_prop(prop.body, _LOLLI)}"
        )
        # Quantifiers swallow everything rightward; parenthesize when nested.
        return text, _LOLLI
    if isinstance(prop, IfProp):
        return (
            f"if({pretty_cond(prop.condition)}, {pretty_prop(prop.body)})",
            _PREFIX,
        )
    if isinstance(prop, Receipt):
        recipient = pretty_term(prop.recipient)
        if isinstance(prop.prop, One):
            if prop.amount:
                # Pure bitcoin receipt: receipt(n ↠ K).
                return f"receipt({prop.amount} ->> {recipient})", _PREFIX
            # Bare "1" would re-parse as an amount; write 1/0 explicitly.
            return f"receipt(1/0 ->> {recipient})", _PREFIX
        body = pretty_prop(prop.prop)
        if prop.amount:
            return f"receipt({body}/{prop.amount} ->> {recipient})", _PREFIX
        if isinstance(prop.prop, Zero):
            # Bare "0" would re-parse as an amount; write 0/0 explicitly.
            return f"receipt(0/0 ->> {recipient})", _PREFIX
        return f"receipt({body} ->> {recipient})", _PREFIX
    if isinstance(prop, Zero):
        return "0", _PREFIX
    if isinstance(prop, One):
        return "1", _PREFIX
    if isinstance(prop, Atom):
        return _render_atom(prop.family), _PREFIX
    raise TypeError(f"not a proposition: {prop!r}")


def _render_atom(family: TypeFamily) -> str:
    if isinstance(family, TConst):
        return pretty_ref(family.ref)
    if isinstance(family, TApp):
        return f"{_render_atom(family.family)} {pretty_term(family.arg, atomic=True)}"
    raise TypeError(f"atomic proposition with non-applicative family: {family!r}")
