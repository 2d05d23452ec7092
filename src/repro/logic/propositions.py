"""Propositions of the Typecoin logic (paper Figure 1).

::

    A ::= c m₁…mᵢ | A ⊸ A | A & A | A ⊗ A | A ⊕ A | 0 | 1 | !A
        | ∀u:τ.A | ∃u:τ.A | ⟨m⟩A | receipt(A/n ↠ m) | if(φ, A)

Atomic propositions are LF type families of kind ``prop``.  ⊤ is omitted:
"which is meaningless in affine logic" (§4).  Conditionals if(φ, A) come
from §5.  Equality of propositions is α-equivalence after normalizing the
embedded LF terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Union

from repro.lf.normalize import (
    NORMAL_FORM,
    normalize,
    normalize_family,
    remember_normal_form,
)
from repro.lf.syntax import (
    ConstRef,
    Node,
    Term,
    TypeFamily,
    alpha_equal as lf_alpha_equal,
    free_vars as lf_free_vars,
    fresh_name,
    iter_constants as lf_iter_constants,
    substitute as lf_substitute,
    substitute_this as lf_substitute_this,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.logic.conditions import Condition


@dataclass(frozen=True)
class Atom:
    """An atomic proposition: a type family of kind ``prop``."""

    family: TypeFamily

    def __str__(self) -> str:
        return str(self.family)


@dataclass(frozen=True)
class Lolli:
    """Affine implication A ⊸ B: consumes an A to produce a B."""

    antecedent: "Proposition"
    consequent: "Proposition"

    def __str__(self) -> str:
        return f"({self.antecedent} ⊸ {self.consequent})"


@dataclass(frozen=True)
class Tensor:
    """Simultaneous conjunction A ⊗ B: both together."""

    left: "Proposition"
    right: "Proposition"

    def __str__(self) -> str:
        return f"({self.left} ⊗ {self.right})"


@dataclass(frozen=True)
class With:
    """Additive conjunction A & B: the holder's choice of one."""

    left: "Proposition"
    right: "Proposition"

    def __str__(self) -> str:
        return f"({self.left} & {self.right})"


@dataclass(frozen=True)
class Plus:
    """Additive disjunction A ⊕ B: one or the other, producer's choice."""

    left: "Proposition"
    right: "Proposition"

    def __str__(self) -> str:
        return f"({self.left} ⊕ {self.right})"


@dataclass(frozen=True)
class Zero:
    """The impossible resource 0."""

    def __str__(self) -> str:
        return "0"


@dataclass(frozen=True)
class One:
    """The trivial resource 1 (the type of non-Typecoin txouts, §3)."""

    def __str__(self) -> str:
        return "1"


@dataclass(frozen=True)
class Bang:
    """The exponential !A: as many copies of A as desired."""

    body: "Proposition"

    def __str__(self) -> str:
        return f"!{self.body}"


@dataclass(frozen=True)
class Forall:
    """Universal quantification ∀u:τ.A over LF index terms."""

    var: str
    domain: TypeFamily
    body: "Proposition"

    def __str__(self) -> str:
        return f"(∀{self.var}:{self.domain}.{self.body})"


@dataclass(frozen=True)
class Exists:
    """Existential quantification ∃u:τ.A over LF index terms."""

    var: str
    domain: TypeFamily
    body: "Proposition"

    def __str__(self) -> str:
        return f"(∃{self.var}:{self.domain}.{self.body})"


@dataclass(frozen=True)
class Says:
    """The affirmation modality ⟨m⟩A: "the principal m says A"."""

    principal: Term
    body: "Proposition"

    def __str__(self) -> str:
        return f"⟨{self.principal}⟩{self.body}"


@dataclass(frozen=True)
class Receipt:
    """receipt(A/n ↠ K): resources A and n bitcoins were sent to K (§4).

    The pure forms receipt(A ↠ K) and receipt(n ↠ K) are the special cases
    ``amount = 0`` and ``prop = One()`` respectively.
    """

    prop: "Proposition"
    amount: int
    recipient: Term

    def __post_init__(self) -> None:
        if self.amount < 0:
            raise ValueError("receipt amounts are non-negative satoshis")

    def __str__(self) -> str:
        return f"receipt({self.prop}/{self.amount} ↠ {self.recipient})"


@dataclass(frozen=True)
class IfProp:
    """The conditional if(φ, A): an A, obtainable while φ holds (§5)."""

    condition: "Condition"
    body: "Proposition"

    def __str__(self) -> str:
        return f"if({self.condition}, {self.body})"


Proposition = Union[
    Atom, Lolli, Tensor, With, Plus, Zero, One, Bang, Forall, Exists, Says,
    Receipt, IfProp,
]

_BINARY = (Lolli, Tensor, With, Plus)
_QUANT = (Forall, Exists)
_NULLARY = (Zero, One)


def tensor_all(props: list[Proposition]) -> Proposition:
    """Right-nested tensor of a list; 1 for the empty list.

    Used for A = A₁ ⊗ … ⊗ A_α in the transaction-formation judgement.
    """
    if not props:
        return One()
    result = props[-1]
    for prop in reversed(props[:-1]):
        result = Tensor(prop, result)
    return result


def free_vars_prop(prop: Proposition) -> frozenset[str]:
    """Free LF variables of a proposition."""
    from repro.logic.conditions import free_vars_cond

    if isinstance(prop, Atom):
        return lf_free_vars(prop.family)
    if isinstance(prop, _BINARY):
        left, right = _parts(prop)
        return free_vars_prop(left) | free_vars_prop(right)
    if isinstance(prop, _NULLARY):
        return frozenset()
    if isinstance(prop, Bang):
        return free_vars_prop(prop.body)
    if isinstance(prop, _QUANT):
        return lf_free_vars(prop.domain) | (free_vars_prop(prop.body) - {prop.var})
    if isinstance(prop, Says):
        return lf_free_vars(prop.principal) | free_vars_prop(prop.body)
    if isinstance(prop, Receipt):
        return free_vars_prop(prop.prop) | lf_free_vars(prop.recipient)
    if isinstance(prop, IfProp):
        return free_vars_cond(prop.condition) | free_vars_prop(prop.body)
    raise TypeError(f"not a proposition: {prop!r}")


def _parts(prop: Proposition) -> tuple[Proposition, Proposition]:
    if isinstance(prop, Lolli):
        return prop.antecedent, prop.consequent
    return prop.left, prop.right  # type: ignore[union-attr]


def _rebuild(prop: Proposition, left: Proposition, right: Proposition) -> Proposition:
    if isinstance(prop, Lolli):
        return Lolli(left, right)
    return type(prop)(left, right)  # type: ignore[call-arg]


def substitute_prop(prop: Proposition, var: str, replacement: Term) -> Proposition:
    """Capture-avoiding substitution of an LF term into a proposition."""
    from repro.logic.conditions import substitute_cond

    if isinstance(prop, Atom):
        return Atom(lf_substitute(prop.family, var, replacement))
    if isinstance(prop, _BINARY):
        left, right = _parts(prop)
        return _rebuild(
            prop,
            substitute_prop(left, var, replacement),
            substitute_prop(right, var, replacement),
        )
    if isinstance(prop, _NULLARY):
        return prop
    if isinstance(prop, Bang):
        return Bang(substitute_prop(prop.body, var, replacement))
    if isinstance(prop, _QUANT):
        domain = lf_substitute(prop.domain, var, replacement)
        if prop.var == var:
            return type(prop)(prop.var, domain, prop.body)
        if prop.var in lf_free_vars(replacement):
            renamed = fresh_name(prop.var)
            from repro.lf.syntax import Var as LFVar

            body = substitute_prop(prop.body, prop.var, LFVar(renamed))
            body = substitute_prop(body, var, replacement)
            return type(prop)(renamed, domain, body)
        return type(prop)(
            prop.var, domain, substitute_prop(prop.body, var, replacement)
        )
    if isinstance(prop, Says):
        return Says(
            lf_substitute(prop.principal, var, replacement),
            substitute_prop(prop.body, var, replacement),
        )
    if isinstance(prop, Receipt):
        return Receipt(
            substitute_prop(prop.prop, var, replacement),
            prop.amount,
            lf_substitute(prop.recipient, var, replacement),
        )
    if isinstance(prop, IfProp):
        return IfProp(
            substitute_cond(prop.condition, var, replacement),
            substitute_prop(prop.body, var, replacement),
        )
    raise TypeError(f"not a proposition: {prop!r}")


def substitute_this_prop(prop: Proposition, txid: bytes) -> Proposition:
    """Resolve ``this`` references throughout a proposition."""
    from repro.logic.conditions import substitute_this_cond

    if isinstance(prop, Atom):
        return Atom(lf_substitute_this(prop.family, txid))
    if isinstance(prop, _BINARY):
        left, right = _parts(prop)
        return _rebuild(
            prop,
            substitute_this_prop(left, txid),
            substitute_this_prop(right, txid),
        )
    if isinstance(prop, _NULLARY):
        return prop
    if isinstance(prop, Bang):
        return Bang(substitute_this_prop(prop.body, txid))
    if isinstance(prop, _QUANT):
        return type(prop)(
            prop.var,
            lf_substitute_this(prop.domain, txid),
            substitute_this_prop(prop.body, txid),
        )
    if isinstance(prop, Says):
        return Says(
            lf_substitute_this(prop.principal, txid),
            substitute_this_prop(prop.body, txid),
        )
    if isinstance(prop, Receipt):
        return Receipt(
            substitute_this_prop(prop.prop, txid),
            prop.amount,
            lf_substitute_this(prop.recipient, txid),
        )
    if isinstance(prop, IfProp):
        return IfProp(
            substitute_this_cond(prop.condition, txid),
            substitute_this_prop(prop.body, txid),
        )
    raise TypeError(f"not a proposition: {prop!r}")


def normalize_prop(prop: Proposition) -> Proposition:
    """Normalize all embedded LF terms (β and arithmetic δ).

    Computed once per node and kept on it (see :mod:`repro.lf.normalize`);
    a proposition already in normal form is returned as itself.
    """
    known = prop.__dict__.get(NORMAL_FORM)
    if known is not None:
        return prop if known is True else known
    if isinstance(prop, Atom):
        family = normalize_family(prop.family)
        normal = prop if family is prop.family else Atom(family)
    elif isinstance(prop, _BINARY):
        left, right = _parts(prop)
        new_left, new_right = normalize_prop(left), normalize_prop(right)
        if new_left is left and new_right is right:
            normal = prop
        else:
            normal = _rebuild(prop, new_left, new_right)
    elif isinstance(prop, _NULLARY):
        return prop
    elif isinstance(prop, Bang):
        body = normalize_prop(prop.body)
        normal = prop if body is prop.body else Bang(body)
    elif isinstance(prop, _QUANT):
        domain = normalize_family(prop.domain)
        body = normalize_prop(prop.body)
        if domain is prop.domain and body is prop.body:
            normal = prop
        else:
            normal = type(prop)(prop.var, domain, body)
    elif isinstance(prop, Says):
        principal = normalize(prop.principal)
        body = normalize_prop(prop.body)
        if principal is prop.principal and body is prop.body:
            normal = prop
        else:
            normal = Says(principal, body)
    elif isinstance(prop, Receipt):
        inner = normalize_prop(prop.prop)
        recipient = normalize(prop.recipient)
        if inner is prop.prop and recipient is prop.recipient:
            normal = prop
        else:
            normal = Receipt(inner, prop.amount, recipient)
    elif isinstance(prop, IfProp):
        from repro.logic.conditions import normalize_cond

        condition = normalize_cond(prop.condition)
        body = normalize_prop(prop.body)
        if condition is prop.condition and body is prop.body:
            normal = prop
        else:
            normal = IfProp(condition, body)
    else:
        raise TypeError(f"not a proposition: {prop!r}")
    return remember_normal_form(prop, normal)


def alpha_equal_prop(a: Proposition, b: Proposition) -> bool:
    """Syntactic equality up to renaming of bound LF variables."""
    return _alpha_prop(a, b, {}, {})


def _alpha_prop(a: Proposition, b: Proposition, env_a: dict, env_b: dict) -> bool:
    # One node against itself is α-equal when both sides bind every name
    # alike; under different binders a shared subterm may not be.
    if a is b and env_a == env_b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, Atom):
        return _alpha_node(a.family, b.family, env_a, env_b)
    if isinstance(a, _BINARY):
        la, ra = _parts(a)
        lb, rb = _parts(b)
        return _alpha_prop(la, lb, env_a, env_b) and _alpha_prop(ra, rb, env_a, env_b)
    if isinstance(a, _NULLARY):
        return True
    if isinstance(a, Bang):
        return _alpha_prop(a.body, b.body, env_a, env_b)
    if isinstance(a, _QUANT):
        if not _alpha_node(a.domain, b.domain, env_a, env_b):
            return False
        marker = object()
        return _alpha_prop(
            a.body, b.body, {**env_a, a.var: marker}, {**env_b, b.var: marker}
        )
    if isinstance(a, Says):
        return _alpha_node(a.principal, b.principal, env_a, env_b) and _alpha_prop(
            a.body, b.body, env_a, env_b
        )
    if isinstance(a, Receipt):
        return (
            a.amount == b.amount
            and _alpha_prop(a.prop, b.prop, env_a, env_b)
            and _alpha_node(a.recipient, b.recipient, env_a, env_b)
        )
    if isinstance(a, IfProp):
        from repro.logic.conditions import _alpha_cond

        return _alpha_cond(a.condition, b.condition, env_a, env_b) and _alpha_prop(
            a.body, b.body, env_a, env_b
        )
    raise TypeError(f"not a proposition: {a!r}")


def _alpha_node(a: Node, b: Node, env_a: dict, env_b: dict) -> bool:
    from repro.lf.syntax import _alpha

    return _alpha(a, b, env_a, env_b)


def props_equal(a: Proposition, b: Proposition) -> bool:
    """Definitional equality: α-equivalence of normalized propositions."""
    return alpha_equal_prop(normalize_prop(a), normalize_prop(b))


def iter_constants_prop(prop: Proposition) -> Iterator[ConstRef]:
    """Every constant reference occurring in a proposition."""
    from repro.logic.conditions import iter_constants_cond

    if isinstance(prop, Atom):
        yield from lf_iter_constants(prop.family)
        return
    if isinstance(prop, _BINARY):
        left, right = _parts(prop)
        yield from iter_constants_prop(left)
        yield from iter_constants_prop(right)
        return
    if isinstance(prop, _NULLARY):
        return
    if isinstance(prop, Bang):
        yield from iter_constants_prop(prop.body)
        return
    if isinstance(prop, _QUANT):
        yield from lf_iter_constants(prop.domain)
        yield from iter_constants_prop(prop.body)
        return
    if isinstance(prop, Says):
        yield from lf_iter_constants(prop.principal)
        yield from iter_constants_prop(prop.body)
        return
    if isinstance(prop, Receipt):
        yield from iter_constants_prop(prop.prop)
        yield from lf_iter_constants(prop.recipient)
        return
    if isinstance(prop, IfProp):
        yield from iter_constants_cond(prop.condition)
        yield from iter_constants_prop(prop.body)
        return
    raise TypeError(f"not a proposition: {prop!r}")
