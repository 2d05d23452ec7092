"""Propositions of the Typecoin logic (paper Figure 1).

::

    A ::= c m₁…mᵢ | A ⊸ A | A & A | A ⊗ A | A ⊕ A | 0 | 1 | !A
        | ∀u:τ.A | ∃u:τ.A | ⟨m⟩A | receipt(A/n ↠ m) | if(φ, A)

Atomic propositions are LF type families of kind ``prop``.  ⊤ is omitted:
"which is meaningless in affine logic" (§4).  Conditionals if(φ, A) come
from §5.  Equality of propositions is α-equivalence after normalizing the
embedded LF terms (:func:`repro.lf.walk.convertible`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from repro.lf.syntax import Term, TypeFamily, declare_shape

if TYPE_CHECKING:  # pragma: no cover
    from repro.logic.conditions import Condition


@dataclass(frozen=True)
class Atom:
    """An atomic proposition: a type family of kind ``prop``."""

    family: TypeFamily


@dataclass(frozen=True)
class Lolli:
    """Affine implication A ⊸ B: consumes an A to produce a B."""

    antecedent: "Proposition"
    consequent: "Proposition"


@dataclass(frozen=True)
class Tensor:
    """Simultaneous conjunction A ⊗ B: both together."""

    left: "Proposition"
    right: "Proposition"


@dataclass(frozen=True)
class With:
    """Additive conjunction A & B: the holder's choice of one."""

    left: "Proposition"
    right: "Proposition"


@dataclass(frozen=True)
class Plus:
    """Additive disjunction A ⊕ B: one or the other, producer's choice."""

    left: "Proposition"
    right: "Proposition"


@dataclass(frozen=True)
class Zero:
    """The impossible resource 0."""


@dataclass(frozen=True)
class One:
    """The trivial resource 1 (the type of non-Typecoin txouts, §3)."""


@dataclass(frozen=True)
class Bang:
    """The exponential !A: as many copies of A as desired."""

    body: "Proposition"


@dataclass(frozen=True)
class Forall:
    """Universal quantification ∀u:τ.A over LF index terms."""

    var: str
    domain: TypeFamily
    body: "Proposition"


@dataclass(frozen=True)
class Exists:
    """Existential quantification ∃u:τ.A over LF index terms."""

    var: str
    domain: TypeFamily
    body: "Proposition"


@dataclass(frozen=True)
class Says:
    """The affirmation modality ⟨m⟩A: "the principal m says A"."""

    principal: Term
    body: "Proposition"


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


@dataclass(frozen=True)
class IfProp:
    """The conditional if(φ, A): an A, obtainable while φ holds (§5)."""

    condition: "Condition"
    body: "Proposition"


Proposition = Union[
    Atom, Lolli, Tensor, With, Plus, Zero, One, Bang, Forall, Exists, Says,
    Receipt, IfProp,
]

declare_shape(Atom, tag=0x50)
declare_shape(Lolli, tag=0x51)
declare_shape(Tensor, tag=0x52)
declare_shape(With, tag=0x53)
declare_shape(Plus, tag=0x54)
declare_shape(Zero, tag=0x55)
declare_shape(One, tag=0x56)
declare_shape(Bang, tag=0x57)
declare_shape(Forall, binder="var", tag=0x58)
declare_shape(Exists, binder="var", tag=0x59)
declare_shape(Says, tag=0x5A)
declare_shape(Receipt, data=("amount",), tag=0x5B)
declare_shape(IfProp, tag=0x5C)


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
