"""LF abstract syntax (paper Figure 1).

::

    kind        k ::= type | prop | Πu:τ.k
    type family τ ::= c | τ m | Πu:τ.τ | principal | nat
    index term  m ::= u | c | λu:τ.m | m m | K | n

Constants carry a *reference* to the transaction whose basis declared them:
``this`` inside the declaring transaction, its txid afterwards, or the
distinguished ``builtin`` namespace for the primitives (``nat``,
``principal``, arithmetic).  Variables are named; substitution is
capture-avoiding via on-the-fly renaming, and equality is α-equivalence
(callers β-normalize first when definitional equality is wanted).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterator, Union


class _Space(enum.Enum):
    THIS = "this"
    BUILTIN = "builtin"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.value


THIS = _Space.THIS
BUILTIN = _Space.BUILTIN

# A constant lives in a transaction (by txid bytes), in the transaction
# currently being built (THIS), or in the builtin namespace.
Namespace = Union[bytes, _Space]


@dataclass(frozen=True)
class ConstRef:
    """A fully-qualified constant name: namespace + local label."""

    space: Namespace
    name: str

    def __str__(self) -> str:
        if self.space is THIS:
            return f"this.{self.name}"
        if self.space is BUILTIN:
            return self.name
        return f"{self.space[:4].hex()}….{self.name}"

    @property
    def is_local(self) -> bool:
        return self.space is THIS

    def resolved(self, txid: bytes) -> "ConstRef":
        """Replace ``this`` with the enclosing transaction's id."""
        if self.space is THIS:
            return ConstRef(txid, self.name)
        return self


# ----------------------------------------------------------------------
# Kinds
# ----------------------------------------------------------------------


class KindSort(enum.Enum):
    """The two base kinds: ordinary LF types and Typecoin propositions."""

    TYPE = "type"
    PROP = "prop"


@dataclass(frozen=True)
class Kind:
    """A base kind: ``type`` or ``prop``."""

    sort: KindSort

    def __str__(self) -> str:
        return self.sort.value


@dataclass(frozen=True)
class KPi:
    """A dependent kind ``Πu:τ.k`` (type-family arguments)."""

    var: str
    domain: "TypeFamily"
    body: "KindT"

    def __str__(self) -> str:
        return f"Π{self.var}:{self.domain}.{self.body}"


KindT = Union[Kind, KPi]

KIND_TYPE = Kind(KindSort.TYPE)
KIND_PROP = Kind(KindSort.PROP)


# ----------------------------------------------------------------------
# Type families and terms
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TConst:
    """A type-family constant ``c``."""

    ref: ConstRef

    def __str__(self) -> str:
        return str(self.ref)


@dataclass(frozen=True)
class TApp:
    """Family application ``τ m``."""

    family: "TypeFamily"
    arg: "Term"

    def __str__(self) -> str:
        return f"{self.family} {_atom_str(self.arg)}"


@dataclass(frozen=True)
class TPi:
    """Dependent function type ``Πu:τ.τ'`` (written ``τ → τ'`` when u unused)."""

    var: str
    domain: "TypeFamily"
    body: "TypeFamily"

    def __str__(self) -> str:
        if self.var not in free_vars(self.body):
            return f"({self.domain} → {self.body})"
        return f"(Π{self.var}:{self.domain}.{self.body})"


TypeFamily = Union[TConst, TApp, TPi]


@dataclass(frozen=True)
class Var:
    """A term variable ``u``."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    """A term constant ``c``."""

    ref: ConstRef

    def __str__(self) -> str:
        return str(self.ref)


@dataclass(frozen=True)
class Lam:
    """Abstraction ``λu:τ.m``."""

    var: str
    domain: TypeFamily
    body: "Term"

    def __str__(self) -> str:
        return f"(λ{self.var}:{self.domain}.{self.body})"


@dataclass(frozen=True)
class App:
    """Application ``m m'``."""

    func: "Term"
    arg: "Term"

    def __str__(self) -> str:
        return f"{_atom_str(self.func)} {_atom_str(self.arg)}"


@dataclass(frozen=True)
class PrincipalLit:
    """A principal literal K: the hash of a public key (20 bytes)."""

    key_hash: bytes

    def __post_init__(self) -> None:
        if len(self.key_hash) != 20:
            raise ValueError("principal literals are 20-byte key hashes")

    def __str__(self) -> str:
        return f"#{self.key_hash[:4].hex()}"


@dataclass(frozen=True)
class NatLit:
    """A natural-number literal n."""

    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("nat literals are non-negative")

    def __str__(self) -> str:
        return str(self.value)


Term = Union[Var, Const, Lam, App, PrincipalLit, NatLit]

Node = Union[KindT, TypeFamily, Term]


def _atom_str(term: Term) -> str:
    text = str(term)
    if isinstance(term, App) and not text.startswith("("):
        return f"({text})"
    return text


# ----------------------------------------------------------------------
# Free variables, substitution, α-equivalence
# ----------------------------------------------------------------------


def free_vars(node: Node) -> frozenset[str]:
    """The free term variables of a kind, family, or term."""
    if isinstance(node, (Kind, TConst, Const, PrincipalLit, NatLit)):
        return frozenset()
    if isinstance(node, Var):
        return frozenset((node.name,))
    if isinstance(node, (KPi, TPi)):
        return free_vars(node.domain) | (free_vars(node.body) - {node.var})
    if isinstance(node, Lam):
        return free_vars(node.domain) | (free_vars(node.body) - {node.var})
    if isinstance(node, TApp):
        return free_vars(node.family) | free_vars(node.arg)
    if isinstance(node, App):
        return free_vars(node.func) | free_vars(node.arg)
    raise TypeError(f"not an LF node: {node!r}")


_fresh_counter = itertools.count()


def fresh_name(base: str) -> str:
    """A globally fresh variable name derived from ``base``."""
    root = base.split("$", 1)[0]
    return f"{root}${next(_fresh_counter)}"


def substitute(node: Node, var: str, replacement: Term) -> Node:
    """Capture-avoiding substitution ``[replacement/var]node``."""
    if isinstance(node, (Kind, TConst, Const, PrincipalLit, NatLit)):
        return node
    if isinstance(node, Var):
        return replacement if node.name == var else node
    if isinstance(node, TApp):
        return TApp(
            substitute(node.family, var, replacement),
            substitute(node.arg, var, replacement),
        )
    if isinstance(node, App):
        return App(
            substitute(node.func, var, replacement),
            substitute(node.arg, var, replacement),
        )
    if isinstance(node, (KPi, TPi, Lam)):
        domain = substitute(node.domain, var, replacement)
        if node.var == var:
            return type(node)(node.var, domain, node.body)
        if node.var in free_vars(replacement):
            renamed = fresh_name(node.var)
            body = substitute(node.body, node.var, Var(renamed))
            body = substitute(body, var, replacement)
            return type(node)(renamed, domain, body)
        return type(node)(node.var, domain, substitute(node.body, var, replacement))
    raise TypeError(f"not an LF node: {node!r}")


def alpha_equal(a: Node, b: Node) -> bool:
    """Structural equality up to bound-variable renaming."""
    return _alpha(a, b, {}, {})


def _alpha(a: Node, b: Node, env_a: dict, env_b: dict) -> bool:
    # One node against itself is α-equal when both sides bind every name
    # alike; under different binders a shared subterm may not be.
    if a is b and env_a == env_b:
        return True
    if isinstance(a, Var) and isinstance(b, Var):
        return env_a.get(a.name, a.name) == env_b.get(b.name, b.name)
    if type(a) is not type(b):
        return False
    if isinstance(a, Kind):
        return a.sort is b.sort
    if isinstance(a, (TConst, Const)):
        return a.ref == b.ref
    if isinstance(a, PrincipalLit):
        return a.key_hash == b.key_hash
    if isinstance(a, NatLit):
        return a.value == b.value
    if isinstance(a, TApp):
        return _alpha(a.family, b.family, env_a, env_b) and _alpha(
            a.arg, b.arg, env_a, env_b
        )
    if isinstance(a, App):
        return _alpha(a.func, b.func, env_a, env_b) and _alpha(
            a.arg, b.arg, env_a, env_b
        )
    if isinstance(a, (KPi, TPi, Lam)):
        if not _alpha(a.domain, b.domain, env_a, env_b):
            return False
        marker = object()
        env_a2 = {**env_a, a.var: marker}
        env_b2 = {**env_b, b.var: marker}
        return _alpha(a.body, b.body, env_a2, env_b2)
    raise TypeError(f"not an LF node: {a!r}")


def substitute_this(node: Node, txid: bytes) -> Node:
    """Resolve every ``this``-reference to the given transaction id.

    Applied when a transaction enters the blockchain: "all its declarations
    are added to the global basis, with this replaced by the transaction's
    identifier" (paper §4).
    """
    if isinstance(node, (Kind, Var, PrincipalLit, NatLit)):
        return node
    if isinstance(node, TConst):
        return TConst(node.ref.resolved(txid))
    if isinstance(node, Const):
        return Const(node.ref.resolved(txid))
    if isinstance(node, TApp):
        return TApp(substitute_this(node.family, txid), substitute_this(node.arg, txid))
    if isinstance(node, App):
        return App(substitute_this(node.func, txid), substitute_this(node.arg, txid))
    if isinstance(node, (KPi, TPi, Lam)):
        return type(node)(
            node.var,
            substitute_this(node.domain, txid),
            substitute_this(node.body, txid),
        )
    raise TypeError(f"not an LF node: {node!r}")


def iter_constants(node: Node) -> Iterator[ConstRef]:
    """Yield every constant reference in a node (for freshness checks)."""
    if isinstance(node, (Kind, Var, PrincipalLit, NatLit)):
        return
    if isinstance(node, (TConst, Const)):
        yield node.ref
        return
    if isinstance(node, TApp):
        yield from iter_constants(node.family)
        yield from iter_constants(node.arg)
        return
    if isinstance(node, App):
        yield from iter_constants(node.func)
        yield from iter_constants(node.arg)
        return
    if isinstance(node, (KPi, TPi, Lam)):
        yield from iter_constants(node.domain)
        yield from iter_constants(node.body)
        return
    raise TypeError(f"not an LF node: {node!r}")


def arrow(domain: TypeFamily, body: TypeFamily) -> TPi:
    """Non-dependent function type ``τ → τ'``."""
    return TPi(fresh_name("_"), domain, body)


def apply_family(family: TypeFamily, *args: Term) -> TypeFamily:
    """Left-nested family application ``τ m₁ … mₙ``."""
    for arg in args:
        family = TApp(family, arg)
    return family


def apply_term(func: Term, *args: Term) -> Term:
    """Left-nested term application ``m m₁ … mₙ``."""
    for arg in args:
        func = App(func, arg)
    return func
