"""LF abstract syntax (paper Figure 1).

::

    kind        k ::= type | prop | Πu:τ.k
    type family τ ::= c | τ m | Πu:τ.τ | principal | nat
    index term  m ::= u | c | λu:τ.m | m m | K | n

Constants carry a *reference* to the transaction whose basis declared them:
``this`` inside the declaring transaction, its txid afterwards, or the
distinguished ``builtin`` namespace for the primitives (``nat``,
``principal``, arithmetic).  Variables are named.

Every node class of the syntax — the LF classes here, conditions
(:mod:`repro.logic.conditions`), propositions
(:mod:`repro.logic.propositions`) and proof terms
(:mod:`repro.logic.proofterms`) — declares its shape once, with
:func:`declare_shape` beside its definition, into the one table
:data:`SHAPES`: its child fields in declaration order, its data fields, and
the field naming the LF variable it binds, which scopes over ``body`` and
not over its other children (``KPi``, ``TPi``, ``Lam``, ``Forall``,
``Exists``, and the proof terms ``ForallIntro`` and ``ExistsElim``).
:mod:`repro.lf.walk` holds one walker per operation — ``free_vars``,
``substitute``, ``substitute_this``, ``alpha_equal``, ``normalize``,
``convertible`` and ``nodes_of_type`` — and each reads this table and
nothing else about a class.  A row also carries what the wire codec
(:mod:`repro.logic.codec`) needs beyond the fields themselves: the class's
tag byte, and each proof-variable binder with the child it scopes over.

No class here defines its own ``__str__``.  :func:`declare_shape` gives
every syntax node (a tag of 0x10 and up; a declaration's is below) the one
surface printer, :func:`repro.surface.pretty.pretty`, as its ``str`` — the
one call from :mod:`repro.lf` and :mod:`repro.logic` up into
:mod:`repro.surface`, made at call time — and ``str`` of a ``ConstRef`` is
that printer's too.  So every message that shows a node shows text the
parser reads back.
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from dataclasses import dataclass
from typing import NamedTuple, Union


class Shape(NamedTuple):
    """What the walkers and the wire codec know of one node class."""

    fields: tuple[str, ...]  # every field, in declaration order
    children: tuple[str, ...]  # the fields holding syntax, in order
    data: tuple[str, ...]  # compared with ``==`` and carried over as they are
    binder: str | None  # names the LF variable bound in ``body``
    tag: int | None  # the byte that opens the class's encoding
    proof_binders: tuple[tuple[str, str], ...]  # (binder, the child it scopes over)


SHAPES: dict[type, Shape] = {}


def declare_shape(
    cls: type, data: tuple[str, ...] = (), binder: str | None = None,
    tag: int | None = None, proof_binders: dict[str, str] | None = None,
) -> None:
    """Enter ``cls`` in :data:`SHAPES`: every field not in ``data``, not
    the binder and not a proof binder holds a child.  A proof binder names
    a proof variable; to the walkers, which speak LF variables, it is data."""
    scopes = tuple((proof_binders or {}).items())
    data = tuple(data) + tuple(name for name, _ in scopes)
    fields = tuple(f.name for f in dataclasses.fields(cls))
    if not set(data) <= set(fields) or (binder is not None and binder not in fields):
        raise TypeError(f"{cls.__name__} has no such field")
    children = tuple(name for name in fields if name not in data and name != binder)
    if binder is not None and "body" not in children:
        raise TypeError(f"{cls.__name__} binds {binder} but has no body")
    if any(child not in children for _, child in scopes):
        raise TypeError(f"{cls.__name__} binds a proof variable in no child")
    SHAPES[cls] = Shape(fields, children, data, binder, tag, scopes)
    if tag is not None and tag >= 0x10:  # a syntax node, not a declaration
        cls.__str__ = _surface_text


def _surface_text(node) -> str:
    """``str`` of a syntax node or a constant: the surface printer's text."""
    from repro.surface.pretty import pretty

    return pretty(node)


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

    @property
    def is_local(self) -> bool:
        return self.space is THIS

    def resolved(self, txid: bytes) -> "ConstRef":
        """Replace ``this`` with the enclosing transaction's id."""
        if self.space is THIS:
            return ConstRef(txid, self.name)
        return self


ConstRef.__str__ = _surface_text


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


@dataclass(frozen=True)
class KPi:
    """A dependent kind ``Πu:τ.k`` (type-family arguments)."""

    var: str
    domain: "TypeFamily"
    body: "KindT"


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


@dataclass(frozen=True)
class TApp:
    """Family application ``τ m``."""

    family: "TypeFamily"
    arg: "Term"


@dataclass(frozen=True)
class TPi:
    """Dependent function type ``Πu:τ.τ'`` (written ``τ → τ'`` when u unused)."""

    var: str
    domain: "TypeFamily"
    body: "TypeFamily"


TypeFamily = Union[TConst, TApp, TPi]


@dataclass(frozen=True)
class Var:
    """A term variable ``u``."""

    name: str


@dataclass(frozen=True)
class Const:
    """A term constant ``c``."""

    ref: ConstRef


@dataclass(frozen=True)
class Lam:
    """Abstraction ``λu:τ.m``."""

    var: str
    domain: TypeFamily
    body: "Term"


@dataclass(frozen=True)
class App:
    """Application ``m m'``."""

    func: "Term"
    arg: "Term"


@dataclass(frozen=True)
class PrincipalLit:
    """A principal literal K: the hash of a public key (20 bytes)."""

    key_hash: bytes

    def __post_init__(self) -> None:
        if len(self.key_hash) != 20:
            raise ValueError("principal literals are 20-byte key hashes")


@dataclass(frozen=True)
class NatLit:
    """A natural-number literal n."""

    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("nat literals are non-negative")


Term = Union[Var, Const, Lam, App, PrincipalLit, NatLit]

declare_shape(Kind, data=("sort",), tag=0x30)
declare_shape(KPi, binder="var", tag=0x31)
declare_shape(TConst, data=("ref",), tag=0x20)
declare_shape(TApp, tag=0x21)
declare_shape(TPi, binder="var", tag=0x22)
declare_shape(Var, data=("name",), tag=0x10)
declare_shape(Const, data=("ref",), tag=0x11)
declare_shape(Lam, binder="var", tag=0x12)
declare_shape(App, tag=0x13)
declare_shape(PrincipalLit, data=("key_hash",), tag=0x14)
declare_shape(NatLit, data=("value",), tag=0x15)


_fresh_counter = itertools.count()


def fresh_name(base: str) -> str:
    """A globally fresh variable name derived from ``base``."""
    root = base.split("$", 1)[0]
    return f"{root}${next(_fresh_counter)}"


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
