"""Bases: ordered sets of constant declarations (paper §4).

"A basis is a set of constant declarations.  Each constant represents a new
type family, index term, or proof term.  A transaction uses its local basis
to define concepts or rules relevant to its transaction. ...  The *global
basis* is the local basis appended to the bases of all previous
transactions."

Declarations are ordered (later ones may mention earlier ones) and each
constant may be declared at most once.  Proof-term declarations
(:class:`PropDecl`) store propositions from :mod:`repro.logic`; this module
only stores them — their formation checks live with the logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Union

from repro import obs
from repro.lf.syntax import (
    BUILTIN,
    THIS,
    App,
    Const,
    ConstRef,
    KIND_TYPE,
    KindT,
    KPi,
    TApp,
    TConst,
    TPi,
    TypeFamily,
    Var,
    declare_shape,
)
from repro.lf.walk import register_arith, substitute_this

if TYPE_CHECKING:  # pragma: no cover
    from repro.logic.propositions import Proposition


class BasisError(Exception):
    """Raised for duplicate, unknown, or ill-placed declarations."""


@dataclass(frozen=True)
class KindDecl:
    """Declares a type-family constant ``c : k``."""

    kind: KindT


@dataclass(frozen=True)
class TypeDecl:
    """Declares an index-term constant ``c : τ``."""

    family: TypeFamily


@dataclass(frozen=True)
class PropDecl:
    """Declares a proof-term constant ``c : A``."""

    prop: "Proposition"


Declaration = Union[KindDecl, TypeDecl, PropDecl]

declare_shape(KindDecl, tag=0x01)
declare_shape(TypeDecl, tag=0x02)
declare_shape(PropDecl, tag=0x03)


@dataclass
class Basis:
    """An ordered map from constant references to declarations."""

    _decls: dict[ConstRef, Declaration] = field(default_factory=dict)

    def declare(self, ref: ConstRef, decl: Declaration) -> None:
        if ref in self._decls:
            raise BasisError(f"constant {ref} already declared")
        self._decls[ref] = decl

    def declare_local(self, name: str, decl: Declaration) -> ConstRef:
        """Declare ``this.name`` (the only form a local basis may contain)."""
        ref = ConstRef(THIS, name)
        self.declare(ref, decl)
        return ref

    def lookup(self, ref: ConstRef) -> Declaration:
        if obs.ENABLED:
            obs.inc("lf.basis_lookups_total")
        try:
            return self._decls[ref]
        except KeyError:
            raise BasisError(f"unknown constant {ref}") from None

    def __contains__(self, ref: ConstRef) -> bool:
        return ref in self._decls

    def __len__(self) -> int:
        return len(self._decls)

    def __iter__(self) -> Iterator[tuple[ConstRef, Declaration]]:
        return iter(self._decls.items())

    def all_local(self) -> bool:
        """Does every declaration use a ``this`` reference?  (Required of
        transaction-local bases: "a transaction's local basis may only
        declare local constants.")"""
        return all(ref.is_local for ref in self._decls)

    def extended(self, *others: "Basis") -> "Basis":
        """A new basis: self's declarations followed by each of others'."""
        decls = dict(self._decls)
        for other in others:
            if not decls.keys().isdisjoint(other._decls):
                clash = next(ref for ref in other._decls if ref in decls)
                raise BasisError(f"constant {clash} already declared")
            decls.update(other._decls)
        return Basis(decls)

    def resolved(self, txid: bytes) -> "Basis":
        """Rewrite ``this`` to ``txid`` in names *and* bodies.

        Used when a transaction enters the chain and its local declarations
        join the global basis (paper §4).
        """
        resolved = Basis()
        for ref, decl in self._decls.items():
            resolved.declare(ref.resolved(txid), substitute_this(decl, txid))
        return resolved


declare_shape(Basis)


# ----------------------------------------------------------------------
# The builtin basis: nat, principal, and literal arithmetic
# ----------------------------------------------------------------------

NAT = ConstRef(BUILTIN, "nat")
PRINCIPAL = ConstRef(BUILTIN, "principal")
ADD = ConstRef(BUILTIN, "add")
PLUS = ConstRef(BUILTIN, "plus")
PLUS_REFL = ConstRef(BUILTIN, "plus_refl")

NAT_T = TConst(NAT)
PRINCIPAL_T = TConst(PRINCIPAL)


def builtin_basis() -> Basis:
    """The primitive declarations every global basis starts from.

    * ``nat : type`` and ``principal : type`` — the two special types of
      paper §4 (``time`` is "actually just nat", so it is a surface-syntax
      alias, not a separate constant).
    * ``add : nat → nat → nat`` — δ-reduces on literals.
    * ``plus : nat → nat → nat → type`` — the proof-relevant addition
      relation the §6 newcoin example depends on.
    * ``plus_refl : Πn:nat.Πm:nat. plus n m (add n m)`` — its sole
      introduction form; with δ-reduction, ``plus_refl 2 3 : plus 2 3 5``.

    Each call returns a new ``Basis``, so a caller may declare into it;
    the declarations themselves are built once per process and shared.
    """
    return Basis(dict(_BUILTINS._decls))


_BUILTINS = Basis()
_BUILTINS.declare(NAT, KindDecl(KIND_TYPE))
_BUILTINS.declare(PRINCIPAL, KindDecl(KIND_TYPE))
_BUILTINS.declare(ADD, TypeDecl(TPi("_a", NAT_T, TPi("_b", NAT_T, NAT_T))))
_BUILTINS.declare(
    PLUS,
    KindDecl(KPi("_n", NAT_T, KPi("_m", NAT_T, KPi("_p", NAT_T, KIND_TYPE)))),
)
_BUILTINS.declare(
    PLUS_REFL,
    TypeDecl(TPi("n", NAT_T, TPi("m", NAT_T, TApp(
        TApp(TApp(TConst(PLUS), Var("n")), Var("m")),
        App(App(Const(ADD), Var("n")), Var("m")),
    )))),
)

# Register the arithmetic δ-rule with the normalizer.
register_arith(ADD, lambda a, b: a + b)
