"""Conditions and their entailment (paper §5, Figure 2, Appendix A).

::

    φ ::= true | φ ∧ φ | ¬φ | before(t) | spent(txid.n)

"The essential property of all conditions φ is that there be unambiguous
evidence of the truth or falsity of φ for any particular transaction in the
blockchain."  Two relations live here:

* **entailment** Φ ⊃ Φ′ — the classical sequent calculus of Appendix A,
  used by ``ifweaken``;
* **evaluation** against a :class:`WorldView` (a timestamp plus a
  spent-txout oracle) — used when a transaction discharges its top-level
  conditional.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from repro.lf.syntax import NatLit, Term, declare_shape
from repro.lf.walk import alpha_equal, normalize


@dataclass(frozen=True)
class CTrue:
    """The trivially true condition."""


@dataclass(frozen=True)
class CAnd:
    """Conjunction φ₁ ∧ φ₂."""

    left: "Condition"
    right: "Condition"


@dataclass(frozen=True)
class CNot:
    """Negation ¬φ (used with spent for revocation, §5)."""

    body: "Condition"


@dataclass(frozen=True)
class Before:
    """before(t): holds in any transaction whose block time is earlier
    than t.  The time index is an LF term of type nat."""

    time: Term


@dataclass(frozen=True)
class Spent:
    """spent(txid.n): the n-th output of txid has been spent."""

    txid: bytes
    index: int

    def __post_init__(self) -> None:
        if len(self.txid) != 32:
            raise ValueError("spent conditions name 32-byte txids")
        if self.index < 0:
            raise ValueError("output index must be non-negative")


Condition = Union[CTrue, CAnd, CNot, Before, Spent]

declare_shape(CTrue, tag=0x40)
declare_shape(CAnd, tag=0x41)
declare_shape(CNot, tag=0x42)
declare_shape(Before, tag=0x43)
declare_shape(Spent, data=("txid", "index"), tag=0x44)


# ----------------------------------------------------------------------
# Entailment Φ ⊃ Φ′ — Appendix A's classical sequent calculus
# ----------------------------------------------------------------------


def entails(antecedents: list[Condition], consequents: list[Condition]) -> bool:
    """Decide the sequent Φ ⊃ Φ′.

    The calculus is classical: ∧ decomposes on both sides, ¬ swaps sides,
    ``true`` succeeds on the right, identical atoms close a branch, and
    ``before(t) ⊃ before(t′)`` closes when t ≤ t′ (comparable only for
    literal times; symbolic times close by equality via the identity rule).
    """
    left = [normalize(c) for c in antecedents]
    right = [normalize(c) for c in consequents]
    return _prove(left, right)


def _prove(left: list[Condition], right: list[Condition]) -> bool:
    # Decompose left.
    for i, cond in enumerate(left):
        rest = left[:i] + left[i + 1 :]
        if isinstance(cond, CTrue):
            return _prove(rest, right)
        if isinstance(cond, CAnd):
            return _prove(rest + [cond.left, cond.right], right)
        if isinstance(cond, CNot):
            return _prove(rest, right + [cond.body])
    # Decompose right.
    for i, cond in enumerate(right):
        rest = right[:i] + right[i + 1 :]
        if isinstance(cond, CTrue):
            return True
        if isinstance(cond, CAnd):
            return _prove(left, rest + [cond.left]) and _prove(
                left, rest + [cond.right]
            )
        if isinstance(cond, CNot):
            return _prove(left + [cond.body], rest)
    # Atomic sequent: identity or the before axiom.
    for l_atom in left:
        for r_atom in right:
            if alpha_equal(l_atom, r_atom):
                return True
            if isinstance(l_atom, Before) and isinstance(r_atom, Before):
                if (
                    isinstance(l_atom.time, NatLit)
                    and isinstance(r_atom.time, NatLit)
                    and l_atom.time.value <= r_atom.time.value
                ):
                    return True
    return False


def implies(premise: Condition, conclusion: Condition) -> bool:
    """φ ⊃ φ′ as a binary relation (what ``ifweaken`` consults)."""
    return entails([premise], [conclusion])


# ----------------------------------------------------------------------
# Evaluation against a world view
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorldView:
    """Enough of the blockchain to decide any condition: the time the
    transaction would carry, and the spent-txout oracle (§5: "Recall that
    Bitcoin maintains a table of all unspent txouts")."""

    time: int
    spent_oracle: Callable[[bytes, int], bool]

    @staticmethod
    def at_time(time: int) -> "WorldView":
        """A world with no spent outputs (handy in tests)."""
        return WorldView(time=time, spent_oracle=lambda _txid, _n: False)


class ConditionUndecidable(Exception):
    """A condition contains free variables and cannot be evaluated."""


def evaluate(cond: Condition, world: WorldView) -> bool:
    """Decide φ in a world.  Raises :class:`ConditionUndecidable` when a
    ``before`` index is not a closed literal."""
    cond = normalize(cond)
    if isinstance(cond, CTrue):
        return True
    if isinstance(cond, CAnd):
        return evaluate(cond.left, world) and evaluate(cond.right, world)
    if isinstance(cond, CNot):
        return not evaluate(cond.body, world)
    if isinstance(cond, Before):
        if not isinstance(cond.time, NatLit):
            raise ConditionUndecidable(f"non-literal time in {cond}")
        return world.time < cond.time.value
    if isinstance(cond, Spent):
        return world.spent_oracle(cond.txid, cond.index)
    raise TypeError(f"not a condition: {cond!r}")
