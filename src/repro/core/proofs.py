"""Proof-term combinators for building transaction proofs.

Every transaction proof has the same outer shape — a λ over the obligation
``C ⊗ A ⊗ R`` followed by tensor decompositions — so this module builds
that scaffolding mechanically and lets callers write only the interesting
body, as a function from bound resource variables to a proof of the outputs
tensor.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

from repro.lf.syntax import SHAPES, fresh_name
from repro.logic.propositions import (
    One,
    Proposition,
    Tensor,
    tensor_all,
)
from repro.logic.proofterms import (
    LolliIntro,
    OneIntro,
    ProofTerm,
    PVar,
    TensorElim,
    TensorIntro,
)


def tensor_intro_all(parts: Sequence[ProofTerm]) -> ProofTerm:
    """Right-nested ⊗-introduction matching :func:`tensor_all`'s shape."""
    if not parts:
        return OneIntro()
    result = parts[-1]
    for part in reversed(parts[:-1]):
        result = TensorIntro(part, result)
    return result


def decompose_tensor(
    scrutinee: ProofTerm,
    count: int,
    body: Callable[[list[PVar]], ProofTerm],
    prefix: str = "t",
) -> ProofTerm:
    """Eliminate a right-nested ``count``-fold tensor into ``count`` vars.

    With count == 0 the scrutinee proves 1 and is simply dropped (affine
    weakening); with count == 1 the scrutinee itself is the variable.
    """
    if count == 0:
        return body([])
    names = [fresh_name(f"{prefix}{i}") for i in range(count)]

    def nest(index: int, current: ProofTerm) -> ProofTerm:
        if index == count - 1:
            # current proves the last component directly.
            return _bind_alias(names[index], current, after)

        left = names[index]
        rest = fresh_name(f"{prefix}rest")
        return TensorElim(
            left,
            rest,
            current,
            nest(index + 1, PVar(rest)),
        )

    # Build innermost body once all names are bound.
    after = body([PVar(name) for name in names])
    if count == 1:
        return _bind_alias(names[0], scrutinee, after)
    return nest(0, scrutinee)


def _bind_alias(name: str, value: ProofTerm, body: ProofTerm) -> ProofTerm:
    """Bind ``name`` to ``value`` without an annotation, by substituting the
    proof term directly.  Since our proof terms are trees (no sharing), the
    simplest alias is textual replacement of the variable."""
    return _substitute_pvar(body, name, value)


def _substitute_pvar(term: ProofTerm, name: str, value: ProofTerm) -> ProofTerm:
    """Replace free occurrences of PVar(name) with ``value``.

    Proof binders in this module use globally fresh names, so capture is
    not a concern here.
    """
    if isinstance(term, PVar):
        return value if term.name == name else term
    changes = {}
    for field in SHAPES[term.__class__].children:
        current = getattr(term, field)
        replaced = _substitute_pvar(current, name, value)
        if replaced is not current:
            changes[field] = replaced
    if not changes:
        return term
    return dataclasses.replace(term, **changes)


def obligation_lambda(
    grant: Proposition,
    input_props: Sequence[Proposition],
    receipt_props: Sequence[Proposition],
    body: Callable[[PVar, list[PVar], list[PVar]], ProofTerm],
) -> ProofTerm:
    """λobl:(C ⊗ A ⊗ R). …, with C, the Aᵢ, and the receipts bound.

    ``body(grant_var, input_vars, receipt_vars)`` must prove the outputs
    tensor (or an if(φ, outputs) for conditional transactions).
    """
    a_prop = tensor_all(list(input_props))
    r_prop = tensor_all(list(receipt_props))
    obligation = Tensor(grant, Tensor(a_prop, r_prop))
    obl = fresh_name("obl")
    c_var = fresh_name("c")
    ar_var = fresh_name("ar")
    a_var = fresh_name("a")
    r_var = fresh_name("r")

    inner = decompose_tensor(
        PVar(a_var),
        len(input_props),
        lambda input_vars: decompose_tensor(
            PVar(r_var),
            len(receipt_props),
            lambda receipt_vars: body(PVar(c_var), input_vars, receipt_vars),
            prefix="r",
        ),
        prefix="i",
    )
    return LolliIntro(
        obl,
        obligation,
        TensorElim(
            c_var,
            ar_var,
            PVar(obl),
            TensorElim(a_var, r_var, PVar(ar_var), inner),
        ),
    )
