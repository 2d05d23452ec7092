"""Convenience builders for common transaction shapes.

Affine ``assert`` signatures cover the transaction they appear in (§4), so
a transaction whose proof *contains* asserts must be built in two phases:
fix (Σ, C, ι⃗, ω⃗), derive the signing payload, then construct the proof.
:func:`build_with_payload` packages that dance; the other helpers cover
recurring shapes (publishing a basis, simple transfers).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence

from repro.core.overlay import DUST_SAFE_AMOUNT
from repro.core.proofs import obligation_lambda, tensor_intro_all
from repro.core.transaction import (
    TypecoinInput,
    TypecoinOutput,
    TypecoinTransaction,
)
from repro.lf.basis import Basis
from repro.logic.proofterms import OneIntro, ProofTerm, PVar
from repro.logic.propositions import One, Proposition


def build_with_payload(
    basis: Basis,
    grant: Proposition,
    inputs: Sequence[TypecoinInput],
    outputs: Sequence[TypecoinOutput],
    proof_builder: Callable[[bytes], ProofTerm],
) -> TypecoinTransaction:
    """Two-phase construction: ``proof_builder`` receives the signing
    payload (for affine asserts) and returns the proof term."""
    draft = TypecoinTransaction(basis, grant, inputs, outputs, OneIntro())
    proof = proof_builder(draft.signing_payload())
    return replace(draft, proof=proof)


def basis_publication(
    basis: Basis,
    self_pubkey: bytes,
    grant: Proposition | None = None,
) -> TypecoinTransaction:
    """A transaction that only publishes a basis (and optionally banks an
    affine grant in its first output, of ``DUST_SAFE_AMOUNT`` satoshis).

    With no grant, the single output is trivial (type 1) — the basis still
    enters the global basis when the transaction confirms.
    """
    grant = grant if grant is not None else One()
    output = TypecoinOutput(grant, DUST_SAFE_AMOUNT, self_pubkey)
    proof = obligation_lambda(
        grant,
        [],
        [output.receipt()],
        lambda c, _ins, _rs: c,
    )
    return TypecoinTransaction(basis, grant, [], [output], proof)


def simple_transfer(
    inputs: Sequence[TypecoinInput],
    outputs: Sequence[TypecoinOutput],
    body: Callable[[list[PVar]], ProofTerm] | None = None,
) -> TypecoinTransaction:
    """inputs ⟶ outputs with an optional transformation body, publishing
    no basis.

    The default body forwards the inputs unchanged (a pure transfer, valid
    when the output propositions equal the input propositions in order).
    """
    outputs = list(outputs)
    proof = obligation_lambda(
        One(),
        [inp.prop for inp in inputs],
        [out.receipt() for out in outputs],
        lambda _c, ins, _rs: (
            body(ins) if body is not None else tensor_intro_all(list(ins))
        ),
    )
    return TypecoinTransaction(Basis(), One(), inputs, outputs, proof)
