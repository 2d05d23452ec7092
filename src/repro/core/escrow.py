"""Open transactions and type-checking escrow (paper §7).

An *open transaction* is "a transaction with holes that anyone can fill
in": a missing input txout (whose required type is fixed) and a missing
output principal.  By itself it proves nothing — Bitcoin cannot typecheck —
so the asset rides in escrow: the issuer parks it under the escrow agents'
keys, publishes the signed template, and each agent's policy is "to sign
any instance of the transaction that type checks."  With a 2-of-3 script,
"participants can tolerate one of the three agents becoming compromised."
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bitcoin.chain import Blockchain
from repro.bitcoin.script import Op, Script
from repro.bitcoin.sighash import SigHashType, signature_hash
from repro.bitcoin.standard import ScriptType, classify, multisig_script
from repro.bitcoin.transaction import Transaction
from repro.core.overlay import OverlayError, check_carrier_correspondence
from repro.core.transaction import (
    TypecoinInput,
    TypecoinOutput,
    TypecoinTransaction,
)
from repro.core.validate import (
    Ledger,
    ValidationFailure,
    check_typecoin_transaction,
    world_at,
)
from repro.core.verifier import ClaimBundle, VerificationError, verify_claim
from repro.crypto.ecdsa import Signature
from repro.crypto.keys import PrivateKey, PublicKey
from repro.lf.basis import Basis
from repro.lf.walk import convertible
from repro.logic.codec import encode, write_blob, write_uint
from repro.logic.proofterms import ProofTerm
from repro.logic.propositions import Proposition


class EscrowError(Exception):
    """An escrow agent refused to sign, or a template is malformed."""


@dataclass(frozen=True)
class OpenOutput:
    """An output whose recipient may be a hole (None = "fill me in")."""

    prop: Proposition
    amount: int
    recipient_pubkey: bytes | None


@dataclass(frozen=True)
class OpenTransaction:
    """A transaction template with one input hole and open recipients.

    ``fixed_inputs`` are pinned txouts (e.g. the escrowed prize);
    ``hole_prop``/``hole_amount`` constrain what the filler must supply
    (e.g. the solution); outputs with ``recipient_pubkey=None`` go to the
    filler.

    The template's ``proof`` has type ``(A₁ ⊗ … ⊗ Aₘ) ⊸ B`` over the input
    and output tensors only — receipts mention the filled-in principals, so
    :meth:`fill` wraps the template proof into the full transaction
    obligation once the holes are known.  One proof covers every instance —
    "the transaction is only valid if his txout really does have the
    solution".
    """

    basis: Basis
    grant: Proposition
    fixed_inputs: tuple[TypecoinInput, ...]
    hole_prop: Proposition
    hole_amount: int
    hole_position: int  # where the filled input slots into the input list
    outputs: tuple[OpenOutput, ...]
    proof: ProofTerm

    def __init__(
        self, basis, grant, fixed_inputs, hole_prop, hole_amount,
        hole_position, outputs, proof,
    ):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "grant", grant)
        object.__setattr__(self, "fixed_inputs", tuple(fixed_inputs))
        object.__setattr__(self, "hole_prop", hole_prop)
        object.__setattr__(self, "hole_amount", hole_amount)
        object.__setattr__(self, "hole_position", hole_position)
        object.__setattr__(self, "outputs", tuple(outputs))
        object.__setattr__(self, "proof", proof)
        if not 0 <= hole_position <= len(self.fixed_inputs):
            raise EscrowError("hole position out of range")

    def template_payload(self) -> bytes:
        """What the issuer signs: the template with holes marked."""
        parts = [b"typecoin-open:", write_uint(len(self.fixed_inputs))]
        parts += map(encode, self.fixed_inputs)
        parts.append(write_uint(self.hole_position))
        parts.append(encode(self.hole_prop) + write_uint(self.hole_amount))
        parts.append(write_uint(len(self.outputs)))
        for out in self.outputs:
            parts.append(encode(out.prop) + write_uint(out.amount))
            parts.append(write_blob(out.recipient_pubkey or b""))
        parts.append(encode(self.proof))
        parts.append(encode(self.grant))
        return b"".join(parts)

    def fill(
        self, solution: TypecoinInput, filler_pubkey: bytes
    ) -> TypecoinTransaction:
        """Instantiate the template: plug the input hole and recipients."""
        if not convertible(solution.prop, self.hole_prop):
            raise EscrowError(
                "filled input's type does not match the template hole"
            )
        if solution.amount != self.hole_amount:
            raise EscrowError(
                "filled input's amount does not match the template hole"
            )
        inputs = list(self.fixed_inputs)
        inputs.insert(self.hole_position, solution)
        outputs = [
            TypecoinOutput(
                out.prop, out.amount, out.recipient_pubkey or filler_pubkey
            )
            for out in self.outputs
        ]
        from repro.core.proofs import obligation_lambda, tensor_intro_all
        from repro.logic.proofterms import LolliElim

        proof = obligation_lambda(
            self.grant,
            [inp.prop for inp in inputs],
            [out.receipt() for out in outputs],
            lambda _c, ins, _rs: LolliElim(
                self.proof, tensor_intro_all(list(ins))
            ),
        )
        return TypecoinTransaction(self.basis, self.grant, inputs, outputs, proof)


def sign_template(key: PrivateKey, template: OpenTransaction) -> bytes:
    """The issuer's signature over the open-transaction template."""
    return key.sign(template.template_payload()).encode()


def template_signature_valid(
    pubkey: bytes, template: OpenTransaction, signature: bytes
) -> bool:
    try:
        key = PublicKey.from_bytes(pubkey)
        sig = Signature.decode(signature)
    except ValueError:
        return False
    return key.verify(template.template_payload(), sig)


# ----------------------------------------------------------------------
# Distributed multisig signing
# ----------------------------------------------------------------------


def escrow_lock(agent_pubkeys: list[bytes]) -> Script:
    """The 2-of-n lock the escrowed asset sits under (the paper's 2-of-3
    with three agents)."""
    return multisig_script(2, agent_pubkeys)


def multisig_partial_signature(
    key: PrivateKey,
    tx: Transaction,
    input_index: int,
    script_pubkey: Script,
) -> bytes:
    """One agent's ``SIGHASH_ALL`` contribution to an m-of-n input."""
    digest = signature_hash(tx, input_index, script_pubkey, SigHashType.ALL)
    return key.sign_digest(digest).encode() + bytes([SigHashType.ALL])


def assemble_multisig_input(
    tx: Transaction,
    input_index: int,
    script_pubkey: Script,
    signatures_by_pubkey: dict[bytes, bytes],
) -> Transaction:
    """Order the collected signatures by key order and attach the scriptSig.

    CHECKMULTISIG requires signatures in the same order as the keys they
    match; extra signatures beyond m are dropped.
    """
    info = classify(script_pubkey)
    if info.type is not ScriptType.MULTISIG:
        raise EscrowError("not a multisig lock")
    ordered = [
        signatures_by_pubkey[pubkey]
        for pubkey in info.data
        if pubkey in signatures_by_pubkey
    ]
    if len(ordered) < info.required_sigs:
        raise EscrowError(
            f"have {len(ordered)} signatures, lock requires"
            f" {info.required_sigs}"
        )
    script_sig = Script([Op.OP_0, *ordered[: info.required_sigs]])
    return tx.with_input_script(input_index, script_sig)


# ----------------------------------------------------------------------
# The agent
# ----------------------------------------------------------------------


@dataclass
class EscrowAgent:
    """A type-checking escrow agent (§7).

    Holds one key of the pool's m-of-n lock.  Its entire policy: sign any
    instance of an issuer-authorized open transaction that typechecks.
    A compromised agent (``honest=False``) refuses everything — the pool's
    m-of-n threshold is what tolerates it.
    """

    key: PrivateKey
    chain: Blockchain
    ledger: Ledger
    honest: bool = True
    signed: list[bytes] = field(default_factory=list)

    @property
    def pubkey(self) -> bytes:
        return self.key.public.encoded

    def consider(
        self,
        template: OpenTransaction,
        issuer_pubkey: bytes,
        issuer_signature: bytes,
        solution: TypecoinInput,
        filler_pubkey: bytes,
        carrier: Transaction,
        escrow_input_index: int,
        escrow_script: Script,
        bundle: ClaimBundle | None = None,
    ) -> bytes:
        """Verify an instance and return this agent's partial signature.

        Raises :class:`EscrowError` when the policy says no.
        """
        if not self.honest:
            raise EscrowError("agent unavailable (compromised)")
        if not template_signature_valid(issuer_pubkey, template, issuer_signature):
            raise EscrowError("issuer signature on the template is invalid")

        instance = template.fill(solution, filler_pubkey)

        # The filler substantiates the solution txout's type (§3 protocol).
        ledger = self.ledger
        if bundle is not None:
            try:
                ledger = verify_claim(
                    self.chain, bundle, base_ledger=self.ledger
                )
            except VerificationError as exc:
                raise EscrowError(f"solution claim rejected: {exc}") from exc

        try:
            check_typecoin_transaction(ledger, instance, world_at(self.chain))
        except ValidationFailure as exc:
            raise EscrowError(f"instance does not typecheck: {exc}") from exc
        try:
            check_carrier_correspondence(carrier, instance)
        except OverlayError as exc:
            raise EscrowError(f"carrier mismatch: {exc}") from exc

        signature = multisig_partial_signature(
            self.key, carrier, escrow_input_index, escrow_script
        )
        self.signed.append(instance.hash)
        return signature
