"""Transaction and chain formation: 𝔗;Σ ⊢ T ok and 𝔗 : Σ (Appendix A).

The :class:`Ledger` is the Typecoin view of history 𝔗: every validated
transaction, the global basis accumulated from their local bases (with
``this`` resolved to carrier txids), and the typed outputs.
:func:`check_typecoin_transaction` implements the big transaction-formation
rule, including the top-level implicit conditional discharge of §5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro import obs
from repro.lf.basis import Basis, KindDecl, PropDecl, TypeDecl, builtin_basis
from repro.lf.typecheck import LFTypeError, check_kind, check_family_is_type
from repro.lf.typecheck import LFContext
from repro.lf.walk import convertible, normalize
from repro.logic.checker import (
    CheckerContext,
    ProofError,
    check_prop_formation,
    infer,
)
from repro.logic.conditions import Condition, CTrue, WorldView, evaluate
from repro.logic.freshness import FreshnessError, check_basis_fresh, check_prop_fresh
from repro.logic.proofterms import ProofTerm
from repro.logic.propositions import IfProp, Lolli, Proposition
from repro.core.transaction import TypecoinTransaction


class ValidationFailure(Exception):
    """A Typecoin transaction violates the formation judgement."""


@dataclass(frozen=True)
class LedgerOutput:
    """A typed txout the ledger knows about.  :func:`resolve` builds it
    and nothing edits it, so a ledger stores the record it is handed."""

    prop: Proposition  # with this already resolved
    amount: int
    principal: bytes  # 20-byte key hash


class Resolved(NamedTuple):
    """What T adds to 𝔗 under its carrier txid, ``this`` resolved to it:
    [txid/this]Σ, whose every constant is in the txid's namespace, and
    T's outputs.

    Nothing here is edited after :func:`resolve` builds it — the ledger
    stacks ``basis`` and stores the ``outputs`` records themselves — so
    one can be held across requests and registered in many ledgers.
    """

    basis: Basis
    outputs: tuple[LedgerOutput, ...]


def resolve(carrier_txid: bytes, txn: TypecoinTransaction) -> Resolved:
    """Appendix A's [txidᵢ/this] over T's basis and outputs."""
    return Resolved(
        txn.basis.resolved(carrier_txid),
        tuple([
            LedgerOutput(
                txn.output_prop_resolved(index, carrier_txid), out.amount,
                out.principal,
            )
            for index, out in enumerate(txn.outputs)
        ]),
    )


class Ledger:
    """𝔗 plus its accumulated global basis Σ_global.

    A declaring T's resolved basis is stacked when T is registered and
    merged into Σ_global the next time :attr:`global_basis` is read, so
    registrations that no check reads between copy Σ_global at most once.
    Equality is logical: stacked or merged, the same Σ_global.
    """

    def __init__(
        self,
        global_basis: Basis | None = None,
        transactions: dict[bytes, TypecoinTransaction] | None = None,
        outputs: dict[tuple[bytes, int], LedgerOutput] | None = None,
    ):
        self._sigma = builtin_basis() if global_basis is None else global_basis
        self._stacked: list[Basis] = []
        # The namespaces Σ_global declares in, read off it the first time
        # a declaring T is registered and kept up to date from then on.
        self._spaces: set | None = None
        self.transactions = {} if transactions is None else transactions
        self.outputs = {} if outputs is None else outputs

    @property
    def global_basis(self) -> Basis:
        """Σ_global.  A merge makes a new ``Basis``: one that was read is
        never edited, since a claim under ``base_ledger`` shares the
        caller's."""
        if self._stacked:
            self._sigma = self._sigma.extended(*self._stacked)
            self._stacked = []
        return self._sigma

    def __eq__(self, other):
        if not isinstance(other, Ledger):
            return NotImplemented
        return (
            self.transactions == other.transactions
            and self.outputs == other.outputs
            and self.global_basis == other.global_basis
        )

    def output(self, txid: bytes, index: int) -> LedgerOutput | None:
        return self.outputs.get((txid, index))

    def register(
        self,
        carrier_txid: bytes,
        txn: TypecoinTransaction,
        resolved: Resolved | None = None,
    ) -> None:
        """Chain formation: 𝔗, txid:T : Σ_global, [txid/this]Σ.

        Under ``src/`` only :func:`repro.core.verifier.admit` calls it —
        the last line of the step that ran the checks — and it hands in
        ``resolve(carrier_txid, txn)``, computed once or held from an
        earlier admission of the same T.  Every other caller passes it
        too, except the repository benchmark's working-set builder, for
        which alone it is still computed here when omitted.

        T's records are stored as they are and its basis is stacked.  A
        basis with a constant outside the carrier's namespace, or in a
        namespace Σ_global already declares in, is refused before the
        ledger changes: every constant :func:`resolve` makes from a
        ``this``-only basis is in the carrier's namespace, so that is
        every redeclaration, found without a lookup in Σ_global.
        """
        if carrier_txid in self.transactions:
            raise ValidationFailure("transaction already registered")
        if resolved is None:
            resolved = resolve(carrier_txid, txn)
        if resolved.basis:
            for ref, _decl in resolved.basis:
                if ref.space != carrier_txid:
                    raise ValidationFailure(
                        f"constant {ref} is outside its carrier's namespace"
                    )
            if self._spaces is None:
                self._spaces = {ref.space for ref, _decl in self._sigma}
            if carrier_txid in self._spaces:
                raise ValidationFailure(
                    f"namespace 0x{carrier_txid.hex()} is already declared"
                    " in the global basis"
                )
            self._spaces.add(carrier_txid)
            self._stacked.append(resolved.basis)
        self.transactions[carrier_txid] = txn
        for index, output in enumerate(resolved.outputs):
            self.outputs[(carrier_txid, index)] = output


def check_typecoin_transaction(
    ledger: Ledger,
    txn: TypecoinTransaction,
    world: WorldView,
) -> Proposition:
    """The 𝔗;Σ ⊢ T ok judgement; returns the discharged condition's body.

    Checks, in Appendix A's order: Σ_global ⊢ Σ ok and Σ fresh; C prop and
    C fresh; input/output propositions well-formed; input types agree with
    the outputs they spend (after [txid/this] resolution); the proof term
    has type (C ⊗ A ⊗ R) ⊸ if(φ, B); and φ holds in ``world``.  A proof of
    a bare (C ⊗ A ⊗ R) ⊸ B is accepted as φ = true.
    """
    # --- Σ_global ⊢ Σ ok and Σ fresh -----------------------------------
    working = _check_local_basis(ledger.global_basis, txn.basis)
    try:
        check_basis_fresh(txn.basis)
    except FreshnessError as exc:
        raise ValidationFailure(str(exc)) from exc

    lf_ctx = LFContext()

    # --- C prop, C fresh -------------------------------------------------
    try:
        check_prop_formation(working, lf_ctx, txn.grant)
    except ProofError as exc:
        raise ValidationFailure(f"ill-formed affine grant: {exc}") from exc
    try:
        check_prop_fresh(txn.grant)
    except FreshnessError as exc:
        raise ValidationFailure(str(exc)) from exc

    # --- inputs -----------------------------------------------------------
    seen: set[tuple[bytes, int]] = set()
    for inp in txn.inputs:
        key = (inp.txid, inp.index)
        if key in seen:
            raise ValidationFailure(f"duplicate input {inp.txid.hex()}.{inp.index}")
        seen.add(key)
        try:
            check_prop_formation(working, lf_ctx, inp.prop)
        except ProofError as exc:
            raise ValidationFailure(f"ill-formed input type: {exc}") from exc
        known = ledger.output(inp.txid, inp.index)
        if known is None:
            raise ValidationFailure(
                f"input {inp.txid[:8].hex()}….{inp.index} is not a known"
                " Typecoin output"
            )
        if not convertible(inp.prop, known.prop):
            raise ValidationFailure(
                f"input type {normalize(inp.prop)} does not match spent"
                f" output's type {normalize(known.prop)}"
            )
        if inp.amount != known.amount:
            raise ValidationFailure(
                f"input amount {inp.amount} does not match spent output's"
                f" {known.amount}"
            )

    # --- outputs ---------------------------------------------------------
    for out in txn.outputs:
        try:
            check_prop_formation(working, lf_ctx, out.prop)
        except ProofError as exc:
            raise ValidationFailure(f"ill-formed output type: {exc}") from exc

    # --- the proof -------------------------------------------------------
    condition, produced = check_obligation(
        working, txn.proof, txn.obligation_antecedent(), txn.outputs_tensor(),
        txn.signing_payload(),
    )

    # --- implicit top-level discharge: "the condition φ holds" ------------
    if not evaluate(condition, world):
        raise ValidationFailure(
            f"top-level condition {condition} does not hold in this world"
        )
    return produced


def check_obligation(
    basis: Basis,
    proof: ProofTerm,
    antecedent: Proposition,
    outputs: Proposition,
    payload: bytes | None = None,
) -> tuple[Condition, Proposition]:
    """``proof`` has type antecedent ⊸ if(φ, B), B convertible to
    ``outputs``; returns (φ, B), φ = true for a bare antecedent ⊸ B.
    ``payload`` is what an affine ``assert`` signs: T's, or ``None`` for a
    batch server's virtual A ⊸ B (:mod:`repro.core.batch`)."""
    ctx = CheckerContext(basis=basis, txn_payload=payload)
    try:
        proved, _used = infer(ctx, proof)
    except ProofError as exc:
        if obs.ENABLED:
            obs.emit("proof.checked", outcome="proof_error")
        raise ValidationFailure(f"proof does not check: {exc}") from exc
    if obs.ENABLED:
        obs.emit("proof.checked", outcome="ok")

    proved = normalize(proved)
    if not isinstance(proved, Lolli):
        raise ValidationFailure(f"proof proves {proved}, not an implication")
    if not convertible(proved.antecedent, antecedent):
        raise ValidationFailure(
            f"proof consumes {normalize(proved.antecedent)}, transaction"
            f" provides {normalize(antecedent)}"
        )

    consequent = normalize(proved.consequent)
    if isinstance(consequent, IfProp):
        condition = consequent.condition
        produced = consequent.body
    else:
        condition = CTrue()
        produced = consequent
    if not convertible(produced, outputs):
        raise ValidationFailure(
            f"proof produces {normalize(produced)}, outputs require"
            f" {normalize(outputs)}"
        )
    return condition, produced


def _check_local_basis(global_basis: Basis, local: Basis) -> Basis:
    """Σ_global ⊢ Σ ok: each declaration well-formed given what precedes it.

    Returns the basis T's other checks read: Σ_global itself when T
    declares nothing, else one copy of it with each declaration added once
    it has checked.  Σ_global is never edited.
    """
    if not local:
        return global_basis
    if not local.all_local():
        raise ValidationFailure("local basis declares non-this constants")
    scope = global_basis.extended(Basis())
    lf_ctx = LFContext()
    for ref, decl in local:
        try:
            if isinstance(decl, KindDecl):
                check_kind(scope, lf_ctx, decl.kind)
            elif isinstance(decl, TypeDecl):
                check_family_is_type(scope, lf_ctx, decl.family)
            elif isinstance(decl, PropDecl):
                check_prop_formation(scope, lf_ctx, decl.prop)
            else:  # pragma: no cover - closed union
                raise ValidationFailure(f"unknown declaration {decl!r}")
        except (LFTypeError, ProofError) as exc:
            raise ValidationFailure(
                f"ill-formed declaration {ref}: {exc}"
            ) from exc
        scope.declare(ref, decl)
    return scope


def world_at(chain, height: int | None = None) -> WorldView:
    """The world view a transaction entering at ``height`` sees.

    Time is the block timestamp (§5: "Each block includes a timestamp that
    can be used to determine the transaction's time"); the spent oracle
    answers from the chain's spender index, restricted to spends at or
    before ``height``.
    """
    if height is None:
        height = chain.height
    timestamp = chain.block_at(height).header.timestamp

    def spent(txid: bytes, index: int) -> bool:
        from repro.bitcoin.transaction import OutPoint

        spender = chain.spender_of(OutPoint(txid, index))
        if spender is None:
            return False
        found = chain.get_transaction(spender)
        if found is None:  # pragma: no cover - index consistency
            return False
        _, spender_height = found
        return spender_height <= height

    return WorldView(time=timestamp, spent_oracle=spent)
