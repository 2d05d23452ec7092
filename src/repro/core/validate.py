"""Transaction and chain formation: 𝔗;Σ ⊢ T ok and 𝔗 : Σ (Appendix A).

The :class:`Ledger` is the Typecoin view of history 𝔗: every validated
transaction, the global basis accumulated from their local bases (with
``this`` resolved to carrier txids), and the typed outputs with their spend
status.  :func:`check_typecoin_transaction` implements the big
transaction-formation rule, including the top-level implicit conditional
discharge of §5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from repro.logic.conditions import CTrue, WorldView, evaluate
from repro.logic.freshness import FreshnessError, check_basis_fresh, check_prop_fresh
from repro.logic.propositions import IfProp, Lolli, Proposition
from repro.core.transaction import TypecoinTransaction


class ValidationFailure(Exception):
    """A Typecoin transaction violates the formation judgement."""


@dataclass
class LedgerOutput:
    """A typed txout the ledger knows about."""

    prop: Proposition  # with this already resolved
    amount: int
    principal: bytes  # 20-byte key hash
    spent_by: bytes | None = None


@dataclass
class Ledger:
    """𝔗 plus its accumulated global basis Σ_global."""

    global_basis: Basis = field(default_factory=builtin_basis)
    transactions: dict[bytes, TypecoinTransaction] = field(default_factory=dict)
    outputs: dict[tuple[bytes, int], LedgerOutput] = field(default_factory=dict)

    def output(self, txid: bytes, index: int) -> LedgerOutput | None:
        return self.outputs.get((txid, index))

    def register(self, carrier_txid: bytes, txn: TypecoinTransaction) -> None:
        """Chain formation: 𝔗, txid:T : Σ_global, [txid/this]Σ.

        Called by :func:`repro.core.verifier.admit` and by nothing else:
        it is the last line of the step that ran the checks.
        """
        if carrier_txid in self.transactions:
            raise ValidationFailure("transaction already registered")
        self.transactions[carrier_txid] = txn
        self.global_basis = self.global_basis.extended(
            txn.basis.resolved(carrier_txid)
        )
        for index, out in enumerate(txn.outputs):
            self.outputs[(carrier_txid, index)] = LedgerOutput(
                prop=txn.output_prop_resolved(index, carrier_txid),
                amount=out.amount,
                principal=out.principal,
            )
        for inp in txn.inputs:
            entry = self.outputs.get((inp.txid, inp.index))
            if entry is not None:
                entry.spent_by = carrier_txid

    def spent_oracle(self, txid: bytes, index: int) -> bool:
        entry = self.outputs.get((txid, index))
        return entry is not None and entry.spent_by is not None


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
    ctx = CheckerContext(
        basis=working,
        txn_payload=txn.signing_payload(),
    )
    try:
        proved, _used = infer(ctx, txn.proof)
    except ProofError as exc:
        if obs.ENABLED:
            obs.emit("proof.checked", outcome="proof_error")
        raise ValidationFailure(f"proof does not check: {exc}") from exc
    if obs.ENABLED:
        obs.emit("proof.checked", outcome="ok")

    proved = normalize(proved)
    if not isinstance(proved, Lolli):
        raise ValidationFailure(f"proof proves {proved}, not an implication")
    expected_antecedent = txn.obligation_antecedent()
    if not convertible(proved.antecedent, expected_antecedent):
        raise ValidationFailure(
            f"proof consumes {normalize(proved.antecedent)}, transaction"
            f" provides {normalize(expected_antecedent)}"
        )

    consequent = normalize(proved.consequent)
    expected_outputs = txn.outputs_tensor()
    if isinstance(consequent, IfProp):
        condition = consequent.condition
        produced = consequent.body
    else:
        condition = CTrue()
        produced = consequent
    if not convertible(produced, expected_outputs):
        raise ValidationFailure(
            f"proof produces {normalize(produced)}, outputs require"
            f" {normalize(expected_outputs)}"
        )

    # --- implicit top-level discharge: "the condition φ holds" ------------
    if not evaluate(condition, world):
        raise ValidationFailure(
            f"top-level condition {condition} does not hold in this world"
        )
    return produced


def _check_local_basis(global_basis: Basis, local: Basis) -> Basis:
    """Σ_global ⊢ Σ ok: each declaration well-formed given what precedes it."""
    if not local.all_local():
        raise ValidationFailure("local basis declares non-this constants")
    working = global_basis
    lf_ctx = LFContext()
    staged = Basis()
    for ref, decl in local:
        scope = working.extended(staged)
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
        staged.declare(ref, decl)
    return working.extended(staged)


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
