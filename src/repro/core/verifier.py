"""The §3 verification protocol: checking a claimed typed txout.

"When Bob tries to turn in his homework, he identifies to the filesystem a
txout (say I) that he claims has the type may-write-this(...).  To
substantiate his claim, he provides the Typecoin transaction T_I that
outputs I, as well as 𝔗, the set of all Typecoin transactions upstream of
T_I.  The type-checker then checks that I's type is as claimed, and checks,
for each T ∈ 𝔗, that:

1. The hash of T agrees with the hash embedded in its corresponding Bitcoin
   transaction.
2. T type-checks.
3. The type of each input of T agrees with the type of the output it
   spends."

Verification is performed *by interested parties, outside the Bitcoin
mechanism* — the network never sees a proposition.

That loop is written once, in :func:`_verify_claim`.  :func:`verify_claim`
is it as a library call; :class:`repro.service.VerificationService` is
admission, a deadline and a typecheck memo around the same body, so the
two cannot disagree about a claim.  What it does to one T is :func:`admit`,
as do the auditor and a client's ``learn``: a ``Ledger`` has no other way in.
"""

from __future__ import annotations

import dataclasses

from repro import cancel, obs
from repro.bitcoin.chain import Blockchain
from repro.core.overlay import OverlayError, check_carrier_correspondence
from repro.core.transaction import (
    ClaimBundle,
    TypecoinTransaction,
    referenced_txids,
)
from repro.core.validate import (
    Ledger,
    ValidationFailure,
    check_typecoin_transaction,
    world_at,
)
from repro.core.wire import encode_transaction
from repro.crypto.hashing import sha256
from repro.lf.walk import convertible, normalize


class VerificationError(Exception):
    """A claim failed verification, with the failing check named."""


def _references(
    transactions: dict[bytes, TypecoinTransaction]
) -> dict[bytes, frozenset[bytes]]:
    """The carrier txids each bundle transaction refers to, itself
    excluded — the one structural walk a transaction gets per request."""
    return {
        txid: referenced_txids(txn) - {txid}
        for txid, txn in transactions.items()
    }


def _levels(references: dict[bytes, frozenset[bytes]]) -> list[list[bytes]]:
    """Peel ranks Kahn-style from the in-bundle edges of ``references``."""
    dependents: dict[bytes, list[bytes]] = {txid: [] for txid in references}
    waiting: dict[bytes, int] = {}
    for txid, refs in references.items():
        deps = [dep for dep in refs if dep in references]
        waiting[txid] = len(deps)
        for dep in deps:
            dependents[dep].append(txid)

    rank = dict.fromkeys(references, 0)
    ready = [txid for txid, count in waiting.items() if count == 0]
    for txid in ready:  # grows as dependents become ready
        for child in dependents[txid]:
            rank[child] = max(rank[child], rank[txid] + 1)
            waiting[child] -= 1
            if waiting[child] == 0:
                ready.append(child)
    if len(ready) < len(references):
        raise VerificationError("claim bundle contains a dependency cycle")

    levels: list[list[bytes]] = [
        [] for _ in range(max(rank.values(), default=-1) + 1)
    ]
    for txid in references:
        levels[rank[txid]].append(txid)
    return levels


def dependency_levels(
    transactions: dict[bytes, TypecoinTransaction]
) -> list[list[bytes]]:
    """Group a bundle into dependency levels, in time linear in its size.

    Each transaction is walked exactly once (``referenced_txids``) for its
    in-bundle edges; references to itself or out of the bundle are not
    edges.  A transaction ranks one above its highest dependency, and the
    bundle is bucketed by rank in insertion order: the levels concatenated
    are a parents-first order, and the first failure is the same on every
    run.
    """
    return _levels(_references(transactions))


def verify_claim(
    chain: Blockchain,
    bundle: ClaimBundle,
    min_confirmations: int = 1,
    require_unspent: bool = True,
    base_ledger: Ledger | None = None,
) -> Ledger:
    """Run the full §3 protocol; returns the ledger built from the bundle.

    ``min_confirmations`` is the verifier's confirmation policy (§1 item 6
    suggests six ≈ one hour; regtest tests use one).  ``base_ledger`` seeds
    verification with already-trusted history (e.g. a batch server's own
    records) — the bundle only needs transactions *beyond* it.
    """
    ledger = _verify_claim(
        chain, bundle, min_confirmations, require_unspent, base_ledger
    )
    if obs.ENABLED:
        obs.inc("verify.claims_total")
        obs.inc("verify.carriers_total", len(bundle.transactions))
    return ledger


def _verify_claim(
    chain: Blockchain,
    bundle: ClaimBundle,
    min_confirmations: int,
    require_unspent: bool,
    base_ledger: Ledger | None = None,
    memo=None,
) -> Ledger:
    """The §3 loop — the only one: levels, :func:`admit`, the claim checks.

    Raises ``VerificationError`` naming the first failing check in level
    order, and ``cancel.DeadlineExceeded`` when a deadline scoped by the
    caller passes (read between levels here, every 64th step inside the
    checkers).  ``memo`` goes to :func:`admit` with each T's references.
    """
    if base_ledger is None:
        ledger = Ledger()
    else:
        # Entries are copied: ``register`` marks the outputs a transaction
        # spends, and a claim — a refused one above all — must not edit
        # the caller's trusted records.
        ledger = Ledger(
            global_basis=base_ledger.global_basis,
            transactions=dict(base_ledger.transactions),
            outputs={
                key: dataclasses.replace(entry)
                for key, entry in base_ledger.outputs.items()
            },
        )

    deadline = cancel.current_deadline()
    references = _references(bundle.transactions)
    for level in _levels(references):
        if deadline is not None and deadline.expired():
            raise cancel.DeadlineExceeded("deadline expired between levels")
        for txid in level:
            if txid not in ledger.transactions:
                admit(
                    ledger, chain, txid, bundle.transactions[txid],
                    min_confirmations, memo, references[txid],
                )

    # Finally: I's type is as claimed.
    target = ledger.output(bundle.outpoint.txid, bundle.outpoint.index)
    if target is None:
        raise VerificationError("claimed txout is not produced by the bundle")
    if not convertible(target.prop, bundle.prop):
        raise VerificationError(
            f"claimed type {normalize(bundle.prop)} but output has type"
            f" {normalize(target.prop)}"
        )
    if require_unspent and chain.is_spent(bundle.outpoint):
        raise VerificationError("claimed txout has already been spent")
    return ledger


def admit(
    ledger: Ledger,
    chain: Blockchain,
    txid: bytes,
    txn: TypecoinTransaction,
    min_confirmations: int = 1,
    memo=None,
    refs: frozenset[bytes] | None = None,
) -> None:
    """Chain formation, one step (Appendix A: 𝔗, txid:T : Σ) — the only
    way a transaction enters a ``Ledger``.

    T's carrier is on the active chain under ``txid`` at the caller's
    confirmation policy and embeds hash(T) (§3 check 1), and 𝔗;Σ ⊢ T ok
    in the world of the block that confirmed it (checks 2 and 3); then T
    is registered.  Raises ``VerificationError`` naming the failing check
    and leaves ``ledger`` as it was.

    ``memo`` (``lookup(txid, digest)`` / ``record(txid, digest)``) may
    stand in for checks 2–3 on a transaction it has seen pass, and for
    nothing else.  The digest is re-derived from the presented bytes and
    the hash of the confirming block (same block, same prefix, same time
    and ``spent`` oracle: a reorg that moves the carrier is a miss); the
    embedding is checked on every call; a hit counts only once the ledger
    holds all of ``refs`` (required with a memo: everything T refers to,
    the first thing the typecheck would have asked); outputs are
    registered from the presented object, never from a cache; and T is
    recorded only after its own check and registration completed.
    """
    found = chain.get_transaction(txid)
    if found is None:
        raise VerificationError(
            f"carrier {txid[:8].hex()}… is not in the active chain"
        )
    carrier, height = found
    confirmations = chain.height - height + 1
    if confirmations < min_confirmations:
        raise VerificationError(
            f"carrier {txid[:8].hex()}… has {confirmations}"
            f" confirmations, policy requires {min_confirmations}"
        )
    try:
        check_carrier_correspondence(carrier, txn)
    except OverlayError as exc:
        raise VerificationError(f"hash embedding check failed: {exc}") from exc
    checked = False
    if memo is not None:
        digest = sha256(encode_transaction(txn) + chain.block_at(height).hash)
        checked = (
            refs <= ledger.transactions.keys() and memo.lookup(txid, digest)
        )
    if not checked:
        try:
            check_typecoin_transaction(ledger, txn, world_at(chain, height))
        except ValidationFailure as exc:
            raise VerificationError(f"type check failed: {exc}") from exc
    ledger.register(txid, txn)
    if memo is not None:
        memo.record(txid, digest)
