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
admission, a deadline and a memo of admitted transactions around the same
body, so the two cannot disagree about a claim.  What it does to one T is
:func:`admit`, as do the auditor and a client's ``learn``: a ``Ledger``
has no other way in.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

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
    Resolved,
    ValidationFailure,
    check_typecoin_transaction,
    resolve,
    world_at,
)
from repro.lf.walk import convertible, normalize


class VerificationError(Exception):
    """A claim failed verification, with the failing check named."""


class Admission(NamedTuple):
    """What :func:`admit` accepted under one carrier txid, as a memo holds
    it: T's hash, the hash of the block that confirmed its carrier, the
    carrier txids T refers to, and what T added to the ledger."""

    hash: bytes
    block_hash: bytes
    refs: frozenset[bytes]
    resolved: Resolved


def _references(
    transactions: dict[bytes, TypecoinTransaction], memo=None
) -> dict[bytes, frozenset[bytes]]:
    """The carrier txids each bundle transaction refers to, itself
    excluded — the one structural walk a transaction gets per request,
    and none for one ``memo`` holds under its hash (``memo.refs``)."""
    references = {}
    for txid, txn in transactions.items():
        refs = None if memo is None else memo.refs(txid, txn.hash)
        if refs is None:
            refs = referenced_txids(txn) - {txid}
        references[txid] = refs
    return references


def peel_levels(references: dict) -> list[list]:
    """Peel ranks Kahn-style from the in-set edges of ``references``, a map
    from each node to the nodes it depends on; dependencies outside the map
    are not edges.  The levels concatenated are a parents-first order.  A
    batch server orders its virtual transactions with it too."""
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
    return peel_levels(_references(transactions))


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
    checkers).  ``memo`` supplies the references of the transactions it
    holds, and goes to :func:`admit` with each T's references.
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
    references = _references(bundle.transactions, memo)
    for level in peel_levels(references):
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

    ``memo`` (``lookup(txid, hash, block_hash)`` / ``record(txid,
    admission)``) holds what earlier calls admitted, and stands in for
    the correspondence, checks 2–3 and [txid/this] when it holds T under
    T's hash and the hash of the block that now confirms the carrier.
    Those are a function of the carrier, which the txid fixes, of T,
    which its hash fixes, and of the block's world and prefix, which its
    hash fixes — so a reorg that moves the carrier is a miss.  Presence
    and confirmations are checked on every call; a hit counts only once
    the ledger holds all of ``refs`` (required with a memo: everything T
    refers to, so Σ_global is what it was when T was checked); the
    presented object is what gets registered; and T is recorded only
    after its own check and registration completed.
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
    held = None
    if memo is not None:
        block_hash = chain.block_at(height).hash
        if refs <= ledger.transactions.keys():
            held = memo.lookup(txid, txn.hash, block_hash)
    if held is None:
        try:
            check_carrier_correspondence(carrier, txn)
        except OverlayError as exc:
            raise VerificationError(
                f"hash embedding check failed: {exc}"
            ) from exc
        try:
            check_typecoin_transaction(ledger, txn, world_at(chain, height))
        except ValidationFailure as exc:
            raise VerificationError(f"type check failed: {exc}") from exc
        resolved = resolve(txid, txn)
    else:
        resolved = held.resolved
    ledger.register(txid, txn, resolved)
    if memo is not None and held is None:
        memo.record(txid, Admission(txn.hash, block_hash, refs, resolved))
