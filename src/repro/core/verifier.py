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
admission and a memo of admitted transactions around the same body, so
the two cannot disagree about a claim.  What it does to one T is
:func:`admit`, as do the auditor and a client's ``learn``: a ``Ledger``
has no other way in.
"""

from __future__ import annotations

from typing import NamedTuple

from repro import obs
from repro.bitcoin.chain import Blockchain
from repro.core.overlay import OverlayError, check_carrier_correspondence
from repro.core.transaction import ClaimBundle, TypecoinTransaction
from repro.core.validate import (
    Ledger,
    Resolved,
    ValidationFailure,
    check_typecoin_transaction,
    resolve,
    world_at,
)
from repro.lf.walk import convertible, normalize

# The confirmation policy (§1 item 6 suggests six ≈ one hour; regtest runs
# use one): how deep a carrier must be before :func:`admit` takes its T.
MIN_CONFIRMATIONS = 1


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
) -> tuple[dict[bytes, frozenset[bytes]], dict]:
    """The carrier txids each bundle transaction refers to, itself
    excluded, and the entry ``memo`` holds under each txid: read once
    (``memo.get``) and handed on for :func:`admit` to judge.  A transaction
    held under its hash takes its references from the entry; any other
    reads the ones it holds (:attr:`TypecoinTransaction.references`)."""
    references, held = {}, {}
    for txid, txn in transactions.items():
        entry = held[txid] = None if memo is None else memo.get(txid)
        if entry is not None and entry.hash == txn.hash:
            references[txid] = entry.refs
        else:
            references[txid] = txn.references - {txid}
    return references, held


def peel_levels(references: dict) -> list[list]:
    """Peel ranks Kahn-style from the in-set edges of ``references``, a map
    from each node to the nodes it depends on; dependencies outside the map
    are not edges.  The levels concatenated are a parents-first order.  A
    batch server orders its virtual transactions with it too."""
    dependents: dict = {}
    waiting: dict = {}
    ready = []
    for txid, refs in references.items():  # the one pass over the edges
        count = 0
        for dep in refs:
            if dep in references:
                count += 1
                dependents.setdefault(dep, []).append(txid)
        if count:
            waiting[txid] = count
        else:
            ready.append(txid)
    # ``ready`` is peeled first in, first out, so it runs in rank order
    # and a node's last dependency to be peeled is one of highest rank.
    rank = dict.fromkeys(ready, 0)
    for txid in ready:  # grows as dependents become ready
        for child in dependents.get(txid, ()):
            waiting[child] -= 1
            if not waiting[child]:
                rank[child] = rank[txid] + 1
                ready.append(child)
    if len(ready) < len(references):
        raise VerificationError("claim bundle contains a dependency cycle")

    depth = rank[ready[-1]] + 1 if ready else 0
    levels: list[list[bytes]] = [[] for _ in range(depth)]
    for txid in references:
        levels[rank[txid]].append(txid)
    return levels


def dependency_levels(
    transactions: dict[bytes, TypecoinTransaction]
) -> list[list[bytes]]:
    """Group a bundle into dependency levels, in time linear in its size.

    Each transaction's in-bundle edges come from the references it holds
    (walked at most once in its lifetime, never for a decoded one);
    references to itself or out of the bundle are not edges.  A
    transaction ranks one above its highest dependency, and the bundle is
    bucketed by rank in insertion order: the levels concatenated are a
    parents-first order, and the first failure is the same on every run.
    """
    return peel_levels(_references(transactions)[0])


def verify_claim(
    chain: Blockchain,
    bundle: ClaimBundle,
    require_unspent: bool = True,
    base_ledger: Ledger | None = None,
) -> Ledger:
    """Run the full §3 protocol; returns the ledger built from the bundle.

    Every carrier must be :data:`MIN_CONFIRMATIONS` deep.
    ``require_unspent`` also refuses a claimed txout already spent.
    ``base_ledger`` seeds verification with already-trusted history (e.g. a
    batch server's own records) — the bundle only needs transactions
    *beyond* it.
    """
    ledger = _verify_claim(chain, bundle, require_unspent, base_ledger)
    if obs.ENABLED:
        obs.inc("verify.claims_total")
        obs.inc("verify.carriers_total", len(bundle.transactions))
    return ledger


def _verify_claim(
    chain: Blockchain,
    bundle: ClaimBundle,
    require_unspent: bool,
    base_ledger: Ledger | None = None,
    memo=None,
) -> Ledger:
    """The §3 loop — the only one: levels, :func:`admit`, the claim checks.

    Raises ``VerificationError`` naming the first failing check in level
    order.  ``memo`` is read once per presented transaction, for the
    references of what it holds, and goes to :func:`admit` with each T's
    references and the entry that read found.
    """
    if base_ledger is None:
        ledger = Ledger()
    else:
        # The maps are copied; their records and Σ_global are never
        # edited, so a claim — a refused one above all — leaves the
        # caller's trusted ledger as it was.
        ledger = Ledger(
            global_basis=base_ledger.global_basis,
            transactions=dict(base_ledger.transactions),
            outputs=dict(base_ledger.outputs),
        )

    references, held = _references(bundle.transactions, memo)
    for level in peel_levels(references):
        for txid in level:
            if txid not in ledger.transactions:
                admit(
                    ledger, chain, txid, bundle.transactions[txid],
                    memo, references[txid], held[txid],
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
    memo=None,
    refs: frozenset[bytes] | None = None,
    held: Admission | None = None,
) -> None:
    """Chain formation, one step (Appendix A: 𝔗, txid:T : Σ) — the only
    way a transaction enters a ``Ledger``.

    T's carrier is on the active chain under ``txid``, at least
    :data:`MIN_CONFIRMATIONS` deep, and embeds hash(T) (§3 check 1), and
    𝔗;Σ ⊢ T ok in the world of the block that confirmed it (checks 2 and
    3); then T is registered.  Raises ``VerificationError`` naming the failing check
    and leaves ``ledger`` as it was.

    ``memo`` (``judge(txid, held, hash, block_hash)`` / ``record(txid,
    admission)``) holds what earlier calls admitted; ``held`` is what the
    caller's one ``memo.get(txid)`` found (ignored without a memo).  It
    stands in for the correspondence, checks 2–3 and [txid/this] when it
    was recorded under T's hash and the hash of the block that now
    confirms the carrier.
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
    if confirmations < MIN_CONFIRMATIONS:
        raise VerificationError(
            f"carrier {txid[:8].hex()}… has {confirmations}"
            f" confirmations, policy requires {MIN_CONFIRMATIONS}"
        )
    if memo is None:
        held = None
    else:
        block_hash = chain.block_at(height).hash
        if refs <= ledger.transactions.keys():
            held = memo.judge(txid, held, txn.hash, block_hash)
        else:
            held = None
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
