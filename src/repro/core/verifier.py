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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.bitcoin.chain import Blockchain
from repro.bitcoin.transaction import OutPoint
from repro.core.overlay import OverlayError, check_carrier_correspondence
from repro.core.transaction import TypecoinTransaction, referenced_txids
from repro.core.validate import (
    Ledger,
    ValidationFailure,
    check_typecoin_transaction,
    world_at,
)
from repro.logic.propositions import (
    Proposition,
    normalize_prop,
    props_equal,
)


class VerificationError(Exception):
    """A claim failed verification, with the failing check named."""


@dataclass
class ClaimBundle:
    """What a prover hands a verifier: the claimed txout and type, plus
    T_I and all Typecoin transactions upstream of it, keyed by carrier
    txid."""

    outpoint: OutPoint
    prop: Proposition
    transactions: dict[bytes, TypecoinTransaction] = field(default_factory=dict)


def dependency_levels(
    transactions: dict[bytes, TypecoinTransaction],
    *,
    single_pass: bool = False,
) -> list[list[bytes]]:
    """Group a bundle into dependency levels, in time linear in its size.

    Each transaction is walked exactly once (``referenced_txids``) for its
    in-bundle edges; references to itself or out of the bundle are not
    edges.  Ranks are then peeled Kahn-style from those edge sets and the
    bundle is bucketed by rank in insertion order, so the first failure
    within a level is the same on every run.

    By default a transaction ranks one above its highest dependency:
    members of a level share no edges and can be checked independently
    given the levels before them (the service's wavefronts).  With
    ``single_pass`` a dependency that also precedes its dependent in the
    bundle costs no rank, which makes the concatenated levels the order
    of repeated in-order sweeps that place whatever has become ready —
    the serial replay's order.
    """
    position = {txid: i for i, txid in enumerate(transactions)}
    dependents: dict[bytes, list[bytes]] = {txid: [] for txid in transactions}
    waiting: dict[bytes, int] = {}
    for txid, txn in transactions.items():
        deps = [
            dep
            for dep in referenced_txids(txn)
            if dep in position and dep != txid
        ]
        waiting[txid] = len(deps)
        for dep in deps:
            dependents[dep].append(txid)

    rank = {txid: 0 for txid in transactions}
    ready = [txid for txid, count in waiting.items() if count == 0]
    for txid in ready:  # grows as dependents become ready
        for child in dependents[txid]:
            same_sweep = single_pass and position[txid] < position[child]
            rank[child] = max(rank[child], rank[txid] + (0 if same_sweep else 1))
            waiting[child] -= 1
            if waiting[child] == 0:
                ready.append(child)
    if len(ready) < len(transactions):
        raise VerificationError("claim bundle contains a dependency cycle")

    levels: list[list[bytes]] = [
        [] for _ in range(max(rank.values(), default=-1) + 1)
    ]
    for txid in transactions:
        levels[rank[txid]].append(txid)
    return levels


def _topological_order(
    transactions: dict[bytes, TypecoinTransaction]
) -> list[bytes]:
    """Order the bundle so every transaction follows the ones it spends."""
    return [
        txid
        for level in dependency_levels(transactions, single_pass=True)
        for txid in level
    ]


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
    if not obs.ENABLED:
        return _verify_claim(
            chain, bundle, min_confirmations, require_unspent, base_ledger
        )
    with obs.trace_span(
        "verify.claim",
        metric="verify.claim_seconds",
        carriers=len(bundle.transactions),
    ):
        ledger = _verify_claim(
            chain, bundle, min_confirmations, require_unspent, base_ledger
        )
    obs.inc("verify.claims_total")
    obs.inc("verify.carriers_total", len(bundle.transactions))
    return ledger


def _verify_claim(
    chain: Blockchain,
    bundle: ClaimBundle,
    min_confirmations: int,
    require_unspent: bool,
    base_ledger: Ledger | None,
) -> Ledger:
    if base_ledger is not None:
        ledger = Ledger(
            global_basis=base_ledger.global_basis,
            transactions=dict(base_ledger.transactions),
            outputs={k: v for k, v in base_ledger.outputs.items()},
        )
    else:
        ledger = Ledger()

    for txid in _topological_order(bundle.transactions):
        txn = bundle.transactions[txid]
        if txid in ledger.transactions:
            continue
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
        # Check 1: the hash embedding (and full structural correspondence).
        try:
            check_carrier_correspondence(carrier, txn)
        except OverlayError as exc:
            raise VerificationError(f"hash embedding check failed: {exc}") from exc
        # Checks 2 and 3: the transaction typechecks against history, with
        # conditions discharged in the world where it confirmed.
        world = world_at(chain, height)
        try:
            check_typecoin_transaction(ledger, txn, world)
        except ValidationFailure as exc:
            raise VerificationError(f"type check failed: {exc}") from exc
        ledger.register(txid, txn)

    # Finally: I's type is as claimed.
    target = ledger.output(bundle.outpoint.txid, bundle.outpoint.index)
    if target is None:
        raise VerificationError("claimed txout is not produced by the bundle")
    if not props_equal(target.prop, bundle.prop):
        raise VerificationError(
            f"claimed type {normalize_prop(bundle.prop)} but output has type"
            f" {normalize_prop(target.prop)}"
        )
    if require_unspent and chain.is_spent(bundle.outpoint):
        raise VerificationError("claimed txout has already been spent")
    return ledger
