"""Seeded service-chaos smoke: zero wrong verdicts under faults, twice.

Driven by ``scripts/check.sh --service``.  Runs each service chaos
profile once, asserts the load-bearing invariant — the verification
service never returns a wrong verdict; infrastructure trouble surfaces
as ``overloaded``/``draining``/``error``, never as a false ``ok`` or
``invalid``, and no status outside those five is returned — then re-runs the inferno profile to prove the
verdict stream is a pure function of the seed.

The service's second invariant is gated beside the first: a request
costs at most one edge walk and one memo read per transaction it
presents (§3's "for each T ∈ 𝔗"), whatever the faults around it —
counted here, per request, by wrapping the one reference walk
(``TypecoinTransaction.references`` of a constructed transaction, once
in its lifetime) and every read of the service's memo map.  A request
for freshly built transactions walks each once; the same bytes decoded
afresh walk nothing, since the decoder records what it read.  The meter
also counts Σ_global formations per request — each a ``Basis.extended``
call: a ledger merging the declarations stacked on it, or a declaring
transaction's check building its scope — and a repeat request whose
transactions are all held, some of them declaring, must form none.

Exit status 0 means the service gate passed.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py [seed]
"""

import sys
import threading
from contextlib import contextmanager
from functools import cached_property

from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.transaction import OutPoint
from repro.service.chaos import (
    SERVICE_PROFILES,
    _service_world,
    run_service_chaos,
)
from repro.core.builder import basis_publication, simple_transfer
from repro.core.transaction import TypecoinOutput, TypecoinTransaction
from repro.core.validate import Ledger
from repro.core.wallet import TypecoinClient
from repro.core.wire import decode_bundle, encode_bundle
from repro.lf.basis import Basis, KindDecl
from repro.lf.syntax import KIND_PROP, TConst
from repro.logic.propositions import Atom
from repro.lru import LRU
from repro.service import VerificationService
from repro.service.server import INFRA_STATUSES, VERDICT_STATUSES

SMOKE_PROFILES = ("service-calm", "service-inferno")
REPEAT_DEPTH = 6


@contextmanager
def request_meter():
    """Yield a list that gains ``(transactions, edge walks, memo reads,
    Σ_global formations)`` for every ``VerificationService.verify`` call
    made inside the block.

    A memo read is a ``get`` on that service's memo map, whichever method
    makes it; a formation is a ``Basis.extended`` call.  All are counted
    per thread — the overload burst runs requests concurrently — and only
    between a request's entry and its return, so the oracle's own
    ``verify_claim`` replays are not billed to anyone.
    """
    requests = []
    current = threading.local()
    held, get = TypecoinTransaction.__dict__["references"], LRU.get
    extended = Basis.extended
    verify = VerificationService.verify

    def counting_walk(txn):
        current.walks = getattr(current, "walks", 0) + 1
        return held.func(txn)

    def counting_get(self, key):
        if getattr(current, "memo", None) is self:
            current.reads += 1
        return get(self, key)

    def counting_extended(self, *others):
        if getattr(current, "memo", None) is not None:
            current.formations += 1
        return extended(self, *others)

    def metered_verify(self, bundle):
        current.walks, current.reads, current.memo = 0, 0, self.memo._lru
        current.formations = 0
        try:
            return verify(self, bundle)
        finally:
            current.memo = None
            requests.append((
                len(bundle.transactions), current.walks, current.reads,
                current.formations,
            ))

    counted = cached_property(counting_walk)
    counted.__set_name__(TypecoinTransaction, "references")
    TypecoinTransaction.references = counted
    LRU.get = counting_get
    Basis.extended = counting_extended
    VerificationService.verify = metered_verify
    try:
        yield requests
    finally:
        TypecoinTransaction.references = held
        LRU.get = get
        Basis.extended = extended
        VerificationService.verify = verify


def declaring_world():
    """A regtest chain carrying a two-transaction claim whose first
    transaction declares ``this.token`` and grants one; the second moves
    the token on.  Returns ``(net, bundle)``."""
    net = RegtestNetwork()
    client = TypecoinClient(net, b"service-smoke", Ledger())
    net.fund_wallet(client.wallet, blocks=2)
    basis = Basis()
    token = Atom(TConst(basis.declare_local("token", KindDecl(KIND_PROP))))
    carrier = client.submit(basis_publication(basis, client.pubkey, token))
    net.confirm(1)
    client.sync()
    held = client.input_for(OutPoint(carrier.txid, 0))
    carrier = client.submit(simple_transfer(
        [held], [TypecoinOutput(held.prop, held.amount, client.pubkey)]
    ))
    net.confirm(1)
    client.sync()
    return net, client.claim_bundle(OutPoint(carrier.txid, 0), held.prop)


def main(seed: int = 7) -> int:
    print(
        f"service smoke: profiles {', '.join(SMOKE_PROFILES)} (seed {seed})"
    )
    results = {}
    for name in SMOKE_PROFILES:
        with request_meter() as requests:
            result = run_service_chaos(SERVICE_PROFILES[name], seed=seed)
        results[name] = result
        status = "ok" if result.ok else "FAIL"
        # The bundles' transactions read their references when the
        # prover assembled them: no request walks.  Shed and draining
        # requests never reach the memo.
        walked = [walks for _size, walks, _reads, _ in requests if walks]
        read = [reads for _size, _walks, reads, _ in requests if reads]
        formed = [count for *_, count in requests]
        print(
            f"  {name:>16}: answered={result.answered}"
            f" wrong={result.wrong_verdicts}"
            f" statuses={dict(sorted(result.statuses.items()))}"
            f" poison_rejected={result.poison_rejected}"
            f" shed={result.shed}"
            f" edge_walks/request={min(walked, default=0)}"
            f"..{max(walked, default=0)}"
            f" ({len(walked)} of {len(requests)} requests walked)"
            f" memo_reads/request={min(read, default=0)}"
            f"..{max(read, default=0)}"
            f" sigma_formations/request={min(formed, default=0)}"
            f"..{max(formed, default=0)}"
            f" [{status}]"
        )
        for what, column in (("edge walks", 1), ("memo reads", 2)):
            over = [
                (request[0], request[column])
                for request in requests
                if request[column] > request[0]
            ]
            if over:
                print(
                    f"error: profile {name!r}: requests made more {what}"
                    f" than they had transactions, as (transactions,"
                    f" {what}): {over[:5]}",
                    file=sys.stderr,
                )
                return 1
        if not read:
            print(
                f"error: profile {name!r}: the memo-read meter saw nothing",
                file=sys.stderr,
            )
            return 1
        unknown = sorted(set(result.statuses) - {*VERDICT_STATUSES, *INFRA_STATUSES})
        if unknown:
            print(
                f"error: profile {name!r} returned unknown statuses {unknown}",
                file=sys.stderr,
            )
            return 1
        if result.wrong_verdicts:
            print(
                f"error: profile {name!r} returned a wrong verdict",
                file=sys.stderr,
            )
            return 1
        if not result.answered:
            print(
                f"error: profile {name!r} answered nothing", file=sys.stderr
            )
            return 1

    # Freshly built transactions walk once each; the same bytes decoded
    # afresh walk nothing (the decoder recorded their references), and a
    # warm service reads each presented txid once.
    net, valid, _ = _service_world(REPEAT_DEPTH)
    wire_bytes = encode_bundle(valid)
    service = VerificationService(net.chain)
    try:
        with request_meter() as requests:
            built = decode_bundle(wire_bytes)
            built.transactions = {
                txid: TypecoinTransaction(
                    txn.basis, txn.grant, txn.inputs, txn.outputs, txn.proof
                )
                for txid, txn in built.transactions.items()
            }
            service.verify(built)
            for _ in range(2):
                service.verify(decode_bundle(wire_bytes))
    finally:
        service.close()
    walked = [walks for _size, walks, _reads, _ in requests]
    read = [reads for _size, _walks, reads, _ in requests]
    print(
        f"  built, then decoded twice: edge walks {walked},"
        f" memo reads {read}"
    )
    if walked != [REPEAT_DEPTH, 0, 0]:
        print(
            f"error: {walked} walks for three requests of the same"
            f" {REPEAT_DEPTH} transactions, built then decoded twice (want"
            f" [{REPEAT_DEPTH}, 0, 0])",
            file=sys.stderr,
        )
        return 1
    if read != [REPEAT_DEPTH] * 3:
        print(
            f"error: a service read its memo {read} times for three"
            f" requests of the same {REPEAT_DEPTH} transactions (want"
            f" {REPEAT_DEPTH} each)",
            file=sys.stderr,
        )
        return 1

    # A repeat request whose transactions are all held forms Σ_global not
    # once, though one of them declares: the ledger stacks the held
    # basis, and no check reads Σ_global to merge it.
    net, bundle = declaring_world()
    wire_bytes = encode_bundle(bundle)
    service = VerificationService(net.chain)
    try:
        with request_meter() as requests:
            for _ in range(2):
                service.verify(decode_bundle(wire_bytes))
    finally:
        service.close()
    formed = [count for *_, count in requests]
    print(f"  a declaring claim, decoded twice: Σ_global formations {formed}")
    if not formed[0] or formed[1]:
        print(
            f"error: Σ_global formed {formed} times for two requests of the"
            " same declaring claim (want some, then none)",
            file=sys.stderr,
        )
        return 1

    # The inferno must actually have exercised the failure machinery:
    # poisoned memo entries rejected, and overload shed rather than
    # queued without bound.
    inferno = results["service-inferno"]
    for attr in ("poison_rejected", "shed"):
        if not getattr(inferno, attr):
            print(
                f"error: inferno exercised no {attr} — profile too tame",
                file=sys.stderr,
            )
            return 1

    # Determinism: the same (profile, seed) reproduces the verdict
    # stream — the overload burst included, whose requests wait for one
    # another so that exactly the excess over ``max_inflight`` is shed.
    again = run_service_chaos(SERVICE_PROFILES["service-inferno"], seed=seed)
    if again.statuses != inferno.statuses:
        print(
            "error: inferno rerun diverged:"
            f" {again.statuses} != {inferno.statuses}",
            file=sys.stderr,
        )
        return 1
    print("  determinism: inferno rerun reproduced the verdict stream")
    print("service smoke passed: zero wrong verdicts under chaos")
    return 0


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    raise SystemExit(main(seed))
