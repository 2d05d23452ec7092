"""Seeded service-chaos smoke: zero wrong verdicts under faults, twice.

Driven by ``scripts/check.sh --service``.  Runs each service chaos
profile once, asserts the load-bearing invariant — the verification
service never returns a wrong verdict; infrastructure trouble surfaces
as ``timeout``/``overloaded``/``draining``/``error``, never as a false
``ok`` or ``invalid`` — then re-runs the inferno profile to prove the
verdict stream is a pure function of the seed.

The service's second invariant is gated beside the first: a request
costs at most one edge walk per transaction it presents (§3's "for each
T ∈ 𝔗"), whatever the faults around it — counted here, per request, by
wrapping the one place ``dependency_levels`` gets its edges — and a
repeat request for the same bytes, decoded afresh, on a warm service
walks nothing at all.

Exit status 0 means the service gate passed.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py [seed]
"""

import sys
import threading
from contextlib import contextmanager

from repro.service.chaos import (
    SERVICE_PROFILES,
    _service_world,
    run_service_chaos,
)
from repro.core import verifier
from repro.core.wire import decode_bundle, encode_bundle
from repro.service import VerificationService

SMOKE_PROFILES = ("service-calm", "service-inferno")
REPEAT_DEPTH = 6


@contextmanager
def edge_walk_meter():
    """Yield a list that gains ``(transactions, edge walks)`` for every
    ``VerificationService.verify`` call made inside the block.

    Walks are counted per thread — the overload burst runs requests
    concurrently — and only between a request's entry and its return, so
    the oracle's own ``verify_claim`` replays are not billed to anyone.
    """
    requests = []
    current = threading.local()
    walk, verify = verifier.referenced_txids, VerificationService.verify

    def counting_walk(txn):
        current.walks = getattr(current, "walks", 0) + 1
        return walk(txn)

    def metered_verify(self, bundle, **kwargs):
        current.walks = 0
        try:
            return verify(self, bundle, **kwargs)
        finally:
            requests.append((len(bundle.transactions), current.walks))

    verifier.referenced_txids = counting_walk
    VerificationService.verify = metered_verify
    try:
        yield requests
    finally:
        verifier.referenced_txids = walk
        VerificationService.verify = verify


def main(seed: int = 7) -> int:
    print(
        f"service smoke: profiles {', '.join(SMOKE_PROFILES)} (seed {seed})"
    )
    results = {}
    for name in SMOKE_PROFILES:
        with edge_walk_meter() as requests:
            result = run_service_chaos(SERVICE_PROFILES[name], seed=seed)
        results[name] = result
        status = "ok" if result.ok else "FAIL"
        # Shed and draining requests never reach the levelling, and a
        # warm service walks only what it does not hold: 0 walks.
        walked = [walks for _size, walks in requests if walks]
        print(
            f"  {name:>16}: answered={result.answered}"
            f" wrong={result.wrong_verdicts}"
            f" statuses={dict(sorted(result.statuses.items()))}"
            f" poison_rejected={result.poison_rejected}"
            f" shed={result.shed}"
            f" edge_walks/request={min(walked, default=0)}"
            f"..{max(walked, default=0)}"
            f" ({len(walked)} of {len(requests)} requests walked)"
            f" [{status}]"
        )
        superlinear = [(size, walks) for size, walks in requests if walks > size]
        if superlinear:
            print(
                f"error: profile {name!r}: requests made more edge walks"
                f" than they had transactions, as (transactions, walks):"
                f" {superlinear[:5]}",
                file=sys.stderr,
            )
            return 1
        if not walked:
            print(
                f"error: profile {name!r}: the edge-walk meter saw no walk",
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

    # A warm service shown the same bytes again walks nothing: what it
    # admitted is held under each transaction's hash.
    net, valid, _ = _service_world(REPEAT_DEPTH)
    wire_bytes = encode_bundle(valid)
    service = VerificationService(net.chain)
    try:
        with edge_walk_meter() as requests:
            for _ in range(3):
                service.verify(decode_bundle(wire_bytes))
    finally:
        service.close()
    walked = [walks for _size, walks in requests]
    print(f"  repeat requests for the same bytes: edge walks {walked}")
    if walked != [REPEAT_DEPTH, 0, 0]:
        print(
            f"error: a warm service walked {walked} for three requests of"
            f" the same {REPEAT_DEPTH} transactions (want"
            f" [{REPEAT_DEPTH}, 0, 0])",
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
