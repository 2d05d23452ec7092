"""E10 — verification-service latency: memoization and chaos overhead.

The §3 protocol re-verifies the whole upstream set on every claim (E6
pins that curve).  The service holds what it admitted per carrier txid
under the transaction's hash and its confirming block's, so a warm claim
costs only the tail that depends on the tip and the claim (chain
presence and depth, claimed-prop equality, spentness) and the ledger it
builds from the held parts.
This bench states the cold→warm collapse per depth as work: the cold
request typechecks, and a warm one checks nothing and answers each
upstream transaction from the memo.  It also proves the service answers
correctly (zero wrong verdicts) under the inferno chaos profile (memo
poisoning, wrong-type requests, an overload burst).  Latencies are
printed and gate nothing.
"""

import time

from repro.service.chaos import SERVICE_PROFILES, _service_world, run_service_chaos
from repro.service import ServiceClient, VerificationService

from obs_harness import counted

DEPTHS = (2, 4, 8)
WARM_REQUESTS = 20
# A request's work: LF typechecks, proof-term nodes checked, and memo
# misses and hits, one per upstream transaction.
WORK = (
    "lf.typecheck_total", "proof.nodes_total",
    "service.memo_misses_total", "service.memo_hits_total",
)


def bench_e10_service():
    worlds = {depth: _service_world(depth) for depth in DEPTHS}
    cold_work, timings = {}, {}
    for depth, (net, valid, _invalid) in worlds.items():
        service = VerificationService(net.chain)
        client = ServiceClient(service, sleep=lambda _d: None)
        start = time.perf_counter()
        verdict, cold = counted(WORK, client.verify, valid)
        cold_s = time.perf_counter() - start
        assert verdict.status == "ok", verdict
        # Shape 1: the cold request typechecks the upstream set.
        assert cold["lf.typecheck_total"] > 0 and cold["proof.nodes_total"] > 0
        start = time.perf_counter()
        for _ in range(WARM_REQUESTS):
            verdict, warm = counted(WORK, client.verify, valid)
            assert verdict.status == "ok", verdict
            # Shape 2: a warm request re-checks nothing and misses nothing;
            # it answers every upstream transaction from the memo.  (It
            # still reads chain presence and spentness per upstream
            # transaction: the memo's win is the typecheck, not the walk.)
            assert warm == {
                "lf.typecheck_total": 0, "proof.nodes_total": 0,
                "service.memo_misses_total": 0,
                "service.memo_hits_total": len(valid.transactions),
            }, (depth, warm)
        warm_s = (time.perf_counter() - start) / WARM_REQUESTS
        service.close()
        cold_work[depth] = cold
        timings[depth] = (cold_s, warm_s)

    # The inferno profile: poisoning, wrong claims, overload — the
    # service must keep answering and never answer wrongly.
    start = time.perf_counter()
    chaos = run_service_chaos(SERVICE_PROFILES["service-inferno"], seed=0)
    chaos_seconds = time.perf_counter() - start
    assert chaos.ok, chaos
    assert chaos.wrong_verdicts == 0

    print("\nE10: service verify work and latency vs upstream depth")
    print(f"{'depth':>6} {'cold typechecks':>16} {'cold proof nodes':>17}"
          f" {'cold':>10} {'warm':>10}")
    for depth in DEPTHS:
        cold_s, warm_s = timings[depth]
        print(
            f"{depth:>6} {cold_work[depth]['lf.typecheck_total']:>16}"
            f" {cold_work[depth]['proof.nodes_total']:>17}"
            f" {cold_s * 1000:>8.1f}ms {warm_s * 1000:>8.1f}ms"
        )
    print(f"(each of {WARM_REQUESTS} warm requests: 0 typechecks, 0 proof"
          " nodes, one memo hit per upstream transaction)")
    print(
        f"inferno chaos: {chaos.answered} answered, 0 wrong,"
        f" {chaos.poison_rejected} poison rejected, {chaos.shed} shed,"
        f" {chaos_seconds:.2f}s"
    )

    # Shape 3: chaos answered every non-shed request with a real verdict.
    assert chaos.answered > 0

