"""E10 — verification-service latency: memoization and chaos overhead.

The §3 protocol re-verifies the whole upstream set on every claim (E6
pins that curve).  The service holds what it admitted per carrier txid
under the transaction's hash and its confirming block's, so a warm claim
costs only the tail that depends on the tip and the claim (chain
presence and depth, claimed-prop equality, spentness) and the ledger it
builds from the held parts.
This bench measures the cold→warm collapse per depth, warm throughput,
and proves the service answers correctly — zero wrong verdicts — under
the inferno chaos profile (memo poisoning, wrong-type requests, an
overload burst).
"""

import time

from repro.service.chaos import SERVICE_PROFILES, _service_world, run_service_chaos
from repro.service import ServiceClient, VerificationService

DEPTHS = (2, 4, 8)
WARM_REQUESTS = 20


def bench_e10_service(benchmark):
    worlds = {depth: _service_world(depth) for depth in DEPTHS}

    def measure():
        out = {}
        for depth, (net, valid, _invalid) in worlds.items():
            service = VerificationService(net.chain)
            client = ServiceClient(service, sleep=lambda _d: None)
            start = time.perf_counter()
            verdict = client.verify(valid)
            cold = time.perf_counter() - start
            assert verdict.status == "ok", verdict
            start = time.perf_counter()
            for _ in range(WARM_REQUESTS):
                assert client.verify(valid).status == "ok"
            warm_total = time.perf_counter() - start
            service.close()
            out[depth] = {
                "cold_s": cold,
                "warm_s": warm_total / WARM_REQUESTS,
                "warm_rps": WARM_REQUESTS / warm_total,
            }
        return out

    timings = benchmark.pedantic(measure, rounds=3, iterations=1)

    # The inferno profile: poisoning, wrong claims, overload — the
    # service must keep answering and never answer wrongly.
    start = time.perf_counter()
    chaos = run_service_chaos(SERVICE_PROFILES["service-inferno"], seed=0)
    chaos_seconds = time.perf_counter() - start
    assert chaos.ok, chaos
    assert chaos.wrong_verdicts == 0

    print("\nE10: service verify latency vs upstream depth")
    print(f"{'depth':>6} {'cold':>10} {'warm':>10} {'warm rps':>10}")
    for depth, t in timings.items():
        print(
            f"{depth:>6} {t['cold_s'] * 1000:>8.1f}ms"
            f" {t['warm_s'] * 1000:>8.1f}ms {t['warm_rps']:>10.0f}"
        )
    print(
        f"inferno chaos: {chaos.answered} answered, 0 wrong,"
        f" {chaos.poison_rejected} poison rejected, {chaos.shed} shed,"
        f" {chaos_seconds:.2f}s"
    )

    # Shape 1: warm requests skip the proof/LF re-checks — the memoized
    # path must beat cold clearly at the shallowest chain, where the
    # one-off cold cost dominates.  (Warm cost still grows with depth:
    # chain presence, the memo lookup and the ledger are per upstream
    # transaction on every request, so the deep-chain ratio converges to a
    # constant rather than diverging — the memo's win is the large
    # constant, not the asymptote.)
    assert timings[2]["warm_s"] < timings[2]["cold_s"] / 2
    # Shape 2: the memo never *loses* — warm beats cold at every depth,
    # with slack for single-round timing noise on millisecond samples.
    for depth in DEPTHS:
        assert timings[depth]["warm_s"] < timings[depth]["cold_s"] * 0.8
    # Shape 3: chaos answered every non-shed request with a real verdict.
    assert chaos.answered > 0

    benchmark.extra_info["per_depth"] = {
        depth: {k: v for k, v in t.items()} for depth, t in timings.items()
    }
    benchmark.extra_info["chaos"] = {
        "profile": "service-inferno",
        "answered": chaos.answered,
        "wrong_verdicts": chaos.wrong_verdicts,
        "statuses": dict(chaos.statuses),
        "poison_rejected": chaos.poison_rejected,
        "shed": chaos.shed,
        "retries": chaos.retries,
        "seconds": chaos_seconds,
    }


if __name__ == "__main__":
    from obs_harness import run_standalone

    run_standalone(bench_e10_service)
