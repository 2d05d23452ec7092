"""E6 — verifier cost scales with the upstream set (paper §3).

"he provides the Typecoin transaction T_I ..., as well as 𝔗, the set of
all Typecoin transactions upstream of T_I.  The type-checker then checks
... for each T ∈ 𝔗."  Verification is linear in the depth of the
transaction's history; this bench measures that curve.
"""

import time

from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.transaction import OutPoint
from repro.core.builder import simple_transfer
from repro.core.transaction import TypecoinOutput
from repro.core.validate import Ledger
from repro.core.verifier import verify_claim
from repro.core.wallet import TypecoinClient
from repro.logic.propositions import One

DEPTHS = (1, 2, 4, 8, 16, 32)


def build_chain(depth):
    """A transfer chain of the given depth; returns (chain, client, tip)."""
    net = RegtestNetwork()
    client = TypecoinClient(net, b"e6-prover", Ledger())
    net.fund_wallet(client.wallet, blocks=2)

    txn = simple_transfer([], [TypecoinOutput(One(), 600, client.pubkey)])
    carrier = client.submit(txn)
    net.confirm(1)
    client.sync()
    outpoint = OutPoint(carrier.txid, 0)
    for _ in range(depth - 1):
        txn = simple_transfer(
            [client.input_for(outpoint)],
            [TypecoinOutput(One(), 600, client.pubkey)],
        )
        carrier = client.submit(txn)
        net.confirm(1)
        client.sync()
        outpoint = OutPoint(carrier.txid, 0)
    return net, client, outpoint


def bench_e6_verifier_scaling(benchmark):
    scenarios = {depth: build_chain(depth) for depth in DEPTHS}

    def verify_all():
        timings = {}
        for depth, (net, client, outpoint) in scenarios.items():
            bundle = client.claim_bundle(outpoint, One())
            samples = []
            for _ in range(3):
                start = time.perf_counter()
                verify_claim(net.chain, bundle)
                samples.append(time.perf_counter() - start)
            timings[depth] = min(samples)
        return timings

    timings = benchmark.pedantic(verify_all, rounds=3, iterations=1)

    print("\nE6: §3 claim-verification cost vs upstream depth")
    print(f"{'depth':>6} {'bundle size':>12} {'verify time':>12}")
    for depth, (net, client, outpoint) in scenarios.items():
        bundle = client.claim_bundle(outpoint, One())
        print(f"{depth:>6} {len(bundle.transactions):>12}"
              f" {timings[depth] * 1000:>10.1f}ms")

    # Shape 1: the bundle really contains the whole upstream set.
    for depth, (net, client, outpoint) in scenarios.items():
        assert len(client.claim_bundle(outpoint, One()).transactions) == depth
    # Shape 2: cost is linear in depth — one edge walk, one correspondence
    # check and one typecheck per upstream transaction.  32 deep reads
    # 25–31× 1 deep (a fixed per-claim part keeps it under 32×, the
    # growing ledger pushes it back up); each depth is the best of three
    # samples, because single 0.3 ms samples read 15–32× and left the
    # band one run in fifteen.  Quadratic levelling read ~100×.
    ratio = timings[32] / timings[1]
    assert 16 < ratio < 64
    benchmark.extra_info["timings_ms"] = {
        depth: timings[depth] * 1000 for depth in DEPTHS
    }


if __name__ == "__main__":
    from obs_harness import run_standalone

    run_standalone(bench_e6_verifier_scaling)
