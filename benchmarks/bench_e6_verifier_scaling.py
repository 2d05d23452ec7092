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

from obs_harness import counted

DEPTHS = (1, 2, 4, 8, 16, 32)
# The verifier's work per claim: transactions admitted, LF typechecks and
# proof-term nodes checked.
COUNTED = ("verify.carriers_total", "lf.typecheck_total", "proof.nodes_total")


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


def bench_e6_verifier_scaling():
    scenarios = {depth: build_chain(depth) for depth in DEPTHS}
    work, timings = {}, {}
    for depth, (net, client, outpoint) in scenarios.items():
        bundle = client.claim_bundle(outpoint, One())
        samples = []
        for sample in range(3):
            start = time.perf_counter()
            if sample == 0:
                _, work[depth] = counted(COUNTED, verify_claim, net.chain, bundle)
            else:
                verify_claim(net.chain, bundle)
            samples.append(time.perf_counter() - start)
        timings[depth] = min(samples)

    print("\nE6: §3 claim-verification cost vs upstream depth")
    print(f"{'depth':>6} {'bundle size':>12} {'typechecks':>11}"
          f" {'proof nodes':>12} {'verify time':>12}")
    for depth, (net, client, outpoint) in scenarios.items():
        bundle = client.claim_bundle(outpoint, One())
        print(f"{depth:>6} {len(bundle.transactions):>12}"
              f" {work[depth]['lf.typecheck_total']:>11}"
              f" {work[depth]['proof.nodes_total']:>12}"
              f" {timings[depth] * 1000:>10.1f}ms")

    # Shape 1: the bundle really contains the whole upstream set.
    for depth, (net, client, outpoint) in scenarios.items():
        assert len(client.claim_bundle(outpoint, One()).transactions) == depth
    # Shape 2: cost is linear in depth — one edge walk, one correspondence
    # check and one typecheck per upstream transaction.  Read on work, not
    # on a wall clock: each counted series is exactly affine in depth,
    # c(d) = c(1) + (d − 1)·(c(2) − c(1)).  Quadratic levelling, or any
    # work added for some depths and not others, breaks the line.
    for name in COUNTED:
        step = work[2][name] - work[1][name]
        assert step > 0, name
        for depth in DEPTHS:
            assert work[depth][name] == work[1][name] + (depth - 1) * step, (
                name, depth, work[depth][name]
            )

