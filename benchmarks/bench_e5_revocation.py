"""E5 — revocation latency (paper §5).

"Alice can revoke the offer at any time (with about fifteen minutes average
latency), simply by spending I."  Revocation takes effect when the spend of
the revocation txout enters a block; careful counterparties may wait one
extra confirmation.

We run the Poisson mining simulator for many simulated days, pick random
revocation instants, and measure the time until the next block (inclusion)
and the block after (one confirmation).
"""

import random

from repro.bitcoin.chain import ChainParams
from repro.bitcoin.network import Node, PoissonMiner, Simulation
from repro.bitcoin.pow import block_work, target_to_bits

TRIALS = 400
INTERVAL = 600.0


def run_trials(seed=11):
    sim = Simulation(seed=seed)
    params = ChainParams(
        max_target=2**252, retarget_window=2**31, require_pow=False
    )
    node = Node("n", sim, params)
    miner = PoissonMiner(
        node, block_work(target_to_bits(2**252)) / INTERVAL, miner_id=1
    )
    miner.start()
    sim.run_until(INTERVAL * (TRIALS + 50))

    genesis_time = node.chain.genesis.header.timestamp
    block_times = sorted(
        node.chain.block_at(h).header.timestamp - genesis_time
        for h in range(1, node.chain.height + 1)
    )
    horizon = block_times[-2]

    rng = random.Random(seed)
    inclusion, one_conf = [], []
    for _ in range(TRIALS):
        revoke_at = rng.uniform(0, horizon - 4 * INTERVAL)
        later = [t for t in block_times if t > revoke_at]
        if len(later) < 2:
            continue
        inclusion.append(later[0] - revoke_at)
        one_conf.append(later[1] - revoke_at)

    def mean(xs):
        return sum(xs) / len(xs)

    def percentile(xs, p):
        ordered = sorted(xs)
        return ordered[int(p * (len(ordered) - 1))]

    return {
        "inclusion_mean": mean(inclusion),
        "inclusion_p90": percentile(inclusion, 0.9),
        "one_conf_mean": mean(one_conf),
        "one_conf_p90": percentile(one_conf, 0.9),
        "trials": len(inclusion),
    }


def bench_e5_revocation_latency():
    stats = run_trials()

    print(f"\nE5: revocation latency over {stats['trials']} trials"
          " (600 s blocks)")
    print(f"{'':24}{'mean':>10}{'p90':>10}")
    print(f"{'until inclusion':24}{stats['inclusion_mean']:>9.0f}s"
          f"{stats['inclusion_p90']:>9.0f}s")
    print(f"{'until 1 confirmation':24}{stats['one_conf_mean']:>9.0f}s"
          f"{stats['one_conf_p90']:>9.0f}s")
    print("paper: 'about fifteen minutes average latency' = 900 s")

    # Shape: the paper's ~15-minute claim sits between bare inclusion
    # (memoryless wait, mean ≈ 600 s) and inclusion + one confirmation
    # (mean ≈ 1200 s).  Both brackets must hold.
    assert 400 < stats["inclusion_mean"] < 850
    assert 900 < stats["one_conf_mean"] < 1600
    assert stats["inclusion_mean"] < 900 < stats["one_conf_mean"]

