"""A1 (ablation) — fork rate vs propagation latency.

Paper §1, item 4: fast propagation relative to the block interval is what
makes the blockchain a *list* rather than a tree — "the time to create a
block [is] much greater than the time needed to disseminate a block."
This ablation turns that knob: with one-hop latency at 0.3 %, 3 % and 30 %
of the block interval, how much mining work lands on orphaned branches?
If latency approached the interval, Typecoin's commitment guarantee (and
Bitcoin's) would erode — stale blocks mean cheap reorgs.
"""

from repro.bitcoin.chain import ChainParams
from repro.bitcoin.network import PoissonMiner, Simulation, build_network
from repro.bitcoin.pow import block_work, target_to_bits

INTERVAL = 600.0
LATENCIES = (2.0, 20.0, 180.0)  # seconds per hop


def run_with_latency(latency, seed=17, hours=60):
    sim = Simulation(seed=seed)
    params = ChainParams(
        max_target=2**252, retarget_window=2**31, require_pow=False
    )
    nodes = build_network(sim, 6, params=params, latency=latency)
    rate = block_work(target_to_bits(2**252)) / INTERVAL
    miners = [
        PoissonMiner(nodes[i], rate / 6, miner_id=i) for i in range(6)
    ]
    for miner in miners:
        miner.start()
    sim.run_until(hours * 3600)
    found = sum(miner.blocks_found for miner in miners)
    height = max(node.chain.height for node in nodes)
    orphaned = found - height
    return {
        "latency": latency,
        "found": found,
        "height": height,
        "orphan_rate": orphaned / found if found else 0.0,
    }


def bench_a1_fork_rate_vs_latency():
    rows = [run_with_latency(latency) for latency in LATENCIES]

    print("\nA1: orphaned-block rate vs one-hop propagation latency"
          " (600 s blocks, 6 miners)")
    print(f"{'latency':>9} {'blocks found':>13} {'chain height':>13}"
          f" {'orphan rate':>12}")
    for row in rows:
        print(f"{row['latency']:>8.0f}s {row['found']:>13} {row['height']:>13}"
              f" {row['orphan_rate']:>11.1%}")

    # Shape: orphan rate grows with latency, staying negligible at
    # realistic (seconds) propagation and becoming material at 30 %.
    assert rows[0]["orphan_rate"] <= rows[2]["orphan_rate"]
    assert rows[0]["orphan_rate"] < 0.05
    assert rows[2]["orphan_rate"] > 0.05

