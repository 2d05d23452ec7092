"""E2 — difficulty adjustment and confirmation latency (paper §1).

Footnote 4: "Bitcoin dynamically adjusts the mining difficulty so that new
blocks are always generated approximately every ten minutes, even as the
computational power of the network changes."  Item 6: six confirmations
"takes roughly an hour."

We quadruple the network hashpower mid-run and watch the retarget rule pull
the block interval back to ~600 s, then measure the 6-confirmation latency.
"""

from repro.bitcoin.chain import ChainParams
from repro.bitcoin.network import Node, PoissonMiner, Simulation
from repro.bitcoin.pow import block_work, target_to_bits

WINDOW = 36  # retarget window (shortened from 2016 to keep the sim fast)
INTERVAL = 600.0


def run_hashpower_ramp(seed=3):
    sim = Simulation(seed=seed)
    params = ChainParams(
        max_target=2**252,
        retarget_window=WINDOW,
        block_interval=int(INTERVAL),
        require_pow=False,
    )
    node = Node("n", sim, params)
    base_rate = block_work(target_to_bits(2**252)) / INTERVAL
    miner = PoissonMiner(node, base_rate, miner_id=1)
    miner.start()

    # Phase 1: calibrated hashpower for three windows.
    sim.run_until(INTERVAL * WINDOW * 3)
    phase1_height = node.chain.height

    # Phase 2: hashpower quadruples (new ASICs arrive).
    miner.hashrate = base_rate * 4
    sim.run_until(sim.now + INTERVAL * WINDOW * 4)

    timestamps = [
        node.chain.block_at(h).header.timestamp
        for h in range(1, node.chain.height + 1)
    ]
    intervals = [b - a for a, b in zip(timestamps, timestamps[1:])]

    def mean(xs):
        return sum(xs) / len(xs) if xs else float("nan")

    # Mean interval right after the hashpower jump (pre-retarget window)
    # and in the final (fully re-targeted) window.
    jump = phase1_height
    post_jump = intervals[jump : jump + WINDOW // 2]
    final = intervals[-WINDOW:]
    return {
        "phase1_mean": mean(intervals[WINDOW : phase1_height - 1]),
        "post_jump_mean": mean(post_jump),
        "final_mean": mean(final),
        "height": node.chain.height,
        "confirmation_latency": mean(
            [sum(intervals[i : i + 6]) for i in range(len(intervals) - 6)]
        ),
    }


def bench_e2_difficulty_adjustment():
    stats = run_hashpower_ramp()

    print("\nE2: block intervals under a 4× hashpower ramp (target 600 s)")
    print(f"  calibrated phase : {stats['phase1_mean']:8.1f} s/block")
    print(f"  right after jump : {stats['post_jump_mean']:8.1f} s/block")
    print(f"  after retargeting: {stats['final_mean']:8.1f} s/block")
    print(f"  6-conf latency   : {stats['confirmation_latency']:8.1f} s"
          f" (paper: 'roughly an hour' = 3600 s)")

    # Shape 1: calibrated phase near the 600-second target.
    assert 0.6 * 600 < stats["phase1_mean"] < 1.5 * 600
    # Shape 2: the jump crushes the interval toward ~150 s.
    assert stats["post_jump_mean"] < 0.5 * 600
    # Shape 3: retargeting restores ~600 s.
    assert 0.6 * 600 < stats["final_mean"] < 1.5 * 600
    # Shape 4: six confirmations take on the order of an hour.
    assert 1800 < stats["confirmation_latency"] < 7200

