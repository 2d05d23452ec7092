"""A3 (ablation) — block propagation latency vs swarm size.

Paper §1, item 4: confirmations are only as strong as how quickly a
freshly-mined block reaches every honest node — a slow gossip layer
widens the window an attacker's private chain can exploit.  A1 measured
the *consequence* (fork rate vs latency); this ablation measures the
propagation itself, reconstructed purely from the ``relay.hop`` causal
trace events the swarm telemetry emits: for growing node counts, the
p50/p95/p99 first-seen latency of a mined block across the network.

Everything is derived from the event log alone — no simulator state is
consulted — which doubles as an end-to-end check that the propagation
tree really is reconstructable from telemetry (the property the swarm
observability layer exists to provide).
"""

from repro import obs
from repro.bitcoin.network import PoissonMiner, Simulation, build_network
from repro.bitcoin.pow import block_work, target_to_bits

SEED = 11
NODE_COUNTS = (8, 16, 32)
BLOCK_INTERVAL = 600.0
DURATION = 24 * 3600.0  # simulated seconds (~140 blocks at 600 s)
EVENT_CAPACITY = 500_000  # hold every relay.hop of the largest run


def _quantile(ordered, q):
    """Nearest-rank quantile of an already-sorted list."""
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def first_seen_latencies(events):
    """Per-(block, node) first-seen latency from relay.hop events alone.

    The origin of each trace is its hop-0 event (miner submission, where
    ``from == to``); every other node's first arrival of that trace
    contributes ``sim_time - origin_time``.
    """
    origin_time: dict[str, float] = {}
    first_seen: dict[tuple[str, str], float] = {}
    for event in events:
        if event["kind"] != "relay.hop":
            continue
        data = event["data"]
        trace = data["trace"]
        if not trace.startswith("blk"):
            continue
        if data["hop"] == 0:
            origin_time.setdefault(trace, data["sim_time"])
            continue
        key = (trace, data["to"])
        if key not in first_seen:
            first_seen[key] = data["sim_time"]
    return [
        arrival - origin_time[trace]
        for (trace, _node), arrival in first_seen.items()
        if trace in origin_time
    ]


def run_swarm(node_count, seed=SEED):
    """One seeded swarm run; latency quantiles from the event log."""
    # The default ring is too small for ~100 blocks × N nodes of hops;
    # give this run its own roomy event log, restored afterwards.
    previous_log = obs.set_event_log(
        obs.EventLog(capacity=EVENT_CAPACITY, clock=obs.clock)
    )
    try:
        sim = Simulation(seed=seed)
        nodes = build_network(sim, node_count)
        total_rate = block_work(target_to_bits(2**252)) / BLOCK_INTERVAL
        miner_count = min(4, node_count)
        miners = [
            PoissonMiner(nodes[i], total_rate / miner_count, miner_id=i)
            for i in range(miner_count)
        ]
        for miner in miners:
            miner.start()
        sim.run_until(DURATION)
        latencies = sorted(first_seen_latencies(obs.events().snapshot()))
    finally:
        obs.set_event_log(previous_log)
    return {
        "nodes": node_count,
        "seed": seed,
        "blocks_found": sum(m.blocks_found for m in miners),
        "arrivals": len(latencies),
        "p50_seconds": _quantile(latencies, 0.50),
        "p95_seconds": _quantile(latencies, 0.95),
        "p99_seconds": _quantile(latencies, 0.99),
    }


def bench_a3_propagation():
    rows = [run_swarm(count) for count in NODE_COUNTS]

    print(f"\nA3: block first-seen latency vs node count"
          f" (seed {SEED}, 600 s blocks, 2 s mean hop)")
    print(f"{'nodes':>6} {'blocks':>7} {'arrivals':>9}"
          f" {'p50':>8} {'p95':>8} {'p99':>8}")
    for row in rows:
        print(f"{row['nodes']:>6} {row['blocks_found']:>7}"
              f" {row['arrivals']:>9} {row['p50_seconds']:>7.1f}s"
              f" {row['p95_seconds']:>7.1f}s {row['p99_seconds']:>7.1f}s")

    for row in rows:
        assert row["blocks_found"] > 0
        # Every reachable node eventually hears of (nearly) every block.
        assert row["arrivals"] > 0
        assert (
            row["p50_seconds"]
            <= row["p95_seconds"]
            <= row["p99_seconds"]
        )
        # The ring-plus-chords diameter grows ~linearly in node count,
        # at 2 s mean per hop; even p99 should stay far below a block
        # interval (otherwise fork rates would explode).
        assert row["p99_seconds"] < BLOCK_INTERVAL

