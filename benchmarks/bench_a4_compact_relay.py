"""A4 (ablation) — compact block relay vs full-block flooding.

PR 10's tentpole: with warm mempools, announcing a block as short txids
plus a prefilled coinbase (BIP 152 style) should cut relay bytes by an
order of magnitude, because every peer already holds the transaction
bodies and only needs to learn *which* ones the block commits to.

For each (node count, block size) cell the same seeded swarm runs twice
— full-block flooding vs compact relay — with identical funding, the
same gossip-warmed mempools, and byte counters zeroed right before the
block is submitted.  Relay cost comes from the unconditional per-node
``bytes_sent`` ledgers (no observability required); first-seen latency
is reconstructed from ``relay.hop`` events when observability is on.

The headline acceptance pin: on 1000-tx blocks the compact path moves
at least 5x fewer bytes than flooding.
"""

from repro import obs
from repro.bitcoin.chain import Blockchain
from repro.bitcoin.miner import Miner
from repro.bitcoin.network import Simulation, build_network
from repro.bitcoin.population import fund_wallets, sim_chain_params
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import TxOut
from repro.bitcoin.wallet import Wallet

SEED = 23
#: (node count, transactions per block) cells; each runs flood + compact.
MATRIX = ((8, 200), (8, 1000), (16, 200))
MAX_TXS = max(txs for _nodes, txs in MATRIX)
WARM_HORIZON = 900.0  # seconds of gossip to warm every mempool
RELAY_HORIZON = 300.0  # seconds for the block itself to settle
EVENT_CAPACITY = 500_000
#: The acceptance floor: compact relay on warm mempools, 1000-tx blocks.
MIN_RATIO_1K = 5.0

_FUNDING_CACHE: dict | None = None


def funded_transactions():
    """One funded chain prefix plus ``MAX_TXS`` independent signed
    spends, built once and replayed into every scenario (funding is
    deterministic, so every cell boots the identical chain)."""
    global _FUNDING_CACHE
    if _FUNDING_CACHE is None:
        wallets = [
            Wallet.from_seed(b"a4-wallet-%d" % i) for i in range(MAX_TXS)
        ]
        blocks = fund_wallets([w.key_hash for w in wallets])
        chain = Blockchain(sim_chain_params())
        for block in blocks:
            if not chain.add_block(block):
                raise RuntimeError("funding prefix rejected")
        txs = [
            w.create_transaction(
                chain,
                [TxOut(30_000, p2pkh_script(w.key_hash))],
                fee=10_000,
            )
            for w in wallets
        ]
        _FUNDING_CACHE = {"blocks": blocks, "txs": txs}
    return _FUNDING_CACHE["blocks"], _FUNDING_CACHE["txs"]


def _first_seen_latencies(events, trace_suffix, origin):
    """node -> first-seen latency for the measured block's trace."""
    origin_time = None
    first_seen = {}
    for event in events:
        if event["kind"] != "relay.hop":
            continue
        data = event["data"]
        trace = data["trace"]
        if not (trace.startswith("blk") and trace.endswith(trace_suffix)):
            continue
        if data["hop"] == 0:
            if origin_time is None:
                origin_time = data["sim_time"]
        elif data["to"] != origin:
            first_seen.setdefault(data["to"], data["sim_time"])
    if origin_time is None:
        return []
    return sorted(t - origin_time for t in first_seen.values())


def run_scenario(node_count, tx_count, compact, seed=SEED):
    """One warm-mempool block relay; byte ledger split out by kind."""
    blocks, txs = funded_transactions()
    previous_log = None
    if obs.ENABLED:
        previous_log = obs.set_event_log(
            obs.EventLog(capacity=EVENT_CAPACITY, clock=obs.clock)
        )
    try:
        sim = Simulation(seed=seed)
        nodes = build_network(sim, node_count)
        for node in nodes:
            node.compact_relay = compact
            for block in blocks:
                if not node.chain.add_block(block):
                    raise RuntimeError("node rejected funding prefix")
        for tx in txs[:tx_count]:
            nodes[0].submit_transaction(tx)
        sim.run_until(WARM_HORIZON)
        for node in nodes:
            if len(node.mempool) != tx_count:
                raise RuntimeError(
                    f"{node.name} mempool holds {len(node.mempool)}"
                    f"/{tx_count} txs after warming"
                )
            node.bytes_sent.clear()

        miner = Miner(nodes[0].chain, Wallet.from_seed(b"a4-miner").key_hash)
        block = miner.assemble(
            nodes[0].mempool,
            timestamp=nodes[0].chain.median_time_past() + 1,
            extra_nonce=1,
        )
        assert len(block.txs) == tx_count + 1  # every pooled tx + coinbase
        if obs.ENABLED:
            # Hand-assembled blocks need their causal trace minted the way
            # PoissonMiner does, or relay.hop events are not emitted.
            sim.mint_trace("blk", block.hash)
        nodes[0].submit_block(block)
        sim.run_until(WARM_HORIZON + RELAY_HORIZON)
        for node in nodes:
            if node.chain.tip.block.hash != block.hash:
                raise RuntimeError(f"{node.name} did not reach the block")

        by_kind: dict[str, int] = {}
        for node in nodes:
            for kind, amount in node.bytes_sent.items():
                by_kind[kind] = by_kind.get(kind, 0) + amount
        latencies = []
        if obs.ENABLED:
            latencies = _first_seen_latencies(
                obs.events().snapshot(), block.hash.hex()[:8], nodes[0].name
            )
    finally:
        if previous_log is not None:
            obs.set_event_log(previous_log)

    total = sum(by_kind.values())
    return {
        "nodes": node_count,
        "txs": tx_count,
        "mode": "compact" if compact else "flood",
        "seed": seed,
        "block_size": block.serialized_size(),
        "relay_bytes": total,
        "bytes_by_kind": by_kind,
        "arrivals": len(latencies),
        "p50_seconds": latencies[len(latencies) // 2] if latencies else 0.0,
        "max_seconds": latencies[-1] if latencies else 0.0,
    }


def bench_a4_compact_relay():
    global _FUNDING_CACHE
    try:
        rows = [
            run_scenario(node_count, tx_count, compact)
            for node_count, tx_count in MATRIX
            for compact in (False, True)
        ]
    finally:
        _FUNDING_CACHE = None  # ~10^5 objects: do not keep them alive

    print(f"\nA4: relay bytes per settled block, flood vs compact"
          f" (seed {SEED}, warm mempools)")
    print(f"{'nodes':>6} {'txs':>6} {'mode':>8} {'block':>9}"
          f" {'relayed':>10} {'ratio':>7} {'p50':>7} {'max':>7}")
    for flood, compact in zip(rows[0::2], rows[1::2]):
        ratio = flood["relay_bytes"] / max(1, compact["relay_bytes"])
        for row in (flood, compact):
            shown = ratio if row is compact else 1.0
            print(f"{row['nodes']:>6} {row['txs']:>6} {row['mode']:>8}"
                  f" {row['block_size']:>9} {row['relay_bytes']:>10}"
                  f" {shown:>6.1f}x {row['p50_seconds']:>6.2f}s"
                  f" {row['max_seconds']:>6.2f}s")

    for flood, compact in zip(rows[0::2], rows[1::2]):
        assert flood["nodes"] == compact["nodes"]
        assert flood["txs"] == compact["txs"]
        # Flooding pushes full blocks; compact must always undercut it.
        assert compact["relay_bytes"] < flood["relay_bytes"]
        # Warm mempools mean no getblocktxn round-trips: the compact run
        # never falls back to full-block transfer.
        assert "block" not in compact["bytes_by_kind"]
        ratio = flood["relay_bytes"] / max(1, compact["relay_bytes"])
        if flood["txs"] >= 1000:
            assert ratio >= MIN_RATIO_1K, ratio

