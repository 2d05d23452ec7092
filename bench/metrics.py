"""The metrics the benchmark declares; ``BENCHMARK.json`` lists the same
names, units and directions (``tests/test_bench.py`` checks that)."""

from __future__ import annotations

# (name, unit, better, bound): what a user of the system would see.  Every
# workload reports every one; ``bound`` is the share of the parent's
# median by which the metric may worsen before a change is refused.  The
# bounds on times are about three times the spread that ten runs of one
# commit showed in the sandbox (README, "Steadiness"); a change smaller
# than that is claimed by an exact count, not by a clock.
END_TO_END = [
    ("ops_per_s", "op/s", "higher", 0.20),
    ("op_p50_ms", "ms", "lower", 0.20),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]

# Span names (bench/trace.py) that report ``<name>.calls`` and
# ``<name>.self_s``.
SPAN_LAYERS = [
    "bitcoin.wallet",
    "core.wallet",
    "core.validate",
    "core.overlay",
    "core.verifier",
    "logic.checker",
    "lf.typecheck",
    "service",
    "crypto.sign",
    "crypto.verify",
    "bitcoin.script",
    "bitcoin.sighash",
    "bitcoin.validation",
    "bitcoin.mempool",
    "bitcoin.chain",
    "bitcoin.codec",
    "bitcoin.network",
    "bitcoin.miner",
    "store.append",
    "store.snapshot",
    "store.recover",
]

# (name, unit, better) beyond calls and self time.
EXTRA_PER_LAYER = [
    ("bitcoin.wallet.utxos_scanned", "count", "lower"),
    ("service.memo_hit_ratio", "fraction", "higher"),
    ("service.affirmation_hit_ratio", "fraction", "higher"),
    ("service.shed", "count", "lower"),
    ("bitcoin.mempool.rejected", "count", "lower"),
    ("bitcoin.chain.reorgs", "count", "lower"),
    ("bitcoin.codec.bytes", "bytes", "lower"),
    ("bitcoin.network.tx_bytes_per_op", "bytes/op", "lower"),
    ("bitcoin.network.block_bytes_per_op", "bytes/op", "lower"),
    ("bitcoin.network.msgs_per_op", "1/op", "lower"),
    ("bitcoin.miner.blocks", "count", "higher"),
    ("store.log_bytes", "bytes", "lower"),
    ("harness.self_s", "s", "lower"),
    ("harness.cpu_s", "s", "lower"),
    ("harness.sim_events", "count", "lower"),
    ("harness.generator_late_sim_s", "sim-s", "lower"),
    ("harness.trace_overhead_frac", "fraction", "lower"),
    ("harness.converge_sim_s", "sim-s", "lower"),
    # End-to-end numbers that only the lifecycle workloads define, or that
    # are zero on a healthy run; the contract wants end-to-end metrics
    # defined everywhere and never zero, so they are reported here.
    ("e2e.commit_sim_p50_s", "sim-s", "lower"),
    ("e2e.commit_sim_p99_s", "sim-s", "lower"),
    ("e2e.failed_frac", "fraction", "lower"),
]


def per_layer() -> list[tuple[str, str, str]]:
    out = []
    for layer in SPAN_LAYERS:
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
    return out + EXTRA_PER_LAYER


# Per-layer metrics that must repeat exactly for one seed: a later issue
# may name one beforehand as a count-based claim.
def is_exact(name: str) -> bool:
    return not name.endswith(("self_s", "cpu_s", "overhead_frac"))
