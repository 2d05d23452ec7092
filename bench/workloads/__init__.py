"""The benchmark's workloads.

Each workload is a ``setup(seed, sizes)`` that generates inputs and a
``round(inputs, tracer, scratch, sizes)`` that runs one timed round on
fresh state and returns a :class:`common.Round`.  ``sizes`` are fixed per
workload; ``smoke`` sizes exist for the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from bench.workloads import blocksync, lifecycle, verify


@dataclass(frozen=True)
class Workload:
    name: str
    op: str  # what ``ops_per_s`` counts and the latencies time
    why: str
    setup: Callable
    round: Callable
    sizes: dict
    smoke: dict


WORKLOADS = [
    Workload(
        name="claim-lifecycle",
        op="claim taken from submit to an ok verdict; latency of one submit call",
        why="the paper's whole path under population load: wallet, overlay,"
        " mempool, relay, mining, store and the verification service",
        setup=lifecycle.setup,
        round=lambda i, t, s, z: lifecycle.run_round(i, t, s, faults=False),
        sizes={"events": 200},
        smoke={"events": 50},
    ),
    Workload(
        name="claim-lifecycle-faults",
        op="claim taken from submit to an ok verdict; latency of one submit call",
        why="same inputs as claim-lifecycle under faulty links, a partition"
        " and a crash with a torn write: the difference is the cost of faults",
        setup=lifecycle.setup,
        round=lambda i, t, s, z: lifecycle.run_round(i, t, s, faults=True),
        sizes={"events": 200},
        smoke={"events": 50},
    ),
    Workload(
        name="claim-verify-cold",
        op="claim verdict; latency of one ServiceClient.verify",
        why="a verifier's first sight of a history: empty memo, so the"
        " typechecker and proof checker do the work and Bitcoin layers none",
        setup=verify.setup_cold,
        round=verify.round_cold,
        sizes={"passes": 8},
        smoke={"passes": 3},
    ),
    Workload(
        name="claim-verify-warm",
        op="claim verdict; latency of one ServiceClient.verify",
        why="the same service with a warm memo and a skewed request mix:"
        " memo hits beside misses, the non-memoizable tail dominates",
        setup=verify.setup_warm,
        round=verify.round_warm,
        sizes={"requests": 250},
        smoke={"requests": 100},
    ),
    Workload(
        name="block-sync",
        op="transaction connected; latency of one Block.parse + add_block",
        why="a node's initial sync from raw blocks into a durable store, then"
        " recovery: codec, script, sighash, crypto, chain, store; no Typecoin",
        setup=blocksync.setup,
        round=blocksync.run_round,
        sizes={"blocks": 16, "spends": 50},
        smoke={"blocks": 12, "spends": 4},
    ),
]

BY_NAME = {workload.name: workload for workload in WORKLOADS}
