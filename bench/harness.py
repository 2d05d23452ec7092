"""The measurement protocol for one workload in one process.

Set up several times (the median is ``setup_s``), run one discarded
warm-up round (lazy secp256k1 tables, first-use imports), then timed
rounds on fresh state until the time budget is spent.  Every round's
outputs are checked against an oracle inside the workload; here the
rounds of one seed must also agree with each other: equal output digests
and equal deterministic counts.

End-to-end metrics come from untraced rounds only.  A traced run spends
the first half of its budget on untraced rounds and the second half on
traced ones, so the tracing overhead is measured in the same process
against the same inputs.

Wall times are scaled to reference-machine seconds by a calibration
kernel run around every round and set-up (:mod:`bench.calibrate`); the
unscaled medians are kept in the result under ``raw``.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import time

from bench import metrics
from bench.calibrate import Speed
from bench.common import (
    BENCH_DIR,
    OUT_DIR,
    CorrectnessError,
    Round,
    Scratch,
    percentile,
    quartiles,
)
from bench.trace import Tracer
from bench.workloads import Workload

SETUP_REPEATS = 5
KERNEL_SAMPLES = 4  # on each side of a round; 2 around a set-up


def environment() -> dict:
    """Facts needed to judge whether two results are comparable."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=BENCH_DIR,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha or "unknown",  # the driver's checkout is not a repo
    }


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool
) -> dict:
    sizes = workload.smoke if smoke else workload.sizes
    setups: list[tuple[float, float]] = []  # (wall seconds, speed factor)
    inputs = None
    for _ in range(SETUP_REPEATS):
        with Speed(KERNEL_SAMPLES // 2) as speed:
            start = time.perf_counter()
            again = workload.setup(seed, sizes)
            elapsed = time.perf_counter() - start
        setups.append((elapsed, speed.factor))
        if inputs is not None and again.digests != inputs.digests:
            raise CorrectnessError("set-up is not a function of the seed")
        inputs = again

    tracer = Tracer()

    def rounds_for(budget: float) -> list[Round]:
        out = []
        begun = time.perf_counter()
        while not out or time.perf_counter() - begun < budget:
            with Speed(KERNEL_SAMPLES) as speed:
                result = workload.round(inputs, tracer, scratch, sizes)
            result.speed = speed.factor
            out.append(result)
        return out

    traced: list[Round] = []
    with Scratch() as scratch:
        workload.round(inputs, tracer, scratch, sizes)  # warm-up, discarded
        # A traced run spends half its budget untraced first: end-to-end
        # metrics, peak RSS included, never see the tracer.
        plain = rounds_for(seconds / 2 if trace else seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            tracer.install()
            try:
                traced = rounds_for(seconds / 2)
            finally:
                tracer.uninstall()

    _check_rounds_agree(plain + traced)
    nproc = os.cpu_count() or 1
    result = {
        "workload": workload.name,
        "op": workload.op,
        "seed": seed,
        "sizes": sizes,
        "input_digests": inputs.digests,
        "output_digest": plain[0].digest,
        "environment": environment(),
        "correct": True,
        "attempted": sum(r.attempted for r in plain),
        "failed": sum(r.failed for r in plain),
        "rounds": [
            {
                "window_s": r.window_s,
                "ops_per_s": r.ok / r.window_s,
                "speed": r.speed,
                "load_avg_start": r.load_avg[0],
                "load_avg_end": r.load_avg[1],
                # Kept and reported, excluded from nothing.
                "noisy": max(r.load_avg) > nproc,
            }
            for r in plain
        ],
        "end_to_end": _end_to_end(plain, setups, peak_rss_mb, scaled=True),
        "raw": _end_to_end(plain, setups, peak_rss_mb, scaled=False),
    }
    if trace:
        result["per_layer"] = _per_layer(plain, traced)
        result["entry_point_calls"] = traced[-1].trace.calls_by_target
        traced[-1].trace.write(
            OUT_DIR / f"trace-{workload.name}.json",
            {"workload": workload.name, "seed": seed, "sizes": sizes},
        )
    return result


def _check_rounds_agree(rounds: list[Round]) -> None:
    first = rounds[0]
    for other in rounds[1:]:
        if other.digest != first.digest:
            raise CorrectnessError("rounds of one seed produced different outputs")
        if other.counts != first.counts:
            diff = {
                key: (first.counts.get(key), other.counts.get(key))
                for key in first.counts.keys() | other.counts.keys()
                if first.counts.get(key) != other.counts.get(key)
            }
            raise CorrectnessError(f"counts differ between rounds: {diff}")


def _stat(values: list[float], unit: str, samples: int | None = None) -> dict:
    q1, median, q3 = quartiles(values)
    return {
        "value": median,
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "samples": samples if samples is not None else len(values),
    }


def _end_to_end(
    rounds: list[Round],
    setups: list[tuple[float, float]],
    peak_rss_mb: float,
    scaled: bool,
) -> dict:
    units = {name: unit for name, unit, _better, _bound in metrics.END_TO_END}
    samples = sum(len(r.latencies_ms) for r in rounds)

    def factor(speed: float) -> float:
        return speed if scaled else 1.0

    def latency(q: float, unit: str) -> dict:
        # A percentile per round, then the median over rounds: a burst of
        # outside load that slows a minority of rounds moves neither,
        # where it would move the tail of the pooled samples.
        return _stat(
            [
                percentile(sorted(r.latencies_ms), q) * factor(r.speed)
                for r in rounds
            ],
            unit,
            samples,
        )

    return {
        "ops_per_s": _stat(
            [r.ok / (r.window_s * factor(r.speed)) for r in rounds],
            units["ops_per_s"],
        ),
        "op_p50_ms": latency(0.50, units["op_p50_ms"]),
        "op_p90_ms": latency(0.90, units["op_p90_ms"]),
        "peak_rss_mb": _stat([peak_rss_mb], units["peak_rss_mb"]),
        "setup_s": _stat(
            [elapsed * factor(speed) for elapsed, speed in setups],
            units["setup_s"],
        ),
    }


def _per_layer(plain: list[Round], traced: list[Round]) -> dict:
    """Per-layer metrics from the traced rounds: counts as they are (they
    repeat exactly), times as medians over the traced rounds."""
    per_round = [_layer_values(r) for r in traced]
    first = per_round[0]
    for other in per_round[1:]:
        for name, value in first.items():
            if metrics.is_exact(name) and other[name] != value:
                raise CorrectnessError(
                    f"{name} differs between traced rounds:"
                    f" {value} != {other[name]}"
                )
    untraced = statistics.median(r.window_s * r.speed for r in plain)
    with_trace = statistics.median(r.window_s * r.speed for r in traced)
    out = {}
    for name, unit, _better in metrics.per_layer():
        if name == "harness.trace_overhead_frac":
            values = [(with_trace - untraced) / untraced]
        else:
            values = [values[name] for values in per_round]
        out[name] = _stat(values, unit)
    return out


def _layer_values(round_: Round) -> dict[str, float]:
    trace = round_.trace
    layers = trace.layers()
    counts = round_.counts
    ops = max(round_.ok, 1)
    values: dict[str, float] = {}
    for layer in metrics.SPAN_LAYERS:
        row = layers.get(layer, {"calls": 0, "self_s": 0.0})
        values[f"{layer}.calls"] = row["calls"]
        values[f"{layer}.self_s"] = row["self_s"]

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    # The benchmark's own time: its marked spans, plus whatever no span
    # covers (the event loop between callbacks, the round's bookkeeping).
    marked = layers.get("harness", {"self_s": 0.0})["self_s"]
    values.update({
        "bitcoin.wallet.utxos_scanned": trace.counters.get(
            "bitcoin.wallet.utxos_scanned", 0
        ),
        "service.memo_hit_ratio": ratio(
            counts.get("service.memo_hits", 0),
            counts.get("service.memo_misses", 0),
        ),
        "service.affirmation_hit_ratio": ratio(
            counts.get("service.affirmation_hits", 0),
            counts.get("service.affirmation_misses", 0),
        ),
        "service.shed": counts.get("service.shed", 0),
        "bitcoin.mempool.rejected": trace.errors.get("bitcoin.mempool", 0),
        "bitcoin.chain.reorgs": counts.get("bitcoin.chain.reorgs", 0),
        "bitcoin.codec.bytes": trace.counters.get("bitcoin.codec.bytes", 0),
        "bitcoin.network.tx_bytes_per_op": counts.get(
            "bitcoin.network.tx_bytes", 0
        ) / ops,
        "bitcoin.network.block_bytes_per_op": counts.get(
            "bitcoin.network.block_bytes", 0
        ) / ops,
        "bitcoin.network.msgs_per_op": trace.calls_by_target.get(
            "repro.bitcoin.network:Node.send_to", 0
        ) / ops,
        "bitcoin.miner.blocks": counts.get("bitcoin.miner.blocks", 0),
        "store.log_bytes": counts.get("store.log_bytes", 0),
        "harness.self_s": marked + round_.window_s - trace.top_level_s(),
        "harness.cpu_s": round_.cpu_s,
        "harness.sim_events": counts.get("harness.sim_events", 0),
        "harness.generator_late_sim_s": counts.get(
            "harness.generator_late_sim_s", 0.0
        ),
        "harness.trace_overhead_frac": 0.0,  # needs both kinds of round
        "harness.converge_sim_s": counts.get("harness.converge_sim_s", 0.0),
        "e2e.commit_sim_p50_s": counts.get("e2e.commit_sim_p50_s", 0.0),
        "e2e.commit_sim_p99_s": counts.get("e2e.commit_sim_p99_s", 0.0),
        "e2e.failed_frac": round_.failed / max(round_.attempted, 1),
    })
    return values
