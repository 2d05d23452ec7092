#!/usr/bin/env python3
"""The repository's benchmark: one command, every metric by name.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
        one workload in this process; the last line of output is the
        result as one JSON object (the contract BENCHMARK.json describes)
    python3 bench/run.py [--seed N] [--seconds S] [--trace 1] [--smoke]
        every workload, each in its own subprocess (so peak RSS is per
        workload), with a summary at the end
    python3 bench/run.py --aa
        the full set twice back to back; exits non-zero if any end-to-end
        median moved by more than its bound or any exact count differs

Exits non-zero, printing no result, when an output disagrees with its
oracle or when the program under test (``src/repro``) is missing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
sys.path[:0] = [str(ROOT), str(SRC_DIR)]

DEFAULT_SEED = 7
# Not for development: a claimed gain must also hold on this seed, which
# no change should have been tuned against (see README, "Seeds").
HELD_OUT_SEED = 20150613


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload in-process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small sizes")
    parser.add_argument("--aa", action="store_true", help="two sets, compared")
    parser.add_argument("--out", help="also write the full result here")
    args = parser.parse_args(argv)

    if not (SRC_DIR / "repro").is_dir():
        print(f"bench: no program to measure at {SRC_DIR}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else _run_seconds()
    if args.workload:
        return run_one(args)
    if args.aa:
        return run_aa(args)
    results = run_all(args)
    if results is None:
        return 1
    print_summary(results)
    return 0


def _out_dir() -> Path:
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    return out


def _run_seconds() -> float:
    with open(ROOT / "BENCHMARK.json") as fh:
        return float(json.load(fh)["run_seconds"])


# -- one workload, this process -------------------------------------------


def run_one(args) -> int:
    from bench.common import CorrectnessError
    from bench.harness import measure
    from bench.workloads import BY_NAME

    if args.workload not in BY_NAME:
        print(f"bench: unknown workload {args.workload!r};"
              f" have {sorted(BY_NAME)}", file=sys.stderr)
        return 2
    try:
        result = measure(
            BY_NAME[args.workload], args.seed, args.seconds,
            trace=bool(args.trace), smoke=args.smoke,
        )
    except CorrectnessError as exc:
        print(f"bench: {args.workload}: INCORRECT: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
    print_result(result)
    shown = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": stat["value"], "unit": stat["unit"]}
            for name, stat in shown.items()
        },
    }))
    return 0


def print_result(result: dict) -> None:
    env = result["environment"]
    print(f"# {result['workload']}  seed {result['seed']}  sizes"
          f" {result['sizes']}  python {env['python']}  nproc {env['nproc']}"
          f"  git {env['git_sha'][:12]}")
    print(f"# op: {result['op']}")
    for name, digest in result["input_digests"].items():
        print(f"# input {name}: {digest}")
    print(f"# output digest: {result['output_digest']}")
    noisy = sum(r["noisy"] for r in result["rounds"])
    print(f"# {len(result['rounds'])} rounds ({noisy} noisy),"
          f" {result['attempted']} ops attempted, {result['failed']} failed")
    for group in ("end_to_end", "per_layer"):
        for name, stat in result.get(group, {}).items():
            line = (f"{name:38s} {stat['value']:>14.6g} {stat['unit']:<9s}"
                    f" q1 {stat['q1']:.6g}  q3 {stat['q3']:.6g}"
                    f"  n={stat['samples']}")
            if group == "end_to_end":
                # as the clock read it, before scaling to the reference
                line += f"  (unscaled {result['raw'][name]['value']:.6g})"
            print(line)


# -- every workload, one subprocess each ----------------------------------


def run_all(args) -> dict[str, dict] | None:
    from bench.workloads import WORKLOADS

    results = {}
    with tempfile.TemporaryDirectory(dir=_out_dir()) as tmp:
        for workload in WORKLOADS:
            out = Path(tmp) / f"{workload.name}.json"
            command = [
                sys.executable, str(BENCH_DIR / "run.py"),
                "--workload", workload.name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--out", str(out),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                print(f"bench: {workload.name} exited {done.returncode}",
                      file=sys.stderr)
                return None
            # The child's table, without its machine-readable last line.
            print(done.stdout.rsplit("\n", 2)[0])
            with open(out) as fh:
                results[workload.name] = json.load(fh)
    return results


def print_summary(results: dict[str, dict]) -> None:
    from bench import metrics

    print("\n== end to end (median over rounds) ==")
    names = [name for name, *_ in metrics.END_TO_END]
    print(f"{'workload':26s}" + "".join(f"{n:>14s}" for n in names)
          + f"{'failed':>10s}")
    for workload, result in results.items():
        row = "".join(
            f"{result['end_to_end'][n]['value']:>14.5g}" for n in names
        )
        print(f"{workload:26s}{row}"
              f"{result['failed']:>5d}/{result['attempted']}")
    if not all("per_layer" in r for r in results.values()):
        return
    print("\n== self time per layer, share of the traced window ==")
    print(f"{'layer':22s}" + "".join(f"{w[:14]:>15s}" for w in results))
    layers = metrics.SPAN_LAYERS + ["harness"]
    totals = {
        w: sum(r["per_layer"][f"{layer}.self_s"]["value"] for layer in layers)
        for w, r in results.items()
    }
    for layer in layers:
        row = "".join(
            f"{r['per_layer'][f'{layer}.self_s']['value'] / totals[w]:>15.1%}"
            for w, r in results.items()
        )
        print(f"{layer:22s}{row}")
    row = "".join(
        f"{r['per_layer']['harness.trace_overhead_frac']['value']:>15.1%}"
        for r in results.values()
    )
    print(f"{'(tracing overhead)':22s}{row}")


# -- A/A ------------------------------------------------------------------


def run_aa(args) -> int:
    from bench import metrics

    args.trace = 1  # the exact counts come from the traced rounds
    args.seconds *= 2  # so the untraced half is a full-length run
    first = run_all(args)
    second = run_all(args) if first is not None else None
    if first is None or second is None:
        return 1
    print_summary(first)
    failures = 0
    print("\n== A/A: two runs of the same code ==")
    print(f"{'workload':24s}{'metric':14s}{'first':>12s}{'second':>12s}"
          f"{'worse by':>10s}{'bound':>8s}")
    for workload in first:
        for name, _unit, better, bound in metrics.END_TO_END:
            a = first[workload]["end_to_end"][name]["value"]
            b = second[workload]["end_to_end"][name]["value"]
            worse = (b - a) / a if better == "lower" else (a - b) / a
            verdict = "" if abs(worse) <= bound else "  EXCEEDS"
            failures += bool(verdict)
            print(f"{workload:24s}{name:14s}{a:>12.5g}{b:>12.5g}"
                  f"{worse:>+10.1%}{bound:>8.0%}{verdict}")
        for name, _unit, _better in metrics.per_layer():
            if not metrics.is_exact(name):
                continue
            a = first[workload]["per_layer"][name]["value"]
            b = second[workload]["per_layer"][name]["value"]
            if a != b:
                failures += 1
                print(f"{workload:24s}{name}: exact count differs: {a} != {b}")
        if first[workload]["output_digest"] != second[workload]["output_digest"]:
            failures += 1
            print(f"{workload:24s}output digests differ")
    print(f"A/A: {failures} disagreement(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
