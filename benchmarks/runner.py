"""Run the paper experiments and gate them on exact work counts.

Each ``benchmarks/bench_*.py`` experiment runs once (every benchmark
clamped to one round) with observability on, in a process of its own, so
the process-wide caches (the ``k·G`` comb, the ``Point.decode`` memo, the
per-key tables, the default sigcache) start cold and ``--only X`` reads
for X exactly what the full run reads.  The run fails when an in-bench
assert fails, or when any obs counter of any experiment differs from
``benchmarks/counters.json`` (``{experiment: {series: count}}``, non-zero
entries only; an absent series is expected to read 0).  Counts are a
property of the code, so the comparison has no tolerance; wall times are
printed by the experiments' own tables and gate nothing — speed is
``bench/run.py``'s job (docs/benchmarking.md).

Usage::

    python benchmarks/runner.py                # every experiment
    python benchmarks/runner.py --only e6      # substring filter, repeatable
    python benchmarks/runner.py --record       # rewrite counters.json

``--record`` is the right answer when a change moves work on purpose: the
diff of ``counters.json`` then shows the reviewer which work moved.
"""

from __future__ import annotations

import argparse
import importlib
import json
import multiprocessing
import os
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
for path in (os.path.join(REPO_ROOT, "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro import obs  # noqa: E402

from obs_harness import StubBenchmark, run_bench  # noqa: E402

COUNTERS_FILE = "counters.json"


def discover_experiments(only: list[str] | None = None) -> list[str]:
    """Sorted ``bench_*.py`` module names, optionally substring-filtered."""
    names = sorted(
        entry[:-3]
        for entry in os.listdir(BENCH_DIR)
        if entry.startswith("bench_") and entry.endswith(".py")
    )
    if only:
        names = [n for n in names if any(pattern in n for pattern in only)]
    return names


def experiment_key(module_name: str) -> str:
    return module_name.removeprefix("bench_")


def bench_functions(module) -> list:
    """The module's ``bench_*`` callables, in definition order."""
    functions = [
        obj
        for name, obj in vars(module).items()
        if name.startswith("bench_") and callable(obj)
    ]
    functions.sort(key=lambda fn: fn.__code__.co_firstlineno)
    return functions


def run_experiment(module_name: str) -> dict:
    """Run one experiment module in this process.

    Returns ``{"ok", "errors", "counters"}``: a bench that raises (an
    in-bench assert included) or a module that does not import makes
    ``ok`` false and lands its traceback in ``errors``; the remaining
    benches of the module still run.  ``counters`` holds the non-zero obs
    counters of the whole experiment.
    """
    obs.enable()
    result: dict = {"ok": True, "errors": [], "counters": {}}
    try:
        module = importlib.import_module(module_name)
    except Exception:
        result["ok"] = False
        result["errors"].append(traceback.format_exc(limit=3))
        return result
    obs.reset()
    for bench in bench_functions(module):
        try:
            run_bench(bench, StubBenchmark(max_rounds=1))
        except Exception:
            result["ok"] = False
            result["errors"].append(
                f"{bench.__name__}: {traceback.format_exc(limit=3)}"
            )
    result["counters"] = {
        series: count
        for series, count in obs.snapshot()["counters"].items()
        if count
    }
    return result


def _child(module_name: str, conn) -> None:
    conn.send(run_experiment(module_name))


def run_isolated(module_name: str) -> dict:
    """:func:`run_experiment` in a fresh interpreter of its own."""
    ctx = multiprocessing.get_context("spawn")
    receiver, sender = ctx.Pipe(duplex=False)
    process = ctx.Process(target=_child, args=(module_name, sender))
    process.start()
    sender.close()
    try:
        result = receiver.recv()
    except EOFError:  # the child died before it could answer
        result = None
    process.join()
    return result or {"ok": False, "counters": {}, "errors": [
        f"process exited {process.exitcode} without a result"
    ]}


def diff_counters(expected: dict, got: dict) -> list[str]:
    """One line per difference between two ``{experiment: {series: count}}``.

    A series absent from one side reads 0 there; an experiment absent
    from either side is itself a difference.
    """
    lines = []
    for key in sorted(expected.keys() | got.keys()):
        if key not in got:
            lines.append(f"{key}: in {COUNTERS_FILE} but did not run")
            continue
        if key not in expected:
            lines.append(f"{key}: ran but is not in {COUNTERS_FILE}")
            continue
        want, have = expected[key], got[key]
        for series in sorted(want.keys() | have.keys()):
            if want.get(series, 0) != have.get(series, 0):
                lines.append(
                    f"{key}: {series} expected {want.get(series, 0)}"
                    f" got {have.get(series, 0)}"
                )
    return lines


def counters_path() -> str:
    return os.path.join(BENCH_DIR, COUNTERS_FILE)


def load_counters() -> dict:
    with open(counters_path(), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--only", action="append", default=None,
                        help="substring filter on experiment names (repeatable)")
    parser.add_argument("--record", action="store_true",
                        help=f"rewrite {COUNTERS_FILE} from this run")
    args = parser.parse_args(argv)

    names = discover_experiments(args.only)
    got, failed = {}, []
    for index, module_name in enumerate(names, 1):
        key = experiment_key(module_name)
        print(f"[{index}/{len(names)}] {key} ...", flush=True)
        started = time.perf_counter()
        result = run_isolated(module_name)
        if result["ok"]:
            got[key] = result["counters"]
        else:
            failed.append(key)
            print("\n".join(result["errors"]), file=sys.stderr)
        status = "ok" if result["ok"] else "FAILED"
        print(f"    {status} in {time.perf_counter() - started:.1f}s", flush=True)
    if failed:
        print(f"\nFAILED experiments: {', '.join(failed)}", file=sys.stderr)

    # Under --only, the experiments left out keep their recorded entries
    # and are not compared; a full run answers for the whole file.
    if args.record:
        if failed:
            return 1
        kept = load_counters() if args.only else {}
        with open(counters_path(), "w", encoding="utf-8") as handle:
            json.dump({**kept, **got}, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"\nrecorded {len(got)} experiments in {counters_path()}")
        return 0
    recorded = load_counters()
    if args.only:
        recorded = {key: recorded[key] for key in got if key in recorded}
    for key in failed:  # already reported; its counts stopped part-way
        recorded.pop(key, None)
    differences = diff_counters(recorded, got)
    if differences:
        print(f"\n{len(differences)} counter differences from"
              f" {COUNTERS_FILE} (experiment: series expected got):",
              file=sys.stderr)
        print("\n".join(differences), file=sys.stderr)
    if failed or differences:
        return 1
    total = sum(len(counts) for counts in got.values())
    print(f"\nok: {len(got)} experiments, {total} non-zero counters,"
          f" all equal to {COUNTERS_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
