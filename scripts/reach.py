#!/usr/bin/env python3
"""Every function under ``src/repro`` has a reader that is not a test.

Runs every entry point of the repository under a ``sitecustomize`` hook
that records each ``src/repro`` code object the first time it runs, then
compares what ran against an AST list of every function and method under
``src/repro`` (dunder methods left out).  The entry points:

- every ``examples/*.py`` and ``scripts/*_smoke.py``,
  ``benchmarks/runner.py`` (its spawned children included) and
  ``bench/run.py --smoke`` (its workload subprocesses included), each with
  ``REPRO_OBS`` off and on;
- one full-size ``bench/run.py --workload block-sync --seconds 1``, the
  only one that reaches the block-connect pool's forked workers.

The hook is a global trace function (``sys.settrace`` and
``threading.settrace``), which Python calls once per new frame and never
per line, since it returns ``None``.  Each process appends to a file of
its own; a forked child starts a new file and forgets what its parent
saw, so forked workers are counted too.

Every unreached function must be listed in ``scripts/reach_allow.txt``,
one ``module:qualname  reason`` a line, the reason one of:

- ``crash-path``: runs only when a node, a worker or a process dies, or
  when a store or journal it left behind is replayed;
- ``refusal``: rejects outside input that no honest entry point sends;
- ``fallback``: stands in for something the platform lacks;
- ``item N``: the open ROADMAP item that wires the function or deletes it.

The run fails on an unreached function that is not listed, and on a
listed function that has since been reached, so the list only shrinks.
``scripts/check.sh --bench`` runs it after the paper suite; a pass takes
about three minutes on two cores.

Usage::

    python scripts/reach.py
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALLOW_FILE = ROOT / "scripts" / "reach_allow.txt"

REASON = re.compile(r"crash-path|refusal|fallback|item (\d+)")


def entry_points() -> list[tuple[list[str], str]]:
    """``(argv, REPRO_OBS)`` for every run, in order."""
    commands = [
        [f"{p.parent.name}/{p.name}"]
        for pattern in ("examples/*.py", "scripts/*_smoke.py")
        for p in sorted(ROOT.glob(pattern))
    ]
    commands += [["benchmarks/runner.py"], ["bench/run.py", "--smoke"]]
    runs = [(argv, obs) for obs in ("0", "1") for argv in commands]
    runs.append((["bench/run.py", "--workload", "block-sync", "--seconds", "1"], "0"))
    return runs


HOOK = '''\
import os, sys, threading

_SRC = os.environ["REPRO_REACH_SRC"]
_DIR = os.environ["REPRO_REACH_DIR"]
_seen = set()
_out = None


def _open():
    global _out
    _out = open(os.path.join(_DIR, "%d.txt" % os.getpid()), "a", buffering=1)


def _after_fork():
    _seen.clear()
    _open()


def _trace(frame, event, arg):
    code = frame.f_code
    if code not in _seen:
        _seen.add(code)
        path = os.path.abspath(code.co_filename)
        if path.startswith(_SRC):
            _out.write(path + "\\t" + code.co_qualname + "\\n")


_open()
os.register_at_fork(after_in_child=_after_fork)
threading.settrace(_trace)
sys.settrace(_trace)
'''


# -- what exists ----------------------------------------------------------


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def functions_in(path: Path) -> dict[str, range]:
    """``{qualname: line span}`` of every non-dunder function in a file.

    Qualnames are spelt as ``code.co_qualname`` spells them, so a nested
    function is ``outer.<locals>.inner``.  The span runs from the first
    decorator to the last line of the body.
    """
    found: dict[str, range] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                if not _is_dunder(child.name):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    span = found.get(qualname, range(first, first))
                    found[qualname] = range(min(span.start, first), max(span.stop, child.end_lineno + 1))
                visit(child, f"{qualname}.<locals>.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(), str(path)), "")
    return found


def all_functions() -> dict[str, tuple[Path, range]]:
    """``{"module:qualname": (file, line span)}`` over ``src/repro``."""
    table = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = _module_name(path)
        for qualname, span in functions_in(path).items():
            table[f"{module}:{qualname}"] = (path, span)
    return table


def read_allow(text: str) -> dict[str, str]:
    """``{"module:qualname": reason}``; raises ``ValueError`` on a bad line."""
    allowed = {}
    for number, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        name, _, reason = line.partition(" ")
        reason = reason.strip()
        if ":" not in name or not REASON.fullmatch(reason):
            raise ValueError(f"reach_allow.txt:{number}: expected 'module:qualname  reason', got {line!r}")
        if name in allowed:
            raise ValueError(f"reach_allow.txt:{number}: {name} listed twice")
        allowed[name] = reason
    return allowed


# -- what ran -------------------------------------------------------------


def run_entry_points(out_dir: Path) -> set[str]:
    """Run every entry point under the hook; ``{"module:qualname"}`` that ran."""
    hook_dir = out_dir / "hook"
    record_dir = out_dir / "records"
    hook_dir.mkdir()
    record_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(HOOK)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(hook_dir), str(SRC)])
    env["REPRO_REACH_SRC"] = str(SRC / "repro") + os.sep
    env["REPRO_REACH_DIR"] = str(record_dir)
    for argv, obs in entry_points():
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env={**env, "REPRO_OBS": obs},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        label = " ".join(argv) + f"  REPRO_OBS={obs}"
        if done.returncode != 0:
            raise SystemExit(f"reach: {label} exited {done.returncode}\n{done.stderr}")
        print(f"  {time.perf_counter() - started:6.1f} s  {label}", flush=True)
    reached = set()
    for record in record_dir.iterdir():
        for line in record.read_text().splitlines():
            path, _, qualname = line.partition("\t")
            reached.add(f"{_module_name(Path(path))}:{qualname}")
    return reached


# -- the comparison -------------------------------------------------------


def compare(functions: set[str], reached: set[str], allowed: dict[str, str]) -> list[str]:
    """What is wrong, one line each; empty when the gate passes."""
    problems = []
    for name in sorted(functions - reached - allowed.keys()):
        problems.append(f"unreached and not listed: {name}")
    for name in sorted(allowed.keys() & reached):
        problems.append(f"listed but reached (drop the line): {name}")
    for name in sorted(allowed.keys() - functions):
        problems.append(f"listed but not a function under src/repro: {name}")
    return problems


def lines_by_reason(table: dict[str, tuple[Path, range]], allowed: dict[str, str]) -> dict[str, int]:
    """Distinct source lines the listed functions span, per reason."""
    lines: dict[str, set] = {}
    for name, reason in allowed.items():
        if name in table:
            path, span = table[name]
            lines.setdefault(reason, set()).update((path, n) for n in span)
    return {reason: len(lines[reason]) for reason in sorted(lines, key=_reason_order)}


def _reason_order(reason: str) -> tuple:
    """The named reasons first, then the items by number."""
    if reason.startswith("item"):
        return (1, int(reason.split()[1]), "")
    return (0, 0, reason)


def main() -> int:
    started = time.perf_counter()
    table = all_functions()
    allowed = read_allow(ALLOW_FILE.read_text())
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        reached = run_entry_points(Path(tmp))
    problems = compare(set(table), reached, allowed)
    unreached = set(table) - reached
    print(f"reach: {len(table)} functions under src/repro, {len(unreached)} unreached,"
          f" {len(allowed)} listed ({time.perf_counter() - started:.0f} s)")
    by_reason = lines_by_reason(table, allowed)
    for reason, count in by_reason.items():
        print(f"  {reason:>12}: {count} lines")
    items = sum(count for reason, count in by_reason.items() if reason.startswith("item"))
    print(f"  {'item N':>12}: {items} lines in all")
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
