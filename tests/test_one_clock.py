"""How long something took is measured in one place, outside the program.

``bench/`` times every layer from outside ``src/`` (``docs/profiling.md``);
``repro.obs`` records what happened — counters, gauges, events — and its
clock only stamps event ``ts``.  So the span tracer, the Chrome-trace
exporter and the flight recorder do not import, no wrapper that existed
to open a span is spelt in ``src/``, and nothing outside ``repro.obs``
reads the obs clock.

The paper suite gates on work too.  ``benchmarks/runner.py`` is the only
way an experiment runs: each ``bench_*`` function takes no parameter and
no ``bench_*.py`` has a ``__main__`` block, the pytest-benchmark stand-in
that drove them is spelt nowhere, and no ``assert`` in an experiment
reads a value derived from a clock — a wall time may be printed, never
gated on.
"""

import ast
import importlib
from pathlib import Path

import pytest

from tests.guards import ROOT, SRC, sources, spelt, words

OBS = SRC / "obs"
EXPERIMENTS = sorted((ROOT / "benchmarks").glob("bench_*.py"))
RETIRED = (
    "trace_span", "set_tracer", "render_trace", "_apply_block_txs_inner",
    "_undo_block_inner", "_connect_inner", "_assemble_inner", "_recover_inner",
)
RETIRED_STAND_IN = (
    r"\bStubBenchmark\b", r"\bStubStats\b", r"\brun_standalone\b",
    r"\.pedantic\(", r"\bextra_info\b", r"\bpytest_benchmark\b",
    r"--benchmark-only",
)
CLOCKS = {"perf_counter", "time", "monotonic"}


@pytest.mark.parametrize("module", ["trace", "export", "flight"])
def test_retired_obs_module_does_not_import(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(f"repro.obs.{module}")


def test_no_retired_name_is_spelt_in_src():
    assert spelt(words(RETIRED), sources()) == []


def test_only_obs_reads_the_obs_clock():
    outside = [p for p in sources() if OBS not in p.parents]
    assert spelt(r"\bobs\.clock\b", outside) == []


def clock_tainted_asserts(source: str) -> list[int]:
    """Lines of the ``assert`` statements that read a clock.

    A name is tainted when a value that calls a clock, or names a tainted
    name, is assigned to it (``x = …``, ``x[k] = …``, ``x += …``,
    ``for x in …``), passed to one of its methods (``x.append(…)``), or
    returned by it (a function).  So the taint flows through dict values,
    containers and returns, and through a function handed to another.
    Names are not scoped: a name tainted anywhere in the module is tainted
    everywhere, which errs towards flagging.
    """
    tree = ast.parse(source)
    tainted: set[str] = set()

    def reads_clock(node) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in tainted:
                return True
            if isinstance(sub, ast.Call):
                func = sub.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(
                    func, "id", None
                )
                if name in CLOCKS:
                    return True
        return False

    def base_names(target) -> set[str]:
        while isinstance(target, (ast.Subscript, ast.Attribute, ast.Starred)):
            target = target.value
        if isinstance(target, ast.Name):
            return {target.id}
        if isinstance(target, (ast.Tuple, ast.List)):
            return set().union(*map(base_names, target.elts))
        return set()

    def flows(node) -> list[tuple[list, list]]:
        """``(targets, values)``: a tainted value taints the targets."""
        if isinstance(node, ast.Assign):
            return [(node.targets, [node.value])]
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)) and node.value:
            return [([node.target], [node.value])]
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            return [([node.target], [node.iter])]
        if isinstance(node, ast.NamedExpr):
            return [([node.target], [node.value])]
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            args = [*node.args, *(keyword.value for keyword in node.keywords)]
            return [([node.func.value], args)]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            returns = [
                sub.value for sub in ast.walk(node)
                if isinstance(sub, ast.Return) and sub.value is not None
            ]
            return [([ast.Name(id=node.name)], returns)]
        return []

    grew = True
    while grew:
        grew = False
        for node in ast.walk(tree):
            for targets, values in flows(node):
                if any(reads_clock(value) for value in values):
                    names = set().union(*map(base_names, targets)) - tainted
                    tainted |= names
                    grew |= bool(names)
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert) and reads_clock(node)
    )


def test_no_experiment_asserts_on_a_clock():
    flagged = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in EXPERIMENTS
        for line in clock_tainted_asserts(path.read_text())
    ]
    assert flagged == []


@pytest.mark.parametrize("source, lines", [
    ("import time\nt = time.perf_counter()\nassert t > 0\n", [3]),
    ("import time\n"
     "def run():\n"
     "    start = time.perf_counter()\n"
     "    return {'seconds': time.perf_counter() - start, 'n': 3}\n"
     "rows = []\n"
     "rows.append(run())\n"
     "assert rows[0]['n'] == 3\n", [7]),
    ("def measure():\n"
     "    return {1: time.monotonic()}\n"
     "timings = stub.pedantic(measure, rounds=3)\n"
     "for depth, t in timings.items():\n"
     "    assert t < 1\n", [5]),
    ("import time\n"
     "start = time.perf_counter()\n"
     "count = work()\n"
     "elapsed = time.perf_counter() - start\n"
     "print(count / elapsed)\n"
     "assert count == 4\n", []),
])
def test_the_clock_taint_follows_values_not_statements(source, lines):
    assert clock_tainted_asserts(source) == lines


def test_the_retired_pytest_benchmark_stand_in_is_spelt_nowhere():
    paths = [ROOT / "README.md"] + [
        path
        for top in ("benchmarks", "tests", "scripts", "docs")
        for path in sorted((ROOT / top).rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
        and path != Path(__file__)
    ]
    assert spelt("|".join(RETIRED_STAND_IN), paths) == []


def test_an_experiment_runs_only_under_the_runner():
    found = []
    for path in EXPERIMENTS:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("bench_"):
                args = node.args
                if any([args.posonlyargs, args.args, args.vararg,
                        args.kwonlyargs, args.kwarg]):
                    found.append(f"{path.name}: {node.name} takes a parameter")
            if isinstance(node, ast.If) and "__main__" in ast.unparse(node.test):
                found.append(f"{path.name}: a __main__ block")
    assert found == []
