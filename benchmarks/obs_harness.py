"""Standalone runner so ``python benchmarks/bench_*.py`` works directly.

The benchmarks are written against the pytest-benchmark fixture API.  This
module provides a minimal stand-in (``pedantic``, call syntax,
``extra_info``, pytest-benchmark-shaped ``stats``) plus the conftest
fixtures a few benchmarks take (``net``/``ledger``/``bank``/``alice``),
and a driver that honours ``REPRO_OBS=1``: with observability on, each
benchmark prints the :mod:`repro.obs.report` breakdown of its counters
next to its headline output::

    PYTHONPATH=src REPRO_OBS=1 python benchmarks/bench_e6_verifier_scaling.py

Set ``REPRO_OBS_EVENTS=<path>`` to also dump a JSONL event log of the
last benchmark run.  ``benchmarks/runner.py`` drives the same machinery
over every experiment and gates on the obs counters.
"""

from __future__ import annotations

import inspect
import math
import os
import time

from repro import obs
from repro.obs.report import render_report


class StubStats:
    """Timing stats in the shape pytest-benchmark reports.

    pytest-benchmark's ``benchmark.stats`` supports both attribute and
    item access (``stats.mean`` / ``stats["mean"]``); this mirrors the
    fields the benchmarks consume, computed from the raw per-round
    timings.
    """

    FIELDS = ("min", "max", "mean", "median", "stddev", "rounds", "total", "ops")

    def __init__(self, timings: list[float]):
        self._timings = timings

    # list-compatibility: older call sites appended to ``benchmark.stats``.
    def append(self, value: float) -> None:
        self._timings.append(value)

    @property
    def rounds(self) -> int:
        return len(self._timings)

    @property
    def total(self) -> float:
        return sum(self._timings)

    @property
    def min(self) -> float:
        return min(self._timings) if self._timings else 0.0

    @property
    def max(self) -> float:
        return max(self._timings) if self._timings else 0.0

    @property
    def mean(self) -> float:
        return self.total / len(self._timings) if self._timings else 0.0

    @property
    def median(self) -> float:
        if not self._timings:
            return 0.0
        ordered = sorted(self._timings)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2

    @property
    def stddev(self) -> float:
        if len(self._timings) < 2:
            return 0.0
        mean = self.mean
        var = sum((t - mean) ** 2 for t in self._timings) / (len(self._timings) - 1)
        return math.sqrt(var)

    @property
    def ops(self) -> float:
        mean = self.mean
        return 1.0 / mean if mean else 0.0

    def __getitem__(self, key: str):
        if key not in self.FIELDS:
            raise KeyError(key)
        return getattr(self, key)

    def as_dict(self) -> dict:
        return {field: getattr(self, field) for field in self.FIELDS}


class StubBenchmark:
    """Just enough of pytest-benchmark's fixture for standalone runs.

    ``max_rounds`` clamps every ``pedantic(rounds=...)`` request —
    ``runner.py`` sets it to 1, so an experiment's work counts do not
    depend on how many rounds its timing asked for.
    """

    def __init__(self, max_rounds: int | None = None) -> None:
        self.extra_info: dict = {}
        self.max_rounds = max_rounds
        self._timings: list[float] = []
        self.stats = StubStats(self._timings)

    def __call__(self, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self._timings.append(time.perf_counter() - start)
        return result

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1,
                 warmup_rounds=0, setup=None):
        kwargs = kwargs or {}
        rounds = max(1, rounds)
        if self.max_rounds is not None:
            rounds = min(rounds, self.max_rounds)
        result = None
        for _ in range(rounds):
            call_args = args
            if setup is not None:
                prepared = setup()
                if prepared is not None:
                    call_args, kwargs = prepared
            for _ in range(max(1, iterations)):
                start = time.perf_counter()
                result = fn(*call_args, **kwargs)
                self._timings.append(time.perf_counter() - start)
        return result


def build_fixtures(names) -> dict:
    """Construct the conftest fixtures a benchmark's signature asks for.

    Mirrors ``benchmarks/conftest.py``: ``net`` and ``ledger`` are shared
    instances, ``bank``/``alice`` are funded Typecoin clients on them.
    """
    from repro.bitcoin.regtest import RegtestNetwork
    from repro.core.validate import Ledger
    from repro.core.wallet import TypecoinClient

    cache: dict = {}

    def get(name: str):
        if name in cache:
            return cache[name]
        if name == "net":
            value = RegtestNetwork()
        elif name == "ledger":
            value = Ledger()
        elif name in ("bank", "alice"):
            client = TypecoinClient(
                get("net"), b"bench-" + name.encode(), get("ledger")
            )
            get("net").fund_wallet(client.wallet, blocks=4)
            value = client
        else:
            raise ValueError(f"no standalone fixture named {name!r}")
        cache[name] = value
        return value

    return {name: get(name) for name in names}


def run_bench(bench, benchmark: StubBenchmark) -> object:
    """Call one bench function, injecting any conftest fixtures it takes."""
    params = list(inspect.signature(bench).parameters)
    fixtures = build_fixtures(name for name in params if name != "benchmark")
    fixtures["benchmark"] = benchmark
    return bench(**{name: fixtures[name] for name in params})


def run_standalone(*benches) -> None:
    """Run benchmark functions outside pytest, with optional observability."""
    if os.environ.get("REPRO_OBS", "") not in ("", "0"):
        obs.enable()
    events_path = os.environ.get("REPRO_OBS_EVENTS")
    for bench in benches:
        if obs.ENABLED:
            obs.reset()
        stub = StubBenchmark()
        print(f"== {bench.__name__} ==")
        run_bench(bench, stub)
        if obs.ENABLED:
            print()
            print(render_report(obs.snapshot(), title=bench.__name__))
            if events_path:
                count = obs.events().write_jsonl(events_path)
                print(f"event log ({count} events) -> {events_path}")
        print()
