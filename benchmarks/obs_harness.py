"""What an experiment reads of the obs counters.

``benchmarks/runner.py`` runs every experiment with observability on, so
an experiment states its claim as work — how much named counters grew
across one call — and never as a wall time (docs/benchmarking.md).
"""

from __future__ import annotations

from repro import obs


def counted(names, fn, *args):
    """``fn(*args)``, and how much each counter in ``names`` grew across it."""
    if not obs.ENABLED:
        raise RuntimeError("run the experiment with benchmarks/runner.py")
    registry = obs.registry()
    before = [registry.counter(name).value for name in names]
    result = fn(*args)
    return result, {
        name: registry.counter(name).value - count
        for name, count in zip(names, before)
    }
