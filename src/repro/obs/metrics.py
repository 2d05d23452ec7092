"""A dependency-free metrics registry: counters and gauges.

The registry is the storage half of :mod:`repro.obs`.  It knows nothing
about being enabled or disabled — call sites guard on ``obs.ENABLED`` and
only reach the registry when observability is on, so a disabled run never
allocates a series.  Snapshots are plain JSON-able dicts with sorted keys,
so two identical runs (under a fake clock) produce identical snapshots.

Series names are plain dotted strings (``script.ops_total``).  A
distribution or a breakdown is not a series: the event log carries each
value (``chain.reorg``'s ``depth``, every ``relay.hop``'s ``sim_time``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Counter:
    """A monotonically increasing count (:meth:`Registry.inc` adds)."""

    value: int = 0


@dataclass
class Gauge:
    """A value that can move in either direction (set or high-water max)."""

    value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        if value > self.value:
            self.value = value


class Registry:
    """A named collection of counters and gauges."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}

    # -- series accessors (create on first use) -------------------------

    def counter(self, name: str) -> Counter:
        found = self._counters.get(name)
        if found is None:
            found = self._counters[name] = Counter()
        return found

    def gauge(self, name: str) -> Gauge:
        found = self._gauges.get(name)
        if found is None:
            found = self._gauges[name] = Gauge()
        return found

    # -- recording helpers (one call per instrumentation site) ----------

    def inc(self, name: str, amount: int = 1) -> None:
        # Inlined counter(): this is the hottest call in an instrumented
        # simulation, and the extra frame showed up.
        if amount < 0:
            raise ValueError("counters only go up")
        found = self._counters.get(name)
        if found is None:
            found = self._counters[name] = Counter()
        found.value += amount

    def gauge_set(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def gauge_max(self, name: str, value: float) -> None:
        self.gauge(name).set_max(value)

    # -- export ---------------------------------------------------------

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()

    def snapshot(self) -> dict:
        """A deterministic JSON-able view of every series."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
        }
