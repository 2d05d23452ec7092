"""A dependency-free metrics registry: counters, gauges, histograms.

The registry is the storage half of :mod:`repro.obs`.  It knows nothing
about being enabled or disabled — call sites guard on ``obs.ENABLED`` and
only reach the registry when observability is on, so a disabled run never
allocates a series.  Snapshots are plain JSON-able dicts with sorted keys,
so two identical runs (under a fake clock) produce identical snapshots.

Series names are dotted (``script.ops_total``); an optional label set
produces an additional ``name{key="value"}`` series next to the unlabeled
aggregate, mirroring how Prometheus clients model label dimensions.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

# Default buckets are simulated seconds, for block propagation: a hop
# takes 2 s on average, a 50-node swarm's p99 is about 20 s, and the top
# finite edge is twice the 600 s block interval, so nothing a swarm
# relays within a block interval lands in the overflow bucket.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.5, 10.0, 15.0, 20.0, 30.0,
    45.0, 60.0, 90.0, 120.0, 180.0, 300.0, 600.0, 1200.0,
)

# Buckets for small-integer distributions (reorg depth, bundle size).
COUNT_BUCKETS: tuple[float, ...] = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89)

# Quantiles attached to histogram snapshots.
SNAPSHOT_QUANTILES: tuple[float, ...] = (0.5, 0.95, 0.99)


def quantile_from_cumulative(
    q: float, pairs: list[tuple[float | str, int]] | list[list]
) -> float:
    """Estimate the ``q``-quantile from cumulative ``(edge, count)`` pairs.

    ``pairs`` is the :meth:`Histogram.cumulative` shape — ascending finite
    edges followed by a final ``("+Inf", total)`` overflow entry — either
    live or round-tripped through JSON.  Linear interpolation within the
    bucket, Prometheus ``histogram_quantile`` style: observations are
    taken as spread evenly within their bucket, so the estimate is exact
    at bucket edges and never off by more than one bucket width.  An empty
    histogram yields 0.0, and a quantile landing in the overflow bucket is
    clamped to the highest finite edge — widen the buckets if a quantile
    reads exactly that edge.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not pairs:
        # A bucketless histogram (hand-built snapshot, truncated JSON) has
        # no quantiles; treat it like an empty one.
        return 0.0
    total = pairs[-1][1]
    if total == 0:
        return 0.0
    rank = q * total
    prev_edge = 0.0
    prev_cum = 0
    for edge, cum in pairs:
        if isinstance(edge, str):  # the "+Inf" overflow bucket
            return float(prev_edge)
        if cum >= rank:
            in_bucket = cum - prev_cum
            if in_bucket == 0:
                return float(edge)
            fraction = (rank - prev_cum) / in_bucket
            return prev_edge + (float(edge) - prev_edge) * fraction
        prev_edge, prev_cum = float(edge), cum
    return float(prev_edge)


@dataclass
class Counter:
    """A monotonically increasing count."""

    value: int = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


@dataclass
class Gauge:
    """A value that can move in either direction (set or high-water max)."""

    value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        if value > self.value:
            self.value = value


@dataclass
class Histogram:
    """A fixed-bucket histogram with sum and count.

    ``counts[i]`` holds observations with ``value <= buckets[i]`` (and
    greater than the previous edge); ``counts[-1]`` is the overflow bucket.
    Cumulative ``le`` counts are produced at render time.
    """

    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError("histogram buckets must be sorted")
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def cumulative(self) -> list[tuple[float | str, int]]:
        """(upper-edge, cumulative-count) pairs, ending with ``+Inf``."""
        out: list[tuple[float | str, int]] = []
        running = 0
        for edge, bucket_count in zip(self.buckets, self.counts):
            running += bucket_count
            out.append((edge, running))
        out.append(("+Inf", running + self.counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Interpolated ``q``-quantile estimate from the bucket counts."""
        return quantile_from_cumulative(q, self.cumulative())


def escape_label_value(value: object) -> str:
    """Escape a label value per the Prometheus text-format rules.

    Backslash, double-quote, and newline are the three characters the
    exposition format requires escaping inside ``key="value"`` — a raw
    one of any would produce an unparseable series name.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def series_name(name: str, labels: dict[str, object]) -> str:
    """``name{key="value",...}`` with keys sorted for determinism and
    values escaped per the Prometheus text-format rules."""
    if not labels:
        return name
    inner = ",".join(
        f'{k}="{escape_label_value(labels[k])}"' for k in sorted(labels)
    )
    return f"{name}{{{inner}}}"


class Registry:
    """A named collection of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

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

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        found = self._histograms.get(name)
        if found is None:
            found = self._histograms[name] = Histogram(buckets=buckets)
        return found

    # -- recording helpers (one call per instrumentation site) ----------

    def inc(self, name: str, amount: int = 1, **labels: object) -> None:
        # Inlined counter() + Counter.inc(): this is the hottest call in
        # an instrumented simulation, and the two extra frames showed up.
        found = self._counters.get(name)
        if found is None:
            found = self._counters[name] = Counter()
        if amount < 0:
            raise ValueError("counters only go up")
        found.value += amount
        if labels:
            self.counter(series_name(name, labels)).inc(amount)

    def gauge_set(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def gauge_max(self, name: str, value: float) -> None:
        self.gauge(name).set_max(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> None:
        found = self._histograms.get(name)  # inlined, as in inc()
        if found is None:
            found = self._histograms[name] = Histogram(buckets=buckets)
        found.counts[bisect.bisect_left(found.buckets, value)] += 1
        found.total += value
        found.count += 1
        if labels:
            self.histogram(series_name(name, labels), buckets).observe(value)

    # -- export ---------------------------------------------------------

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

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
            "histograms": {
                name: self._histogram_snapshot(hist)
                for name, hist in sorted(self._histograms.items())
            },
        }

    @staticmethod
    def _histogram_snapshot(hist: Histogram) -> dict:
        cumulative = hist.cumulative()
        snap = {
            "count": hist.count,
            "sum": hist.total,
            "mean": hist.mean,
            "buckets": [[edge, cum] for edge, cum in cumulative],
        }
        for q in SNAPSHOT_QUANTILES:
            snap[f"p{round(q * 100)}"] = quantile_from_cumulative(q, cumulative)
        return snap
