"""Registry unit tests: counters, gauges, histogram bucket edges,
quantile estimation, snapshot determinism, and label escaping."""

import json

import pytest

from repro import obs
from repro.obs.metrics import (
    Histogram,
    Registry,
    quantile_from_cumulative,
    series_name,
)

pytestmark = pytest.mark.obs


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        reg = Registry()
        reg.inc("a.total")
        reg.inc("a.total", 4)
        assert reg.counter("a.total").value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Registry().inc("a.total", -1)

    def test_gauge_set_and_max(self):
        reg = Registry()
        reg.gauge_set("g", 10)
        reg.gauge_set("g", 3)
        assert reg.gauge("g").value == 3
        reg.gauge_max("g", 2)
        assert reg.gauge("g").value == 3
        reg.gauge_max("g", 7)
        assert reg.gauge("g").value == 7

    def test_labeled_counter_keeps_aggregate(self):
        reg = Registry()
        reg.inc("v.total", 2, rule="scripts")
        reg.inc("v.total", 3, rule="structure")
        assert reg.counter("v.total").value == 5
        assert reg.counter('v.total{rule="scripts"}').value == 2

    def test_series_name_sorts_labels(self):
        assert series_name("m", {"b": 1, "a": 2}) == 'm{a="2",b="1"}'

    def test_series_name_escapes_label_values(self):
        # Prometheus text-format escaping: backslash, quote, newline.
        assert (
            series_name("m", {"reason": 'bad "input"'})
            == 'm{reason="bad \\"input\\""}'
        )
        assert series_name("m", {"p": "a\\b"}) == 'm{p="a\\\\b"}'
        assert series_name("m", {"r": "x\ny"}) == 'm{r="x\\ny"}'


class TestHistogramBuckets:
    def test_exact_edge_lands_in_its_bucket(self):
        hist = Histogram(buckets=(1.0, 2.0, 5.0))
        hist.observe(1.0)
        assert hist.counts == [1, 0, 0, 0]
        assert hist.cumulative() == [(1.0, 1), (2.0, 1), (5.0, 1), ("+Inf", 1)]

    def test_between_edges(self):
        hist = Histogram(buckets=(1.0, 2.0, 5.0))
        hist.observe(1.5)
        assert hist.counts == [0, 1, 0, 0]

    def test_overflow_bucket(self):
        hist = Histogram(buckets=(1.0, 2.0, 5.0))
        hist.observe(100.0)
        assert hist.counts == [0, 0, 0, 1]
        assert hist.cumulative()[-1] == ("+Inf", 1)

    def test_sum_count_mean(self):
        hist = Histogram(buckets=(1.0,))
        for value in (0.5, 1.5, 4.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 6.0
        assert hist.mean == 2.0

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))


class TestSnapshot:
    def _populate(self, reg):
        reg.inc("script.ops_total", 7)
        reg.gauge_set("utxo.set_size", 42)
        reg.observe("net.block_propagation_seconds", 0.003, (0.001, 0.01, 0.1))
        reg.observe("net.block_propagation_seconds", 0.2, (0.001, 0.01, 0.1))

    def test_snapshot_deterministic(self):
        first, second = Registry(), Registry()
        self._populate(first)
        self._populate(second)
        assert first.snapshot() == second.snapshot()

    def test_snapshot_json_serializable(self):
        reg = Registry()
        self._populate(reg)
        assert json.loads(json.dumps(reg.snapshot())) == reg.snapshot()

    def test_snapshot_under_fake_clock(self, manual_clock):
        """The full obs.snapshot() (metrics + events) is identical across
        two identical runs under a fake clock."""
        obs.enable()

        def run():
            obs.reset()
            manual_clock.now = 0.0
            manual_clock.advance(1.0)
            obs.inc("script.ops_total", 3)
            obs.emit("proof.checked", outcome="ok")
            return obs.snapshot()

        assert run() == run()

    def test_keys_sorted(self):
        reg = Registry()
        reg.inc("z.total")
        reg.inc("a.total")
        assert list(reg.snapshot()["counters"]) == ["a.total", "z.total"]


class TestCatalogue:
    def test_enable_preregisters_required_series(self):
        obs.enable()
        snap = obs.snapshot()
        for name in (
            "script.ops_total",
            "chain.reorg_total",
        ):
            assert name in snap["counters"]
        for name in ("chain.reorg_depth", "net.block_propagation_seconds"):
            assert name in snap["histograms"]
        assert "utxo.set_size" in snap["gauges"]


class TestQuantileFromCumulative:
    def test_empty_histogram_yields_zero(self):
        hist = Histogram(buckets=(1.0, 2.0))
        assert hist.quantile(0.5) == 0.0
        assert hist.quantile(0.99) == 0.0

    def test_known_uniform_distribution(self):
        # 100 observations uniformly counted in bucket (0, 10].
        pairs = [[10.0, 100], ["+Inf", 100]]
        # rank q*100 interpolated across (0, 10].
        assert quantile_from_cumulative(0.5, pairs) == pytest.approx(5.0)
        assert quantile_from_cumulative(0.95, pairs) == pytest.approx(9.5)
        assert quantile_from_cumulative(1.0, pairs) == pytest.approx(10.0)

    def test_multi_bucket_interpolation(self):
        # 10 obs <= 1, then 10 more in (1, 3].
        pairs = [[1.0, 10], [3.0, 20], ["+Inf", 20]]
        assert quantile_from_cumulative(0.5, pairs) == pytest.approx(1.0)
        assert quantile_from_cumulative(0.75, pairs) == pytest.approx(2.0)

    def test_quantile_in_overflow_clamps_to_last_finite_edge(self):
        # Everything landed beyond the last finite edge.
        pairs = [[1.0, 0], [2.0, 0], ["+Inf", 50]]
        assert quantile_from_cumulative(0.5, pairs) == 2.0
        assert quantile_from_cumulative(0.99, pairs) == 2.0

    def test_empty_intermediate_buckets_skipped(self):
        pairs = [[1.0, 4], [2.0, 4], [3.0, 4], [4.0, 8], ["+Inf", 8]]
        # p50 sits exactly at the cumulative boundary of the first bucket.
        assert quantile_from_cumulative(0.5, pairs) == pytest.approx(1.0)
        # p75 is in the (3, 4] bucket, halfway through its 4 observations.
        assert quantile_from_cumulative(0.75, pairs) == pytest.approx(3.5)

    def test_exact_observations_match_histogram(self):
        hist = Histogram(buckets=(0.001, 0.01, 0.1, 1.0))
        for value in [0.005] * 90 + [0.5] * 10:
            hist.observe(value)
        # p50 within (0.001, 0.01]; p95 within (0.1, 1.0].
        assert 0.001 < hist.quantile(0.5) <= 0.01
        assert 0.1 < hist.quantile(0.95) <= 1.0

    def test_out_of_range_quantile_rejected(self):
        with pytest.raises(ValueError):
            quantile_from_cumulative(1.5, [[1.0, 1], ["+Inf", 1]])

    def test_snapshot_includes_quantiles_and_round_trips(self):
        registry = Registry()
        for value in (0.002, 0.003, 0.2):
            registry.observe("x.seconds", value)
        snap = registry.snapshot()["histograms"]["x.seconds"]
        for key in ("p50", "p95", "p99"):
            assert key in snap
        # Identical estimates from the saved-JSON shape.
        reloaded = json.loads(json.dumps(snap))
        for q, key in ((0.5, "p50"), (0.99, "p99")):
            assert quantile_from_cumulative(q, reloaded["buckets"]) == snap[key]


class TestDegenerateHistograms:
    """Hand-built or truncated snapshots must render, not crash."""

    def test_empty_pairs_yield_zero(self):
        assert quantile_from_cumulative(0.5, []) == 0.0
        assert quantile_from_cumulative(0.99, []) == 0.0

    def test_single_bucket_all_mass(self):
        # Only an overflow bucket: clamp to 0.0 (no finite edge exists).
        assert quantile_from_cumulative(0.5, [["+Inf", 7]]) == 0.0
        # One finite bucket holding everything interpolates within it.
        assert quantile_from_cumulative(
            0.5, [[2.0, 10], ["+Inf", 10]]
        ) == pytest.approx(1.0)

    def test_render_report_tolerates_fieldless_histograms(self):
        from repro.obs.report import render_report

        snap = {
            "histograms": {
                "truncated.seconds": {},           # nothing at all
                "partial.seconds": {"count": 3},   # no sum/mean/quantiles
                "single.seconds": {"count": 1, "sum": 0.5, "mean": 0.5,
                                   "p50": 0.5},    # p95/p99 missing
            },
        }
        text = render_report(snap, title="degenerate")
        assert "truncated.seconds" in text
        assert "partial.seconds" in text
        # Missing quantiles render as placeholders, never KeyError.
        assert "-" in text
