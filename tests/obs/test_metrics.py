"""Registry unit tests: counters, gauges, histogram bucket edges,
snapshot determinism, and the Prometheus text exposition."""

import json

import pytest

from repro import obs
from repro.obs.metrics import Histogram, Registry, series_name

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
        reg.observe("proof.check_seconds", 0.003, (0.001, 0.01, 0.1))
        reg.observe("proof.check_seconds", 0.2, (0.001, 0.01, 0.1))

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
        """The full obs.snapshot() (metrics + spans) is identical across
        two identical runs under a fake clock."""
        obs.enable()

        def run():
            obs.reset()
            manual_clock.now = 0.0
            with obs.trace_span("outer", metric="outer.seconds"):
                manual_clock.advance(1.0)
                obs.inc("script.ops_total", 3)
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
        for name in (
            "validation.rule_seconds",
            "proof.check_seconds",
            "net.block_propagation_seconds",
        ):
            assert name in snap["histograms"]
        assert "utxo.set_size" in snap["gauges"]
