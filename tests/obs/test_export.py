"""Chrome trace export and histogram quantile estimation."""

import json

import pytest

from repro import obs
from repro.obs.export import (
    snapshot_quantiles,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import Histogram, quantile_from_cumulative

pytestmark = pytest.mark.obs


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
        registry = obs.Registry()
        for value in (0.002, 0.003, 0.2):
            registry.observe("x.seconds", value)
        snap = registry.snapshot()["histograms"]["x.seconds"]
        for key in ("p50", "p95", "p99"):
            assert key in snap
        # Identical estimates from the saved-JSON shape.
        reloaded = json.loads(json.dumps(snap))
        assert snapshot_quantiles(reloaded)["p50"] == snap["p50"]
        assert snapshot_quantiles(reloaded)["p99"] == snap["p99"]


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

    def test_snapshot_quantiles_tolerates_missing_buckets(self):
        for degenerate in ({}, {"buckets": []}, {"buckets": None},
                           {"count": 3, "sum": 1.5}):
            estimates = snapshot_quantiles(degenerate)
            assert estimates == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

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


class TestChromeTrace:
    def make_spans(self, manual_clock):
        obs.enable()
        obs.reset()
        with obs.trace_span("outer", height=3):
            manual_clock.advance(0.010)
            with obs.trace_span("inner", kind="proof"):
                manual_clock.advance(0.002)
            manual_clock.advance(0.001)
        return obs.snapshot()

    def test_structure_under_fake_clock(self, manual_clock):
        snap = self.make_spans(manual_clock)
        trace = to_chrome_trace(snap["spans"])
        events = trace["traceEvents"]
        assert trace["displayTimeUnit"] == "ms"
        # One complete event per span; the metadata names the one track
        # and its two subsystem lanes ("inner", "outer").
        phases = [event["ph"] for event in events]
        assert phases.count("M") == 3
        assert phases.count("X") == 2
        assert {event["pid"] for event in events} == {1}
        # Every non-metadata event is a complete ("X") event — no unmatched
        # B/E pairs possible by construction.
        assert set(phases) <= {"M", "X"}

    def test_timestamps_monotonic_and_durations_positive(self, manual_clock):
        snap = self.make_spans(manual_clock)
        events = to_chrome_trace(snap["spans"])["traceEvents"]
        ts = [event["ts"] for event in events]
        assert ts == sorted(ts)
        for event in events:
            if event["ph"] == "X":
                assert event["dur"] >= 0
        # Microsecond conversion: inner span lasted 2000µs.
        inner = next(e for e in events if e["name"] == "inner")
        assert inner["dur"] == pytest.approx(2000.0)

    def test_nesting_contained_within_parent(self, manual_clock):
        snap = self.make_spans(manual_clock)
        events = to_chrome_trace(snap["spans"])["traceEvents"]
        outer = next(e for e in events if e["name"] == "outer")
        inner = next(e for e in events if e["name"] == "inner")
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
        assert inner["args"]["parent"] == outer["args"]["span_id"]

    def test_attrs_become_args(self, manual_clock):
        snap = self.make_spans(manual_clock)
        events = to_chrome_trace(snap["spans"])["traceEvents"]
        outer = next(e for e in events if e["name"] == "outer")
        assert outer["args"]["height"] == 3
        assert outer["cat"] == "outer"

    def test_events_become_instants(self, manual_clock):
        obs.enable()
        obs.reset()
        manual_clock.advance(1.0)
        obs.emit("proof.checked", outcome="ok")
        snap = obs.snapshot()
        events = to_chrome_trace(snap["spans"], snap["events"])["traceEvents"]
        instant = next(e for e in events if e["ph"] == "i")
        assert instant["name"] == "proof.checked"
        assert instant["ts"] == pytest.approx(1e6)
        assert instant["args"] == {"outcome": "ok"}

    def test_write_chrome_trace_is_valid_json(self, tmp_path, manual_clock):
        snap = self.make_spans(manual_clock)
        path = tmp_path / "trace.json"
        count = write_chrome_trace(str(path), snap)
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == count == 5
        for event in loaded["traceEvents"]:
            for key in ("ph", "name", "pid", "tid", "ts"):
                assert key in event

    def test_regtest_run_dumps_loadable_trace(self, tmp_path):
        """Acceptance: a REPRO_OBS pipeline run exports a Perfetto-shaped
        trace and a JSONL event log whose every line validates."""
        from repro.bitcoin.regtest import RegtestNetwork
        from repro.bitcoin.standard import p2pkh_script
        from repro.bitcoin.transaction import TxOut
        from repro.bitcoin.wallet import Wallet
        from repro.obs.events import validate_event

        obs.enable()
        obs.reset()
        net = RegtestNetwork()
        wallet = Wallet.from_seed(b"export-e2e")
        net.fund_wallet(wallet, blocks=2)
        tx = wallet.create_transaction(
            net.chain, [TxOut(600, p2pkh_script(wallet.key_hash))], fee=10_000
        )
        net.send(tx)
        net.confirm(1)

        trace_path = tmp_path / "trace.json"
        events_path = tmp_path / "events.jsonl"
        write_chrome_trace(str(trace_path))
        obs.events().write_jsonl(str(events_path))

        trace = json.loads(trace_path.read_text())
        assert {e["ph"] for e in trace["traceEvents"]} <= {"M", "X", "i"}
        ts = [e["ts"] for e in trace["traceEvents"]]
        assert ts == sorted(ts)
        assert any(
            e["name"] == "chain.connect_block" for e in trace["traceEvents"]
        )
        lines = events_path.read_text().splitlines()
        assert lines
        for line in lines:
            validate_event(json.loads(line))
