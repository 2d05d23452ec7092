"""Registry unit tests: counters, gauges, snapshot determinism, and the
pre-registered catalogue."""

import json

import pytest

from repro import obs
from repro.obs.metrics import Registry

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


class TestSnapshot:
    def _populate(self, reg):
        reg.inc("script.ops_total", 7)
        reg.gauge_set("utxo.set_size", 42)

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
        assert "utxo.set_size" in snap["gauges"]
