"""Flight recorder: arming, bundle layout, dump caps, and triggers."""

import json
from types import SimpleNamespace

import pytest

from repro import obs
from repro.obs import flight
from repro.obs.flight import FLIGHT_SCHEMA, FlightRecorder

pytestmark = pytest.mark.obs


@pytest.fixture
def enabled(manual_clock):
    obs.enable()
    obs.reset()
    return manual_clock


@pytest.fixture
def armed_recorder(tmp_path):
    """The process-wide recorder armed at tmp_path, disarmed afterwards."""
    recorder = flight.configure(tmp_path, max_dumps=4)
    yield recorder
    flight.disarm()


class TestArming:
    def test_disarmed_trigger_is_noop(self, enabled):
        recorder = FlightRecorder()  # no directory
        assert not recorder.armed
        assert recorder.trigger("anything") is None
        assert recorder.dumps == 0

    def test_configure_arms_and_disarm_resets(self, enabled, tmp_path):
        recorder = flight.configure(tmp_path, max_dumps=2)
        assert recorder.armed
        flight.disarm()
        assert not recorder.armed
        assert flight.trigger("after-disarm") is None

    def test_max_dumps_caps_a_failure_storm(self, enabled, tmp_path):
        recorder = FlightRecorder(tmp_path, max_dumps=2)
        paths = [recorder.trigger(f"storm-{i}") for i in range(5)]
        assert sum(p is not None for p in paths) == 2
        assert recorder.dumps == 2
        assert not recorder.armed


class TestBundleLayout:
    def test_bundle_contains_correlated_artifacts(
        self, enabled, armed_recorder
    ):
        armed_recorder.attach(
            [SimpleNamespace(name="n0"), SimpleNamespace(name="n1")]
        )
        with obs.node_scope("n0"):
            obs.inc("chain.blocks_connected_total")
            obs.emit("store.snapshot", height=1, tip=b"\x01", bytes=10)
            with obs.trace_span("chain.connect_block"):
                pass
        obs.emit("fault.crash", node="n1")

        bundle = flight.trigger("block.rejected", sim_time=12.5)
        assert bundle is not None and bundle.is_dir()
        assert bundle.name == "flight-000-block.rejected"
        assert sorted(path.name for path in bundle.iterdir()) == [
            "MANIFEST.json", "events.jsonl", "snapshot.json", "trace.json",
        ]

        manifest = json.loads((bundle / "MANIFEST.json").read_text())
        assert manifest == {
            "schema": FLIGHT_SCHEMA,
            "reason": "block.rejected",
            "seq": 0,
            "sim_time": 12.5,
            "nodes": ["n0", "n1"],
        }

        # One node's share of the one log is a filter on the stamp.
        events = [
            json.loads(line)
            for line in (bundle / "events.jsonl").read_text().splitlines()
        ]
        assert [e["kind"] for e in events] == ["store.snapshot", "fault.crash"]
        n0 = [e for e in events if e["data"].get("node") == "n0"]
        assert [e["kind"] for e in n0] == ["store.snapshot"]

        snapshot = json.loads((bundle / "snapshot.json").read_text())
        assert snapshot["counters"]["chain.blocks_connected_total"] == 1
        assert [s["attrs"] for s in snapshot["spans"]] == [{"node": "n0"}]
        assert len(snapshot["events"]) == 2

        trace = json.loads((bundle / "trace.json").read_text())
        tracks = {
            e["args"]["name"]: e["pid"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert tracks == {"repro": 1, "n0": 2, "n1": 3}
        (span,) = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert span["pid"] == tracks["n0"]

    def test_trace_json_is_perfetto_loadable_shape(
        self, enabled, armed_recorder
    ):
        armed_recorder.attach([SimpleNamespace(name="n0")])
        bundle = flight.trigger("monitor.supply")
        trace = json.loads((bundle / "trace.json").read_text())
        assert isinstance(trace["traceEvents"], list)
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert "M" in phases  # process/thread naming metadata
        for event in trace["traceEvents"]:
            assert {"ph", "pid", "tid"} <= set(event)

    def test_reason_slug_sanitized(self, enabled, armed_recorder):
        bundle = flight.trigger("weird reason/with: stuff!")
        assert bundle.name == "flight-000-weird-reason-with-stuff"

    def test_dump_counter_increments(self, enabled, armed_recorder):
        flight.trigger("one")
        flight.trigger("two")
        assert obs.registry().counter("flight.dumps_total").value == 2


class TestTriggers:
    def test_monitor_violation_triggers_dump(self, enabled, armed_recorder):
        from repro.obs.monitor import MonitorRegistry

        registry = MonitorRegistry(enabled=True, strict=False)
        registry.violate("supply", "conjured value")
        bundles = sorted(armed_recorder.directory.glob("flight-*"))
        assert len(bundles) == 1
        assert bundles[0].name.endswith("monitor.supply")

    def test_node_crash_triggers_dump_with_sim_time(
        self, enabled, armed_recorder
    ):
        from repro.bitcoin.chain import ChainParams
        from repro.bitcoin.network import Node, Simulation

        sim = Simulation(seed=9)
        params = ChainParams(
            max_target=2**252, retarget_window=2**31, require_pow=False
        )
        node = Node("doomed", sim, params)
        armed_recorder.attach([node], sim=sim)
        node.crash()
        bundles = sorted(armed_recorder.directory.glob("flight-*"))
        assert len(bundles) == 1
        manifest = json.loads((bundles[0] / "MANIFEST.json").read_text())
        assert manifest["reason"] == "node.crash"
        assert manifest["sim_time"] == sim.now

    def test_inflation_fault_produces_loadable_bundle(
        self, enabled, armed_recorder
    ):
        """The ISSUE acceptance path: injected inflation -> strict monitor
        -> flight bundle whose trace.json Perfetto can open."""
        from repro.bitcoin.chain import ChainParams
        from repro.bitcoin.faults import inject_supply_inflation
        from repro.bitcoin.network import Node, Simulation
        from repro.obs.monitor import InvariantViolation, MonitorRegistry

        sim = Simulation(seed=13)
        params = ChainParams(
            max_target=2**252, retarget_window=2**31, require_pow=False
        )
        node = Node("inflated", sim, params)
        armed_recorder.attach([node], sim=sim)

        inject_supply_inflation(node)
        registry = MonitorRegistry(enabled=True, strict=True)
        with pytest.raises(InvariantViolation):
            registry.check_node(node, force=True)

        bundles = sorted(armed_recorder.directory.glob("flight-*"))
        assert len(bundles) == 1
        trace = json.loads((bundles[0] / "trace.json").read_text())
        assert isinstance(trace["traceEvents"], list)
        assert trace["traceEvents"], "trace must not be empty"
        # The inflation event itself is on the record.
        events = (bundles[0] / "events.jsonl").read_text().splitlines()
        kinds = [json.loads(line)["kind"] for line in events]
        assert "fault.inflation" in kinds
