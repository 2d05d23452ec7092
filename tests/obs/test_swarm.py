"""Node scopes: a swarm attributed by name on the one registry, tracer
and event log, and its determinism."""

import json

import pytest

from repro import obs
from repro.obs.export import to_chrome_trace


@pytest.fixture
def enabled(manual_clock):
    obs.enable()
    obs.reset()
    return manual_clock


class TestNodeScope:
    def test_one_write(self, enabled, monkeypatch):
        """Under a scope every signal is recorded once: the counting
        wrappers sit on the class, so a write to *any* registry (a
        second, per-node one included) would be seen."""
        calls = {"inc": 0, "observe": 0}
        real_inc, real_observe = obs.Registry.inc, obs.Registry.observe

        def counting_inc(self, *args, **labels):
            calls["inc"] += 1
            real_inc(self, *args, **labels)

        def counting_observe(self, *args, **labels):
            calls["observe"] += 1
            real_observe(self, *args, **labels)

        monkeypatch.setattr(obs.Registry, "inc", counting_inc)
        monkeypatch.setattr(obs.Registry, "observe", counting_observe)
        obs.inc("chain.blocks_connected_total")
        with obs.node_scope("n0"):
            obs.inc("chain.blocks_connected_total", 2)
            with obs.trace_span("chain.connect_block",
                                metric="chain.connect_seconds"):
                pass
        assert calls == {"inc": 2, "observe": 1}
        assert (
            obs.registry().counter("chain.blocks_connected_total").value == 3
        )
        assert obs.registry().histogram("chain.connect_seconds").count == 1

    def test_none_scope_is_noop(self, enabled):
        with obs.node_scope(None) as name:
            assert name is None
            obs.emit("store.snapshot", height=1, tip=b"\x01", bytes=10)
            assert obs.current_node() is None
        assert "node" not in obs.events().snapshot()[0]["data"]

    def test_scopes_nest_innermost_wins(self, enabled):
        with obs.node_scope("a"):
            with obs.node_scope("b"):
                assert obs.current_node() == "b"
                obs.emit("store.snapshot", height=1, tip=b"\x01", bytes=10)
            assert obs.current_node() == "a"
            obs.emit("store.snapshot", height=2, tip=b"\x02", bytes=10)
        assert obs.current_node() is None
        stamps = [e["data"]["node"] for e in obs.events().snapshot()]
        assert stamps == ["b", "a"]

    def test_event_stamped_with_node_name(self, enabled):
        with obs.node_scope("n3"):
            obs.emit("fault.crash", node="explicit")  # caller's name wins
            obs.emit("store.snapshot", height=1, tip=b"\x01", bytes=10)
        events = obs.events().snapshot()
        assert [e["data"]["node"] for e in events] == ["explicit", "n3"]

    def test_span_lands_on_the_one_tracer_with_node_attr(self, enabled):
        with obs.node_scope("n4"):
            with obs.trace_span("chain.connect_block", height=7):
                pass
            with obs.trace_span("chain.connect_block", node="explicit"):
                pass
        with obs.trace_span("verify.claim"):
            pass
        attrs = [span.attrs for span in obs.tracer().spans]
        assert attrs == [{"height": 7, "node": "n4"}, {"node": "explicit"}, {}]


def _seeded_swarm_run(seed=3):
    """One small instrumented network run under the fake clock."""
    from repro.bitcoin.network import PoissonMiner, Simulation, build_network
    from repro.bitcoin.pow import block_work, target_to_bits

    sim = Simulation(seed=seed)
    nodes = build_network(sim, 4)
    rate = block_work(target_to_bits(2**252)) / 600.0
    miner = PoissonMiner(nodes[0], rate, miner_id=1)
    miner.start()
    sim.run_until(4 * 3600.0)
    return nodes


def _trace(snapshot, exported_unix=0.0):
    return to_chrome_trace(
        snapshot["spans"], snapshot["events"], exported_unix=exported_unix
    )


def _tracks(events):
    """Track name -> pid, from the trace's process_name metadata rows."""
    return {
        e["args"]["name"]: e["pid"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }


class TestSwarmDeterminism:
    def test_two_identical_runs_byte_identical(self, enabled):
        _seeded_swarm_run()
        first = json.dumps(obs.snapshot(), sort_keys=True)
        first_trace = json.dumps(_trace(obs.snapshot()), sort_keys=True)

        obs.reset()
        _seeded_swarm_run()
        second = json.dumps(obs.snapshot(), sort_keys=True)
        second_trace = json.dumps(_trace(obs.snapshot()), sort_keys=True)

        assert first == second
        assert first_trace == second_trace

    def test_exported_unix_is_only_free_field(self, enabled):
        _seeded_swarm_run()
        snap = obs.snapshot()
        trace_a = _trace(snap, exported_unix=1.0)
        trace_b = _trace(snap, exported_unix=2.0)
        assert trace_a["metadata"]["exported_unix"] == 1.0
        trace_a["metadata"].pop("exported_unix")
        trace_b["metadata"].pop("exported_unix")
        assert trace_a == trace_b


class TestSwarmChromeTrace:
    def test_swarm_spans_reach_the_process_snapshot(self, enabled):
        nodes = _seeded_swarm_run()
        names = {node.name for node in nodes}
        snap = obs.snapshot()
        connects = [
            span for span in snap["spans"]
            if span["name"] == "chain.connect_block"
        ]
        assert {span["attrs"]["node"] for span in connects} == names
        assert snap["spans_dropped"] == 0

        events = _trace(snap)["traceEvents"]
        pids = _tracks(events)
        complete = {e["pid"] for e in events if e["ph"] == "X"}
        assert {pids[name] for name in names} <= complete
        # One node's own view is a filter on the stamp, not an API.
        node0 = [e for e in snap["events"] if e["data"].get("node") == "node0"]
        assert node0 and len(node0) < len(snap["events"])

    def test_per_node_pids_and_subsystem_tids(self, enabled):
        _seeded_swarm_run()
        events = _trace(obs.snapshot())["traceEvents"]
        names = _tracks(events)
        # The unstamped track is pid 1; nodes follow in sorted-name order.
        assert names == {
            "repro": 1, "node0": 2, "node1": 3, "node2": 4, "node3": 5,
        }
        lanes = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        for event in events:
            if event["ph"] == "X":
                # Spans stay inside their node's pid, on their
                # subsystem's named lane.
                assert event["pid"] == names[event["args"].get("node", "repro")]
                assert lanes[event["pid"], event["tid"]] == event["cat"]
            elif event["ph"] == "i":
                assert event["pid"] == names[event["args"].get("node", "repro")]
                assert lanes[event["pid"], event["tid"]] == "events"
