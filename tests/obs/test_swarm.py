"""Node scopes: a swarm attributed by name on the one registry and event
log, and its determinism."""

import json

import pytest

from repro import obs


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
            obs.observe("net.block_propagation_seconds", 1.5)
        assert calls == {"inc": 2, "observe": 1}
        assert (
            obs.registry().counter("chain.blocks_connected_total").value == 3
        )
        assert (
            obs.registry().histogram("net.block_propagation_seconds").count
            == 1
        )

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


class TestSwarmDeterminism:
    def test_two_identical_runs_byte_identical(self, enabled):
        _seeded_swarm_run()
        first = json.dumps(obs.snapshot(), sort_keys=True)

        obs.reset()
        _seeded_swarm_run()
        second = json.dumps(obs.snapshot(), sort_keys=True)

        assert first == second


class TestSwarmEvents:
    def test_swarm_events_reach_the_process_snapshot(self, enabled):
        nodes = _seeded_swarm_run()
        names = {node.name for node in nodes}
        snap = obs.snapshot()
        connects = [
            event for event in snap["events"]
            if event["kind"] == "block.connected"
        ]
        assert {event["data"]["node"] for event in connects} == names
        assert snap["events_dropped"] == 0
        # One node's own view is a filter on the stamp, not an API.
        node0 = [e for e in snap["events"] if e["data"].get("node") == "node0"]
        assert node0 and len(node0) < len(snap["events"])
