"""Catch-up sync retry timeouts: capped growth and seeded jitter.

The regression being pinned: every (node, peer) pair derives its own
jitter stream from the simulation seed, so peers that time out together
retry on *decorrelated* schedules — while any given seed reproduces its
schedule exactly.
"""

from repro.bitcoin.network import Simulation, build_network
from repro.bitcoin.sync import SyncConfig, SyncSession


def timeout_schedule(seed: int, attempts: int = 4, config: SyncConfig = None):
    config = config or SyncConfig()
    sim = Simulation(seed=seed)
    a, b = build_network(sim, 2)
    session = SyncSession(a, b, "test", config)
    return [session._timeout(attempt) for attempt in range(1, attempts + 1)]


def test_distinct_seeds_give_divergent_schedules():
    schedules = [tuple(timeout_schedule(seed)) for seed in range(6)]
    assert len(set(schedules)) == 6


def test_same_seed_reproduces_schedule_exactly():
    assert timeout_schedule(42) == timeout_schedule(42)


def test_schedule_grows_within_jitter_band_and_caps():
    config = SyncConfig()
    for delay, nominal in zip(
        timeout_schedule(0, attempts=5, config=config),
        # 15 hops at build_network's 2 s a hop, doubling, capped at 120.
        [30.0, 60.0, 120.0, 240.0, 240.0],
    ):
        assert nominal * (1 - config.jitter) <= delay
        assert delay <= nominal * (1 + config.jitter)


def test_pairs_within_one_simulation_decorrelate():
    sim = Simulation(seed=0)
    a, b, c = build_network(sim, 3)
    config = SyncConfig()

    def schedule(node, peer):
        session = SyncSession(node, peer, "test", config)
        return [session._timeout(n) for n in range(1, 5)]

    assert schedule(a, b) != schedule(a, c) != schedule(b, c)


def test_jitter_does_not_draw_from_the_shared_sim_stream():
    """Creating a sync session must not perturb seeded scenarios."""
    sim = Simulation(seed=7)
    a, b = build_network(sim, 2)
    session = SyncSession(a, b, "test", SyncConfig())
    session._backoff_rng.random()  # draw jitter
    # The shared stream must be wherever it would have been anyway; build
    # an identical world without the session and compare the next draw.
    control = Simulation(seed=7)
    build_network(control, 2)
    assert sim.rng.random() == control.rng.random()
