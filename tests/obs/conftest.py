"""Shared fixtures for observability tests.

Every test in this package runs against a private registry/tracer and has
the global enable flag and clock restored afterwards, so these tests never
leak state into the rest of the suite — which may itself be running with
``REPRO_OBS=1`` (see ``scripts/check.sh``).
"""

import pytest

from repro import obs


class ManualClock:
    """A clock tests advance by hand for deterministic timings."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture(autouse=True)
def obs_sandbox():
    """Isolate each test's observability state and restore the world after."""
    was_enabled = obs.ENABLED
    saved_registry = obs.set_registry(obs.Registry())
    saved_tracer = obs.set_tracer(obs.Tracer())
    # obs.clock (not the default perf_counter) so manual_clock governs
    # event timestamps too.
    saved_events = obs.set_event_log(obs.EventLog(clock=obs.clock))
    yield
    obs.set_registry(saved_registry)
    obs.set_tracer(saved_tracer)
    obs.set_event_log(saved_events)
    obs.reset_clock()
    obs.ENABLED = was_enabled


@pytest.fixture
def manual_clock():
    clock = ManualClock()
    obs.set_clock(clock)
    return clock
