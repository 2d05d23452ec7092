"""Crash flight recorder: dump the last moments of telemetry on failure.

The bounded rings in :mod:`repro.obs` already hold "the recent past" —
the last few thousand events and spans of the whole swarm, each stamped
with the node that recorded it.  The flight recorder turns that into a
post-mortem artifact: when something goes wrong (a
:class:`~repro.bitcoin.validation.ValidationError` on block connect, an
invariant-monitor violation, a simulated node crash), :func:`trigger`
writes one correlated bundle directory and stops after ``max_dumps`` so
a failure storm cannot fill the disk.

Bundle layout (``<directory>/flight-<seq>-<reason>/``):

``MANIFEST.json``
    reason, dump sequence number, optional ``sim_time``, and the names
    of the attached nodes.
``events.jsonl``
    The event log as JSONL (one validated event per line); one node's
    share is the lines whose ``data["node"]`` is its name.
``trace.json``
    The Chrome trace of the same spans and events (a ``pid`` track per
    node plus the unstamped ``repro`` track) — loads directly in Perfetto.
``snapshot.json``
    :func:`repro.obs.snapshot` — every series, span and event.

The recorder is **disarmed by default**: :func:`trigger` is a cheap
no-op until :func:`configure` gives it a directory.  Trigger points are
rare paths (rejects, violations, crashes), so the lazy imports there
cost nothing in the steady state.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

__all__ = ["FlightRecorder", "configure", "disarm", "recorder", "trigger"]

FLIGHT_SCHEMA = "repro.obs.flight/2"


def _slug(reason: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", reason).strip("-") or "unknown"


class FlightRecorder:
    """Writes correlated telemetry bundles; armed only with a directory."""

    def __init__(
        self,
        directory: str | Path | None = None,
        max_dumps: int = 4,
    ):
        self.directory = Path(directory) if directory is not None else None
        self.max_dumps = max_dumps
        self.dumps = 0
        self.nodes: list = []  # node-like objects (anything with a .name)
        self.sim = None  # optional Simulation for sim_time stamps

    @property
    def armed(self) -> bool:
        return self.directory is not None and self.dumps < self.max_dumps

    def attach(self, nodes: list, sim=None) -> None:
        """Register the swarm a dump names and the clock it stamps from."""
        self.nodes = list(nodes)
        self.sim = sim

    def trigger(self, reason: str, sim_time: float | None = None) -> Path | None:
        """Dump one bundle (no-op when disarmed); returns its directory."""
        if not self.armed:
            return None
        from repro import obs
        from repro.obs.export import write_chrome_trace

        if sim_time is None and self.sim is not None:
            sim_time = getattr(self.sim, "now", None)

        seq = self.dumps
        self.dumps += 1
        bundle = self.directory / f"flight-{seq:03d}-{_slug(reason)}"
        bundle.mkdir(parents=True, exist_ok=True)

        snapshot = obs.snapshot()
        obs.events().write_jsonl(str(bundle / "events.jsonl"))
        write_chrome_trace(str(bundle / "trace.json"), snapshot)
        with open(bundle / "snapshot.json", "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, sort_keys=True)

        manifest = {
            "schema": FLIGHT_SCHEMA,
            "reason": reason,
            "seq": seq,
            "sim_time": sim_time,
            "nodes": sorted(node.name for node in self.nodes),
        }
        with open(bundle / "MANIFEST.json", "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=1, sort_keys=True)

        if obs.ENABLED:
            obs.inc("flight.dumps_total")
        return bundle


# The process-wide recorder, disarmed until configure() names a directory.
_recorder = FlightRecorder()


def recorder() -> FlightRecorder:
    return _recorder


def configure(
    directory: str | Path,
    max_dumps: int = 4,
    nodes: list | None = None,
    sim=None,
) -> FlightRecorder:
    """Arm the process-wide recorder; returns it for chaining."""
    _recorder.directory = Path(directory)
    _recorder.max_dumps = max_dumps
    _recorder.dumps = 0
    if nodes is not None:
        _recorder.attach(nodes, sim=sim)
    return _recorder


def disarm() -> None:
    """Return the process-wide recorder to its inert default state."""
    _recorder.directory = None
    _recorder.dumps = 0
    _recorder.nodes = []
    _recorder.sim = None


def trigger(reason: str, sim_time: float | None = None) -> Path | None:
    """Dump a bundle from the process-wide recorder (no-op when disarmed)."""
    return _recorder.trigger(reason, sim_time=sim_time)
