"""Structured event log: schema-versioned JSONL pipeline events.

Metrics answer "how many"; the event log answers "what happened, in
order".  Each event is one JSON object with a fixed
envelope — schema version, monotonically increasing sequence number,
clock timestamp, kind — plus kind-specific payload fields under
``data``.  The kind catalogue (:data:`EVENT_KINDS`) names every event
the instrumented pipeline can emit and the payload fields each is
required to carry, so a consumer can validate any line of a dump
against :func:`validate_event` without knowing who produced it.

Events land in a bounded ring (oldest dropped first, with a drop
counter) so a long simulation cannot grow memory without limit, and an
optional file sink streams each event as a JSONL line the moment it is
emitted — the sink sees every event even when the ring has wrapped.

Like the rest of :mod:`repro.obs`, the log is storage only: call sites
guard on ``obs.ENABLED`` and never reach it on a disabled run (the
poisoned-log test enforces this).
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Callable, IO

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EVENT_KINDS",
    "Event",
    "EventLog",
    "EventSchemaError",
    "validate_event",
]

# Bump when the envelope or a kind's required fields change shape.
# Only the current version validates: no committed artifact holds an
# older event.
EVENT_SCHEMA_VERSION = 4

# kind -> required payload field names.  Emitting an unknown kind or
# omitting a required field raises immediately: a typo at a call site
# should fail the instrumented run, not silently corrupt dumps.
EVENT_KINDS: dict[str, tuple[str, ...]] = {
    "tx.accepted": ("txid", "fee", "size"),
    "tx.rejected": ("txid", "reason"),
    "block.connected": ("hash", "height", "txs"),
    "block.disconnected": ("hash", "height"),
    "chain.reorg": ("depth", "fork_height"),
    "orphan.parked": ("hash", "parent"),
    "orphan.resolved": ("hash", "parent"),
    "proof.checked": ("outcome",),
    "script.budget_exhausted": ("reason",),
    "pow.retarget": ("old_target", "new_target", "ratio"),
    # Chaos layer: fault injection on links, partitions, crashes.
    "fault.drop": ("edge", "msg"),
    "fault.duplicate": ("edge", "msg"),
    "fault.delay": ("edge", "msg", "extra"),
    "fault.partition": ("groups",),
    "fault.heal": ("groups",),
    "fault.crash": ("node",),
    "fault.restart": ("node", "persisted"),
    # Headers-first catch-up sync after reconnect / missed relays.
    "sync.started": ("node", "peer", "reason"),
    "sync.headers": ("node", "peer", "count"),
    "sync.request": ("node", "peer", "what", "attempt"),
    "sync.timeout": ("node", "peer", "what", "attempt"),
    "sync.completed": ("node", "peer", "blocks"),
    "sync.failed": ("node", "peer", "reason"),
    # Misbehavior scoring and rejected blocks (chaos satellite tasks).
    "block.rejected": ("hash", "reason"),
    "peer.misbehavior": ("node", "peer", "points", "score", "reason"),
    "peer.banned": ("node", "peer", "score"),
    "orphan.evicted": ("hash", "parent"),
    "seen.evicted": ("node", "pool", "count"),
    # Durable block store: snapshots, torn-tail truncation, recovery.
    "store.snapshot": ("height", "tip", "bytes"),
    "store.truncated": ("path", "bytes"),
    "store.recovered": ("height", "tip", "blocks", "from_snapshot"),
    # Mempool re-injection of losing-branch transactions after a reorg.
    "mempool.reinjected": ("count", "depth"),
    # Torn-write fault: the tail of a log damaged at a seeded offset.
    "fault.torn_write": ("node", "file", "mode", "bytes"),
    # --- schema v2: swarm telemetry ---
    # One block/tx delivery hop: the propagation tree is reconstructable
    # from these alone (first-seen latency, redundant receives).
    "relay.hop": ("trace", "from", "to", "hop", "sim_time"),
    # A runtime invariant monitor detected a violated invariant.
    "monitor.violation": ("monitor", "detail"),
    # Supply-inflation fault injection (monitor acceptance scenario).
    "fault.inflation": ("node", "amount"),
    # --- schema v3: fault-tolerant verification service ---
    # One request's terminal verdict (the full status set is documented
    # in docs/service.md: ok/invalid/timeout/overloaded/draining/error).
    "service.verdict": ("status",),
    # A memoized typecheck entry failed its digest check and was evicted.
    "service.poison_rejected": ("txid",),
    # Admission control refused a request (queue full / draining).
    "service.shed": ("inflight", "reason"),
    # --- schema v4: compact block relay (BIP 152-style) ---
    # A compact announcement arrived: total txs, mempool misses.
    "compact.received": ("node", "hash", "txs", "missing"),
    # The receiver round-tripped for the missing transactions.
    "compact.getblocktxn": ("node", "peer", "hash", "indexes"),
    # Reconstruction was abandoned for a full-block fetch (collision,
    # merkle mismatch, or round-trip timeout — never peer misbehavior).
    "compact.fallback": ("node", "hash", "reason"),
    # The announcing peer failed to back its announcement with data.
    "compact.withheld": ("node", "peer", "hash"),
}


class EventSchemaError(ValueError):
    """An event does not conform to the documented schema."""


# Exact types that pass through json.dumps unchanged; the emit hot path
# checks membership before paying a _jsonable call per payload field.
_JSON_SAFE = frozenset({str, int, float, bool, type(None)})


def _jsonable(value: object) -> object:
    """Coerce payload values to JSON-safe types (bytes become hex)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, bytes):
        return value.hex()
    return str(value)


class Event:
    """One recorded event: envelope plus kind-specific payload."""

    __slots__ = ("seq", "ts", "kind", "data")

    def __init__(self, seq: int, ts: float, kind: str, data: dict):
        self.seq = seq
        self.ts = ts
        self.kind = kind
        self.data = data

    def as_dict(self) -> dict:
        return {
            "v": EVENT_SCHEMA_VERSION,
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "data": dict(self.data),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event(seq={self.seq}, kind={self.kind!r}, data={self.data!r})"


def validate_event(obj: dict) -> None:
    """Raise :class:`EventSchemaError` unless ``obj`` is a valid event dict.

    Checks the envelope (``v``/``seq``/``ts``/``kind``/``data``), that the
    kind is catalogued, and that every required payload field is present.
    """
    if not isinstance(obj, dict):
        raise EventSchemaError(f"event must be an object, got {type(obj).__name__}")
    for key in ("v", "seq", "ts", "kind", "data"):
        if key not in obj:
            raise EventSchemaError(f"missing envelope field {key!r}")
    if obj["v"] != EVENT_SCHEMA_VERSION:
        raise EventSchemaError(
            f"schema version {obj['v']!r} is not {EVENT_SCHEMA_VERSION}"
        )
    if not isinstance(obj["seq"], int) or obj["seq"] < 0:
        raise EventSchemaError(f"seq must be a non-negative int, got {obj['seq']!r}")
    if not isinstance(obj["ts"], (int, float)):
        raise EventSchemaError(f"ts must be a number, got {obj['ts']!r}")
    kind = obj["kind"]
    required = EVENT_KINDS.get(kind)
    if required is None:
        raise EventSchemaError(f"unknown event kind {kind!r}")
    data = obj["data"]
    if not isinstance(data, dict):
        raise EventSchemaError("data must be an object")
    missing = [name for name in required if name not in data]
    if missing:
        raise EventSchemaError(f"{kind}: missing payload fields {missing}")


class EventLog:
    """Bounded in-memory event ring with an optional streaming JSONL sink."""

    def __init__(
        self,
        capacity: int = 10_000,
        clock: Callable[[], float] = time.perf_counter,
        sink: IO[str] | None = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self.clock = clock
        self.sink = sink
        self.events: deque[Event] = deque(maxlen=capacity)
        self.dropped = 0
        self._next_seq = 0

    def emit(self, kind: str, **fields: object) -> Event:
        """Record one event; returns it (mainly for tests).

        Raises :class:`EventSchemaError` for an uncatalogued kind or a
        missing required payload field.
        """
        required = EVENT_KINDS.get(kind)
        if required is None:
            raise EventSchemaError(f"unknown event kind {kind!r}")
        for name in required:  # no list alloc on the happy path
            if name not in fields:
                missing = [n for n in required if n not in fields]
                raise EventSchemaError(
                    f"{kind}: missing payload fields {missing}"
                )
        data = {
            key: value if type(value) in _JSON_SAFE else _jsonable(value)
            for key, value in fields.items()
        }
        event = Event(self._next_seq, self.clock(), kind, data)
        self._next_seq += 1
        if len(self.events) == self.capacity:
            self.dropped += 1  # deque(maxlen) evicts the oldest on append
        self.events.append(event)
        if self.sink is not None:
            self.sink.write(event.to_json() + "\n")
        return event

    def __len__(self) -> int:
        return len(self.events)

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0
        self._next_seq = 0

    def snapshot(self) -> list[dict]:
        """JSON-able view of the retained events, oldest first."""
        return [event.as_dict() for event in self.events]

    def to_jsonl(self) -> str:
        """The retained events as JSONL text (one event per line)."""
        return "".join(event.to_json() + "\n" for event in self.events)

    def write_jsonl(self, path: str) -> int:
        """Dump the retained events to ``path``; returns the event count."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())
        return len(self.events)
