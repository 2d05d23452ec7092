"""``repro.obs`` — what happened: counters, gauges, events and monitors.

The observability substrate for the whole validation pipeline: a
dependency-free metrics registry (:mod:`repro.obs.metrics`), a structured
event log (:mod:`repro.obs.events`), runtime invariant monitors
(:mod:`repro.obs.monitor`) and a pretty-printed report
(:mod:`repro.obs.report`).  Instrumented call sites across
``repro.bitcoin``, ``repro.lf``, ``repro.logic``, and ``repro.core``
record into a process-wide default registry and event log through the
helpers here.

How long something took is not recorded here: ``bench/`` times every
layer from outside the program (``docs/profiling.md``).  The obs clock
only stamps each event's ``ts``.

Zero cost when disabled
-----------------------

Observability is **off by default**.  Every instrumented call site guards
on the module-level :data:`ENABLED` flag::

    if obs.ENABLED:
        obs.inc("mempool.accepted_total")

so a disabled run performs one attribute load and a falsy branch — no dict
or list allocation, no registry traffic (tests enforce this with a
poisoned registry stub).  Turn it on with :func:`enable`, or by setting
``REPRO_OBS=1`` in the environment before the first import.

One log
-------

Every signal is written once, to the process-wide registry and event
log.  A simulated node attributes its events by *name*: inside
``with obs.node_scope(node.name):`` every event is stamped
``node=<name>`` (a caller's own ``node=`` wins), so one node's view is a
filter on that field, not a second sink.  The event ring is bounded;
what does not fit is counted (``events_dropped``), never silently lost.

Exports
-------

Two views of the collected data:

* :func:`snapshot` — JSON-able dict of every series plus the events;
* :func:`repro.obs.report.render_report` — human-readable breakdown the
  benchmarks print next to their headline numbers.

See ``docs/observability.md`` for the metric and event catalogue.
"""

from __future__ import annotations

import os
import time
from typing import Callable

from repro.obs.events import EVENT_KINDS, EVENT_SCHEMA_VERSION, Event, EventLog
from repro.obs.metrics import Counter, Gauge, Registry

__all__ = [
    "ENABLED", "enable", "disable", "reset",
    "registry", "set_registry",
    "events", "set_event_log", "emit",
    "clock", "set_clock", "reset_clock",
    "inc", "gauge_set", "gauge_max",
    "snapshot",
    "node_scope",
    "Registry", "Counter", "Gauge",
    "Event", "EventLog", "EVENT_KINDS", "EVENT_SCHEMA_VERSION",
    "CATALOGUE",
]

# The metric catalogue: every series the instrumented pipeline can emit,
# pre-registered on enable() so reports and dashboards always see the full
# schema (a counter that never fired reads 0, not "missing").  Kinds:
# "c" counter, "g" gauge.
CATALOGUE: tuple[tuple[str, str], ...] = (
    ("script.executions_total", "c"),
    ("script.failures_total", "c"),
    ("script.ops_total", "c"),
    ("script.pushes_total", "c"),
    ("script.stack_depth_hwm", "g"),
    ("validation.tx_total", "c"),
    ("validation.pool_inputs_total", "c"),
    ("chain.blocks_connected_total", "c"),
    ("chain.blocks_disconnected_total", "c"),
    ("chain.reorg_total", "c"),
    ("utxo.set_size", "g"),
    ("mempool.accepted_total", "c"),
    ("mempool.rejected_total", "c"),
    ("mempool.evicted_total", "c"),
    ("mempool.orphans_total", "c"),
    ("mempool.size", "g"),
    ("net.events_total", "c"),
    ("net.blocks_relayed_total", "c"),
    ("net.txs_relayed_total", "c"),
    ("lf.typecheck_total", "c"),
    ("lf.basis_lookups_total", "c"),
    ("proof.nodes_total", "c"),
    ("verify.claims_total", "c"),
    ("verify.carriers_total", "c"),
    ("script.budget_exhausted_total", "c"),
    ("miner.hash_attempts_total", "c"),
    ("miner.template_txs_total", "c"),
    ("pow.retargets_total", "c"),
    ("utxo.gc_swept_total", "c"),
    # Chaos layer: fault injection, partitions, crash/restart.
    ("fault.msgs_dropped_total", "c"),
    ("fault.msgs_duplicated_total", "c"),
    ("fault.latency_spikes_total", "c"),
    ("fault.partitions_total", "c"),
    ("fault.heals_total", "c"),
    ("fault.crashes_total", "c"),
    ("fault.restarts_total", "c"),
    # Catch-up sync sessions (headers-first re-request on reconnect).
    ("sync.sessions_total", "c"),
    ("sync.blocks_fetched_total", "c"),
    ("sync.compact_hits_total", "c"),
    ("sync.compact_fallback_total", "c"),
    ("sync.timeouts_total", "c"),
    ("sync.retries_total", "c"),
    ("sync.failures_total", "c"),
    # Peer misbehavior scoring and bounded-pool evictions.
    ("chain.blocks_rejected_total", "c"),
    ("peer.misbehavior_points_total", "c"),
    ("peer.bans_total", "c"),
    ("net.seen_evicted_total", "c"),
    ("mempool.orphans_evicted_total", "c"),
    # Verification fast path: EC multiplication, sighash midstates, sigcache.
    ("ecmult.mults_total", "c"),
    ("ecmult.dual_total", "c"),
    ("ecmult.table_builds_total", "c"),
    ("ecmult.point_table_builds_total", "c"),
    ("sighash.cache_hits_total", "c"),
    ("sighash.cache_misses_total", "c"),
    ("sigcache.hits_total", "c"),
    ("sigcache.misses_total", "c"),
    ("sigcache.tx_hits_total", "c"),
    # Durable block store: append path, snapshots, crash recovery.
    ("store.blocks_appended_total", "c"),
    ("store.bytes_written_total", "c"),
    ("store.snapshots_total", "c"),
    ("store.snapshot_fallbacks_total", "c"),
    ("store.recoveries_total", "c"),
    ("store.recovered_blocks_total", "c"),
    ("store.truncated_records_total", "c"),
    ("store.truncated_bytes_total", "c"),
    ("store.crc_failures_total", "c"),
    # Consensus/wallet boundary fixes riding with the store.
    ("mempool.reinjected_total", "c"),
    ("fault.torn_writes_total", "c"),
    # Swarm telemetry: causal relay hops, invariant monitors,
    # supply-inflation fault injection.
    ("relay.hops_total", "c"),
    ("relay.redundant_total", "c"),
    ("monitor.violations_total", "c"),
    ("fault.inflations_total", "c"),
    # Fault-tolerant verification service: admission and memo.
    ("service.requests_total", "c"),
    ("service.verdicts_total", "c"),
    ("service.memo_hits_total", "c"),
    ("service.memo_misses_total", "c"),
    ("service.memo_poison_rejected_total", "c"),
    ("service.shed_total", "c"),
    # Batched ECDSA (repro.crypto.ecdsa.batch_verify over one
    # multi-scalar multiplication).
    ("ecmult.batch_total", "c"),
    ("ecmult.batch_terms_total", "c"),
    ("ecmult.batch_verify_total", "c"),
    ("ecmult.batch_verify_sigs_total", "c"),
    ("ecmult.batch_unhinted_total", "c"),
    ("ecmult.batch_bisect_total", "c"),
    # Compact block relay (BIP 152-style): announcements received,
    # reconstruction outcomes, and round-trip recovery traffic.
    ("compact.blocks_total", "c"),
    ("compact.reconstructed_total", "c"),
    ("compact.misses_total", "c"),
    ("compact.collisions_total", "c"),
    ("compact.roundtrips_total", "c"),
    ("compact.fallback_total", "c"),
    ("compact.withheld_total", "c"),
    # Relay wire bytes, total and by message kind (charged at send time).
    ("relay.bytes_total", "c"),
    ("relay.block_bytes_total", "c"),
    ("relay.tx_bytes_total", "c"),
    ("relay.compact_bytes_total", "c"),
    ("relay.getblocktxn_bytes_total", "c"),
    ("relay.blocktxn_bytes_total", "c"),
    ("relay.getblock_bytes_total", "c"),
    ("relay.sync_bytes_total", "c"),
    # Duplicates of already-held transactions suppressed after seen-set
    # eviction (the relay-storm guard in Relay._submit_transaction).
    ("net.duplicates_suppressed_total", "c"),
)


def _declare_catalogue(reg: Registry) -> None:
    for name, kind in CATALOGUE:
        if kind == "c":
            reg.counter(name)
        else:
            reg.gauge(name)


def _event_clock() -> float:
    return _clock()


_registry = Registry()
_events = EventLog(clock=_event_clock)
_clock: Callable[[], float] = time.perf_counter

ENABLED: bool = os.environ.get("REPRO_OBS", "") not in ("", "0")
if ENABLED:
    _declare_catalogue(_registry)


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------


def enable() -> None:
    """Turn observability on and pre-register the metric catalogue."""
    global ENABLED
    ENABLED = True
    _declare_catalogue(_registry)


def disable() -> None:
    global ENABLED
    ENABLED = False


def reset() -> None:
    """Clear every series and event (catalogue re-registered if
    enabled)."""
    _registry.clear()
    _events.clear()
    if ENABLED:
        _declare_catalogue(_registry)


def registry() -> Registry:
    return _registry


def set_registry(reg: Registry) -> Registry:
    """Swap the default registry (tests install poisoned stubs); returns
    the previous one."""
    global _registry
    previous, _registry = _registry, reg
    return previous


def events() -> EventLog:
    return _events


def set_event_log(log: EventLog) -> EventLog:
    """Swap the default event log (tests install poisoned stubs); returns
    the previous one."""
    global _events
    previous, _events = _events, log
    return previous


# ----------------------------------------------------------------------
# Clock: stamps event ``ts`` (swappable so tests get deterministic stamps)
# ----------------------------------------------------------------------


def clock() -> float:
    return _clock()


def set_clock(fn: Callable[[], float]) -> Callable[[], float]:
    global _clock
    previous, _clock = _clock, fn
    return previous


def reset_clock() -> None:
    global _clock
    _clock = time.perf_counter


# ----------------------------------------------------------------------
# Node scopes (swarm attribution)
# ----------------------------------------------------------------------

# Innermost-last stack of active node names.  The simulator is
# single-threaded, so a plain module-level list is race-free.
_node_stack: list[str] = []


class _NodeScope:
    """Context manager naming the node that recordings belong to."""

    __slots__ = ("name",)

    def __init__(self, name: str | None):
        self.name = name

    def __enter__(self) -> str | None:
        if self.name is not None:
            _node_stack.append(self.name)
        return self.name

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.name is not None:
            _node_stack.pop()


def node_scope(name: str | None) -> _NodeScope:
    """Attribute events recorded inside the ``with`` to the node called
    ``name``: they are stamped ``node=<name>`` on the one event log.
    Scopes nest (innermost wins); a None name is a no-op, so a call site
    can pass ``name if obs.ENABLED else None``."""
    return _NodeScope(name)


# ----------------------------------------------------------------------
# Recording helpers — call only behind an ``if obs.ENABLED:`` guard.
# ----------------------------------------------------------------------


def inc(name: str, amount: int = 1) -> None:
    _registry.inc(name, amount)


def gauge_set(name: str, value: float) -> None:
    _registry.gauge_set(name, value)


def gauge_max(name: str, value: float) -> None:
    _registry.gauge_max(name, value)


def emit(kind: str, **fields: object) -> None:
    """Record a structured event (see :mod:`repro.obs.events`)::

        if obs.ENABLED:
            obs.emit("tx.accepted", txid=tx.txid, fee=fee, size=size)

    Call only behind an ``if obs.ENABLED:`` guard — the kwargs dict alone
    would be an allocation on the disabled path.  Under a node scope the
    event is stamped with the node's name unless the caller already set
    one.
    """
    if _node_stack and "node" not in fields:
        fields["node"] = _node_stack[-1]
    _events.emit(kind, **fields)


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------


def snapshot() -> dict:
    """A deterministic JSON-able view: all series and events."""
    snap = _registry.snapshot()
    snap["events"] = _events.snapshot()
    snap["events_dropped"] = _events.dropped
    return snap
