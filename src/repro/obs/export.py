"""Machine-readable exports: Chrome trace-event JSON and histogram quantiles.

Two consumers drove this module.  First, span dumps should load in real
trace viewers — :func:`to_chrome_trace` serializes the tracer's spans to
the Chrome trace-event format that ``chrome://tracing`` and Perfetto
accept (complete ``"X"`` events, microsecond timestamps, span attributes
as ``args``).  Second, benchmark trajectories need comparable latency
figures — :func:`quantile_from_cumulative` estimates p50/p95/p99 from a
histogram's cumulative bucket counts, the same linear-interpolation rule
Prometheus's ``histogram_quantile`` uses, so a saved snapshot and a live
registry yield identical numbers.

Quantile semantics (and caveats)
--------------------------------

A fixed-bucket histogram only knows how many observations fell in each
bucket, so a quantile is *interpolated*: observations are assumed
uniformly spread within their bucket.  The estimate is therefore exact
at bucket edges and approximate inside them — never off by more than
one bucket width.  Two edge cases:

* an **empty histogram** has no quantiles; we return ``0.0``;
* a quantile landing in the **overflow bucket** (beyond the last finite
  edge) is clamped to the highest finite edge, as Prometheus does —
  widen the buckets if you see p99 pinned there.
"""

from __future__ import annotations

import json

from repro.obs.metrics import quantile_from_cumulative

__all__ = [
    "QUANTILES",
    "quantile_from_cumulative",
    "snapshot_quantiles",
    "to_chrome_trace",
    "swarm_chrome_trace",
    "write_chrome_trace",
    "write_swarm_chrome_trace",
]

# The quantiles attached to snapshots, reports, and expositions.
QUANTILES: tuple[float, ...] = (0.5, 0.95, 0.99)


def snapshot_quantiles(
    hist: dict, quantiles: tuple[float, ...] = QUANTILES
) -> dict[str, float]:
    """p50/p95/p99 (by default) from a snapshot histogram dict.

    Works on the ``{"count": ..., "buckets": [[edge, cum], ...]}`` shape
    that :meth:`repro.obs.metrics.Registry.snapshot` produces — including
    one loaded back from saved JSON.  A histogram with no bucket list
    (hand-built or truncated snapshots) yields all-zero quantiles rather
    than raising.
    """
    pairs = hist.get("buckets") or []
    return {
        f"p{round(q * 100)}": quantile_from_cumulative(q, pairs)
        for q in quantiles
    }


def to_chrome_trace(
    spans: list[dict],
    events: list[dict] | None = None,
    process_name: str = "repro",
) -> dict:
    """Serialize span dicts to a Chrome trace-event JSON object.

    ``spans`` is the ``obs.snapshot()["spans"]`` list.  Each span becomes
    a complete (``"ph": "X"``) event with microsecond ``ts``/``dur``; span
    attributes ride in ``args``.  Structured events, when given, become
    instant (``"ph": "i"``) events so rejections and reorgs show up as
    markers between the spans.  Load the result in Perfetto
    (https://ui.perfetto.dev — "Open trace file") or ``chrome://tracing``.
    """
    trace_events: list[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 1,
            "tid": 1,
            "ts": 0,
            "args": {"name": process_name},
        }
    ]
    for span in spans:
        args = {key: _arg(value) for key, value in span["attrs"].items()}
        args["span_id"] = span["span_id"]
        if span["parent"] is not None:
            args["parent"] = span["parent"]
        trace_events.append(
            {
                "ph": "X",
                "name": span["name"],
                "cat": span["name"].partition(".")[0],
                "pid": 1,
                "tid": 1,
                "ts": span["start"] * 1e6,
                "dur": span["duration"] * 1e6,
                "args": args,
            }
        )
    for event in events or []:
        trace_events.append(
            {
                "ph": "i",
                "s": "g",  # global-scope instant: draws a full-height line
                "name": event["kind"],
                "cat": "event",
                "pid": 1,
                "tid": 1,
                "ts": event["ts"] * 1e6,
                "args": dict(event["data"]),
            }
        )
    # Viewers require non-decreasing timestamps within a (pid, tid).
    trace_events.sort(key=lambda e: e["ts"])
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def _arg(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _node_track_events(
    pid: int, name: str, spans: list[dict], events: list[dict]
) -> list[dict]:
    """One node's trace events: subsystem ``tid`` tracks under one pid.

    Span names are dotted (``chain.connect_block``); the prefix is the
    subsystem, and each subsystem gets its own thread track so a node's
    chain/utxo/miner activity renders as parallel lanes.  Structured
    events land on a dedicated ``events`` track.
    """
    categories = sorted({span["name"].partition(".")[0] for span in spans})
    tids = {category: index + 1 for index, category in enumerate(categories)}
    events_tid = len(categories) + 1
    out: list[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": pid,
            "tid": 0,
            "ts": 0,
            "args": {"name": name},
        }
    ]
    for category in categories:
        out.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": tids[category],
                "ts": 0,
                "args": {"name": category},
            }
        )
    if events:
        out.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": events_tid,
                "ts": 0,
                "args": {"name": "events"},
            }
        )
    for span in spans:
        args = {key: _arg(value) for key, value in span["attrs"].items()}
        args["span_id"] = span["span_id"]
        if span["parent"] is not None:
            args["parent"] = span["parent"]
        out.append(
            {
                "ph": "X",
                "name": span["name"],
                "cat": span["name"].partition(".")[0],
                "pid": pid,
                "tid": tids[span["name"].partition(".")[0]],
                "ts": span["start"] * 1e6,
                "dur": span["duration"] * 1e6,
                "args": args,
            }
        )
    for event in events:
        out.append(
            {
                "ph": "i",
                "s": "t",  # thread-scope instant: stays on the node's track
                "name": event["kind"],
                "cat": "event",
                "pid": pid,
                "tid": events_tid,
                "ts": event["ts"] * 1e6,
                "args": dict(event["data"]),
            }
        )
    return out


def swarm_chrome_trace(
    swarm_snap: dict,
    global_snapshot: dict | None = None,
    exported_unix: float | None = None,
) -> dict:
    """Serialize a :func:`repro.obs.swarm.swarm_snapshot` to Chrome trace
    JSON with one ``pid`` per node and one ``tid`` per subsystem.

    ``global_snapshot`` (an :func:`repro.obs.snapshot` dict), when given,
    renders as an extra ``pid`` named ``repro`` carrying the process-wide
    spans and events.  ``exported_unix`` lands in ``metadata`` — it is
    the only non-deterministic field, so comparisons should drop it.
    """
    trace_events: list[dict] = []
    pid = 1
    if global_snapshot is not None:
        trace_events.extend(
            _node_track_events(
                pid,
                "repro",
                global_snapshot.get("spans", []),
                global_snapshot.get("events", []),
            )
        )
        pid += 1
    for name in sorted(swarm_snap.get("nodes", {})):
        node_snap = swarm_snap["nodes"][name]
        trace_events.extend(
            _node_track_events(
                pid,
                name,
                node_snap.get("spans", []),
                node_snap.get("events", []),
            )
        )
        pid += 1
    trace_events.sort(key=lambda e: (e["ts"], e["pid"], e["tid"]))
    if exported_unix is None:
        import time

        exported_unix = time.time()
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "metadata": {"exported_unix": exported_unix},
    }


def write_chrome_trace(path: str, snapshot: dict | None = None) -> int:
    """Dump the (given or live) snapshot's spans as a Chrome trace file.

    Returns the number of trace events written.
    """
    if snapshot is None:
        from repro import obs

        snapshot = obs.snapshot()
    trace = to_chrome_trace(
        snapshot.get("spans", []), snapshot.get("events", [])
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, sort_keys=True)
    return len(trace["traceEvents"])


def write_swarm_chrome_trace(
    path: str,
    swarm_snap: dict,
    global_snapshot: dict | None = None,
    exported_unix: float | None = None,
) -> int:
    """Dump a swarm snapshot as a per-node-pid Chrome trace file."""
    trace = swarm_chrome_trace(swarm_snap, global_snapshot, exported_unix)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, sort_keys=True)
    return len(trace["traceEvents"])
