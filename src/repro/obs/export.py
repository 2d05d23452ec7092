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
import time

from repro.obs.metrics import quantile_from_cumulative

__all__ = [
    "QUANTILES",
    "quantile_from_cumulative",
    "snapshot_quantiles",
    "to_chrome_trace",
    "write_chrome_trace",
]

# The quantiles attached to snapshots and reports.
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
    exported_unix: float | None = None,
) -> dict:
    """Serialize span dicts to a Chrome trace-event JSON object.

    ``spans`` and ``events`` are the ``obs.snapshot()`` lists.  Each span
    becomes a complete (``"ph": "X"``) event with microsecond
    ``ts``/``dur`` and its attributes in ``args``; each structured event
    becomes a thread-scope instant (``"ph": "i"``), so rejections and
    reorgs show up as markers between the spans.

    Tracks: one ``pid`` per node stamp — the ``node`` span attribute or
    event field that :func:`repro.obs.node_scope` sets — in sorted-name
    order from 2, with unstamped records on pid 1, named
    ``process_name``.  Span names are dotted (``chain.connect_block``);
    the prefix is the subsystem and each subsystem is a ``tid`` lane, so
    a node's chain/utxo/miner activity renders in parallel, with events
    on a last lane of their own.  ``exported_unix`` lands in ``metadata``
    and is the only non-deterministic field, so comparisons pass or drop
    it.  Load the result in Perfetto (https://ui.perfetto.dev — "Open
    trace file") or ``chrome://tracing``.
    """
    events = events or []
    nodes = sorted(
        {span["attrs"]["node"] for span in spans if "node" in span["attrs"]}
        | {event["data"]["node"] for event in events if "node" in event["data"]}
    )
    pids = {name: pid for pid, name in enumerate([None, *nodes], start=1)}
    lanes = sorted({span["name"].partition(".")[0] for span in spans})
    lanes.append("events")
    tids = {lane: tid for tid, lane in enumerate(lanes, start=1)}

    records: list[dict] = []
    for span in spans:
        lane = span["name"].partition(".")[0]
        args = {key: _arg(value) for key, value in span["attrs"].items()}
        args["span_id"] = span["span_id"]
        if span["parent"] is not None:
            args["parent"] = span["parent"]
        records.append(
            {
                "ph": "X",
                "name": span["name"],
                "cat": lane,
                "pid": pids[span["attrs"].get("node")],
                "tid": tids[lane],
                "ts": span["start"] * 1e6,
                "dur": span["duration"] * 1e6,
                "args": args,
            }
        )
    for event in events:
        records.append(
            {
                "ph": "i",
                "s": "t",  # thread-scope instant: stays on its node's track
                "name": event["kind"],
                "cat": "event",
                "pid": pids[event["data"].get("node")],
                "tid": tids["events"],
                "ts": event["ts"] * 1e6,
                "args": dict(event["data"]),
            }
        )

    def named(kind: str, pid: int, tid: int, name: str) -> dict:
        return {"ph": "M", "name": kind, "pid": pid, "tid": tid, "ts": 0,
                "args": {"name": name}}

    trace_events = [
        named("process_name", pid, 0, name or process_name)
        for name, pid in pids.items()
    ]
    trace_events += [
        named("thread_name", pid, tid, lanes[tid - 1])
        for pid, tid in sorted({(r["pid"], r["tid"]) for r in records})
    ]
    trace_events += records
    # Viewers require non-decreasing timestamps within a (pid, tid).
    trace_events.sort(key=lambda e: (e["ts"], e["pid"], e["tid"]))
    if exported_unix is None:
        exported_unix = time.time()
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "metadata": {"exported_unix": exported_unix},
    }


def _arg(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


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
