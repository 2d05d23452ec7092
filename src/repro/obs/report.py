"""Human-readable per-stage breakdown of an observability snapshot.

The benchmarks call :func:`render_report` after their headline numbers so
every ``bench_*`` run shows where validation, proof-checking, and network
time actually went.  Works from a snapshot dict (so it can render saved
JSON as well as the live registry).
"""

from __future__ import annotations

from repro import obs


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:8.3f}s "
    if value >= 0.001:
        return f"{value * 1000:8.3f}ms"
    return f"{value * 1e6:8.1f}µs"


def render_report(snapshot: dict | None = None, title: str = "observability") -> str:
    """Format counters, gauges, and timing histograms as an aligned table."""
    snap = snapshot if snapshot is not None else obs.snapshot()
    lines = [f"--- {title}: per-stage breakdown ---"]

    histograms = snap.get("histograms", {})
    if histograms:
        lines.append(
            f"{'timing series':<44}{'count':>8}{'total':>11}{'mean':>11}"
            f"{'p50':>11}{'p95':>11}{'p99':>11}"
        )
        for name, hist in histograms.items():
            timing = "seconds" in name
            fmt = _fmt_seconds if timing else lambda v: f"{v:.2f}"
            # Hand-built or truncated snapshots may lack any of these
            # fields; render zeros rather than crashing the report.
            total_value = hist.get("sum", 0.0)
            count = hist.get("count", 0)
            mean = hist.get("mean", 0.0)
            total = _fmt_seconds(total_value) if timing else f"{total_value:g}"
            row = f"{name:<44}{count:>8}{total:>11}{fmt(mean):>11}"
            # Quantiles are interpolated from buckets (see docs); snapshots
            # predating the export layer may lack them.
            for key in ("p50", "p95", "p99"):
                row += f"{fmt(hist[key]):>11}" if key in hist else f"{'-':>11}"
            lines.append(row)

    counters = snap.get("counters", {})
    if counters:
        lines.append(f"{'counter':<44}{'value':>8}")
        for name, value in counters.items():
            lines.append(f"{name:<44}{value:>8}")

    gauges = snap.get("gauges", {})
    if gauges:
        lines.append(f"{'gauge':<44}{'value':>8}")
        for name, value in gauges.items():
            shown = int(value) if float(value).is_integer() else round(value, 3)
            lines.append(f"{name:<44}{shown:>8}")

    span_list = snap.get("spans", [])
    if span_list:
        lines.append(f"spans recorded: {len(span_list)}"
                     + (f" (dropped {snap['spans_dropped']})"
                        if snap.get("spans_dropped") else ""))
    event_list = snap.get("events", [])
    if event_list:
        lines.append(f"events recorded: {len(event_list)}"
                     + (f" (dropped {snap['events_dropped']})"
                        if snap.get("events_dropped") else ""))
    return "\n".join(lines)


def render_trace(snapshot: dict | None = None, limit: int = 40) -> str:
    """An indented listing of the ``limit`` most recent spans."""
    snap = snapshot if snapshot is not None else obs.snapshot()
    recorded = snap.get("spans", [])
    lines = ["--- trace ---"]
    if len(recorded) > limit:
        lines.append(f"... {len(recorded) - limit} earlier spans elided ...")
    for span in recorded[-limit:]:
        attrs = "".join(
            f" {key}={value}" for key, value in sorted(span["attrs"].items())
        )
        indent = "  " * span["depth"]
        lines.append(
            f"{indent}{span['name']} {_fmt_seconds(span['duration']).strip()}{attrs}"
        )
    return "\n".join(lines)
