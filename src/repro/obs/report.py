"""Human-readable breakdown of an observability snapshot.

The benchmarks call :func:`render_report` after their headline numbers so
every ``bench_*`` run shows how much work each stage did: counters,
gauges, and how many events were recorded.  Works from a snapshot dict
(so it can render saved JSON as well as the live registry).
"""

from __future__ import annotations

from repro import obs


def render_report(snapshot: dict | None = None, title: str = "observability") -> str:
    """Format counters and gauges as an aligned table."""
    snap = snapshot if snapshot is not None else obs.snapshot()
    lines = [f"--- {title}: per-stage breakdown ---"]

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

    event_list = snap.get("events", [])
    if event_list:
        lines.append(f"events recorded: {len(event_list)}"
                     + (f" (dropped {snap['events_dropped']})"
                        if snap.get("events_dropped") else ""))
    return "\n".join(lines)
