"""A span-based tracer: nested wall-time regions with attributes.

``trace_span("chain.connect_block", height=h)`` opens a span; on exit the
span records its wall time, its parent (the span that was open when it
started), and its key/value attributes.  Span ids are assigned at entry so
children can name their parent even though parents finish last.  Finished
spans land in a bounded ring so a long simulation cannot grow memory
without limit, and a span may optionally feed its duration into a registry
histogram (``metric=...``) so tracing and metrics stay in sync at one call
site.

The tracer trusts the clock it is given for time, which tests replace with
a fake clock to get deterministic spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.obs.metrics import Registry


@dataclass
class Span:
    """One finished traced region."""

    span_id: int
    name: str
    start: float
    duration: float
    depth: int
    parent: int | None  # span_id of the enclosing span, if any
    attrs: dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "depth": self.depth,
            "parent": self.parent,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Collects finished spans, keeping at most ``max_spans`` of them."""

    def __init__(self, max_spans: int = 10_000):
        self.max_spans = max_spans
        self.spans: list[Span] = []
        self.dropped = 0
        self._open: list[_ActiveSpan] = []
        self._next_id = 0

    def record(self, span: Span) -> None:
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(span)

    def clear(self) -> None:
        self.spans.clear()
        self._open.clear()
        self.dropped = 0
        self._next_id = 0

    def snapshot(self) -> list[dict]:
        return [span.as_dict() for span in self.spans]


class _ActiveSpan:
    """Context manager for one open span (created only when enabled)."""

    __slots__ = ("tracer", "registry", "clock", "name", "metric", "attrs",
                 "span_id", "parent", "depth", "start")

    def __init__(
        self,
        tracer: Tracer,
        registry: Registry,
        clock: Callable[[], float],
        name: str,
        metric: str | None,
        attrs: dict[str, object],
    ):
        self.tracer = tracer
        self.registry = registry
        self.clock = clock
        self.name = name
        self.metric = metric
        self.attrs = attrs
        self.span_id = -1
        self.parent: int | None = None
        self.depth = 0
        self.start = 0.0

    def __enter__(self) -> "_ActiveSpan":
        stack = self.tracer._open
        self.span_id = self.tracer._next_id
        self.tracer._next_id += 1
        self.parent = stack[-1].span_id if stack else None
        self.depth = len(stack)
        stack.append(self)
        self.start = self.clock()
        return self

    def set_attr(self, key: str, value: object) -> None:
        """Attach an attribute discovered mid-span."""
        self.attrs[key] = value

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = self.clock() - self.start
        stack = self.tracer._open
        # Tolerate a child that leaked (e.g. an exception skipped its exit).
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self.tracer.record(
            Span(
                span_id=self.span_id,
                name=self.name,
                start=self.start,
                duration=duration,
                depth=self.depth,
                parent=self.parent,
                attrs=self.attrs,
            )
        )
        if self.metric is not None:
            self.registry.observe(self.metric, duration)
