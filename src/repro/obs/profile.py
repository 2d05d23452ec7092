"""Continuous profiling: a deterministic phase ledger and a stack sampler.

Two complementary profilers, both opt-in and both zero-cost when no
profiler is installed:

* :class:`PhaseProfiler` — a *deterministic* cost ledger keyed by the
  fixed :data:`PHASES` taxonomy.  Instrumented call sites (and every
  span the tracer opens) enter/exit a named phase; the profiler
  attributes **self time** — a phase's wall seconds minus the seconds
  spent in nested phases — so the per-phase totals never double-count
  and sum to at most the profiled wall time.  ``track_alloc=True``
  additionally records net ``tracemalloc`` allocation deltas per phase.

* :class:`StackSampler` — a ``sys.setprofile`` call-stack profiler that
  accumulates wall time per call stack and emits collapsed-stack
  ("folded") output: one ``frame;frame;frame value`` line per unique
  stack, the format speedscope, FlameGraph, and ``inferno`` load
  directly.  Heavyweight (it hooks every Python call), so it is meant
  for one-off investigations.

Recursion within one phase is collapsed: re-entering the phase at the
top of the stack costs two integer operations, not a clock read, so the
recursive typechecker and proof checker can hook their per-node entry
points without distorting the numbers they measure.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from typing import Callable

__all__ = [
    "PHASES",
    "PHASE_NAMES",
    "PROFILE_SCHEMA",
    "PhaseLedger",
    "PhaseProfiler",
    "StackSampler",
    "parse_folded",
    "phase_of",
]

# Bump when the ledger snapshot shape changes.
PROFILE_SCHEMA = "repro.profile/1"

# The fixed phase taxonomy: every profiled second lands in exactly one
# of these.  Order is documentation (pipeline order); snapshots sort by
# name.  See docs/profiling.md for the call-site catalogue.
PHASES: tuple[tuple[str, str], ...] = (
    ("parse", "wire decoding: block and transaction deserialization"),
    ("script", "script interpreter execution"),
    ("sighash", "signature-hash serialization (cache misses)"),
    ("ecmult", "elliptic-curve scalar multiplication"),
    ("sigcache", "signature-cache lookups and inserts"),
    ("utxo_apply", "UTXO set block apply"),
    ("utxo_undo", "UTXO set block undo (reorg rollback)"),
    ("chain_connect", "block connect orchestration"),
    ("miner_template", "block template assembly"),
    ("store_append", "durable store appends (incl. fsync)"),
    ("store_snapshot", "UTXO snapshot writes (incl. fsync)"),
    ("store_recover", "store recovery replay"),
    ("lf_typecheck", "LF type/kind synthesis (paper's dependent types)"),
    ("logic_check", "affine proof checking"),
    ("core_verify", "claim verification incl. upstream-set walks"),
    ("core_batch", "batch-mode upstream-set checks and composition"),
    ("service", "verification-service orchestration (admission, fan-out)"),
    ("other", "spans outside the taxonomy"),
)

PHASE_NAMES: frozenset[str] = frozenset(name for name, _ in PHASES)

# Exact span-name -> phase attribution for the spans the pipeline emits.
_SPAN_PHASES: dict[str, str] = {
    "chain.connect_block": "chain_connect",
    "utxo.apply_block": "utxo_apply",
    "utxo.undo_block": "utxo_undo",
    "miner.build_template": "miner_template",
    "store.recover": "store_recover",
    "proof.check": "logic_check",
    "verify.claim": "core_verify",
}

# Fallback: a span's dotted prefix names its subsystem.
_PREFIX_PHASES: dict[str, str] = {
    "batch": "core_batch",
    "verify": "core_verify",
    "proof": "logic_check",
    "lf": "lf_typecheck",
    "service": "service",
}


def phase_of(span_name: str) -> str:
    """The taxonomy phase a span name is attributed to (``other`` if none)."""
    phase = _SPAN_PHASES.get(span_name)
    if phase is not None:
        return phase
    return _PREFIX_PHASES.get(span_name.partition(".")[0], "other")


class PhaseLedger:
    """Accumulated per-phase cost: self seconds, calls, net alloc bytes."""

    __slots__ = ("seconds", "calls", "alloc_bytes")

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.alloc_bytes: dict[str, int] = {}

    def count(self, phase: str, calls: int = 1) -> None:
        self.calls[phase] = self.calls.get(phase, 0) + calls

    def add(self, phase: str, seconds: float, alloc_bytes: int = 0) -> None:
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        if alloc_bytes:
            self.alloc_bytes[phase] = (
                self.alloc_bytes.get(phase, 0) + alloc_bytes
            )

    def clear(self) -> None:
        self.seconds.clear()
        self.calls.clear()
        self.alloc_bytes.clear()

    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def phases(self) -> dict[str, dict]:
        """Deterministic ``{phase: {seconds, calls[, alloc_bytes]}}`` view
        of every touched phase, sorted by phase name."""
        out: dict[str, dict] = {}
        for phase in sorted(set(self.calls) | set(self.seconds)):
            cost: dict = {
                "seconds": self.seconds.get(phase, 0.0),
                "calls": self.calls.get(phase, 0),
            }
            if phase in self.alloc_bytes:
                cost["alloc_bytes"] = self.alloc_bytes[phase]
            out[phase] = cost
        return out


class PhaseProfiler:
    """Deterministic self-time attribution over the :data:`PHASES` taxonomy.

    Install with :func:`repro.obs.set_profiler`; instrumented call sites
    and the span tracer then feed :meth:`enter`/:meth:`exit` pairs.  The
    enter/exit discipline is structural (``with`` blocks and
    ``try/finally``), so the stack never desynchronizes; a stray
    :meth:`exit` on an empty stack is a no-op rather than an error.

    ``track_alloc=True`` starts ``tracemalloc`` (if not already tracing)
    and attributes *net* allocation deltas per phase with the same
    child-subtraction rule as wall time — frees can make a phase's
    bytes negative.
    """

    __slots__ = ("ledger", "track_alloc", "checkpoints", "_clock", "_stack",
                 "_started_tracemalloc")

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        track_alloc: bool = False,
    ) -> None:
        if clock is None:
            from repro import obs

            clock = obs.clock
        self._clock = clock
        self.ledger = PhaseLedger()
        self.track_alloc = track_alloc
        self._started_tracemalloc = False
        if track_alloc and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        # Stack entries: [phase, start, child_seconds, reentries,
        #                 alloc_start, child_alloc].
        self._stack: list[list] = []
        # (timestamp, {phase: self_seconds}) samples for counter tracks.
        self.checkpoints: list[tuple[float, dict[str, float]]] = []

    # -- recording -------------------------------------------------------

    def enter(self, phase: str) -> None:
        """Open a phase region (must be paired with :meth:`exit`).

        Re-entering the phase already at the top of the stack (direct or
        mutual recursion within one phase) only bumps a counter — the
        region stays open until the matching exits unwind.
        """
        stack = self._stack
        self.ledger.count(phase)
        if stack and stack[-1][0] == phase:
            stack[-1][3] += 1
            return
        alloc = (
            tracemalloc.get_traced_memory()[0] if self.track_alloc else 0
        )
        stack.append([phase, self._clock(), 0.0, 1, alloc, 0])

    def exit(self) -> None:
        """Close the innermost phase region, attributing its self time."""
        stack = self._stack
        if not stack:
            return
        top = stack[-1]
        if top[3] > 1:
            top[3] -= 1
            return
        stack.pop()
        elapsed = self._clock() - top[1]
        alloc_delta = 0
        if self.track_alloc:
            alloc_delta = tracemalloc.get_traced_memory()[0] - top[4]
        self.ledger.add(top[0], elapsed - top[2], alloc_delta - top[5])
        if stack:
            parent = stack[-1]
            parent[2] += elapsed
            parent[5] += alloc_delta

    # -- span-tracer hooks (see repro.obs.trace._ActiveSpan) --------------

    def span_enter(self, name: str) -> None:
        self.enter(phase_of(name))

    def span_exit(self) -> None:
        self.exit()

    # -- export ------------------------------------------------------------

    def checkpoint(self) -> None:
        """Record a ``(now, per-phase self seconds)`` sample.

        A sequence of checkpoints renders as a Perfetto counter track via
        :func:`repro.obs.export.phase_counter_events`.  Only *completed*
        regions are visible; time inside still-open phases lands at their
        exit.
        """
        self.checkpoints.append(
            (self._clock(), dict(self.ledger.seconds))
        )

    def snapshot(self) -> dict:
        """Deterministic JSON-able ledger view (the trajectory shape)."""
        return {
            "schema": PROFILE_SCHEMA,
            "track_alloc": self.track_alloc,
            "phases": self.ledger.phases(),
        }

    def reset(self) -> None:
        self.ledger.clear()
        self._stack.clear()
        self.checkpoints.clear()

    def close(self) -> None:
        """Stop tracemalloc if this profiler started it."""
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._started_tracemalloc = False


class StackSampler:
    """A ``sys.setprofile`` wall-time profiler emitting folded stacks.

    Attributes the time between consecutive call/return events to the
    call stack active during that interval, keyed by
    ``module.qualname`` frames.  C calls are not pushed — their time
    accrues to the Python frame that made them.  Per-thread (the hook
    only sees the installing thread) and *expensive*: every Python call
    pays for two dict operations and a clock read, so keep it out of
    recorded benchmark trajectories.

    ``folded()`` renders ``frame;frame;frame microseconds`` lines —
    load them in speedscope (https://www.speedscope.app) or feed them
    to ``flamegraph.pl``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._stacks: dict[tuple[str, ...], float] = {}
        self._frames: list[str] = []
        self._last = 0.0
        self._previous_hook = None
        self.installed = False

    @staticmethod
    def _label(frame) -> str:
        code = frame.f_code
        module = frame.f_globals.get("__name__", "?")
        qualname = getattr(code, "co_qualname", code.co_name)
        return f"{module}.{qualname}"

    def _flush(self, now: float) -> None:
        if self._frames:
            key = tuple(self._frames)
            self._stacks[key] = self._stacks.get(key, 0.0) + (now - self._last)
        self._last = now

    def _hook(self, frame, event: str, arg) -> None:
        if event == "call":
            self._flush(self._clock())
            self._frames.append(self._label(frame))
        elif event == "return":
            self._flush(self._clock())
            if self._frames:
                self._frames.pop()
        # c_call/c_return/c_exception: time stays on the Python frame.

    def install(self) -> None:
        """Start sampling on the current thread."""
        if self.installed:
            return
        self._previous_hook = sys.getprofile()
        self._frames.clear()
        self._last = self._clock()
        self.installed = True
        sys.setprofile(self._hook)

    def uninstall(self) -> None:
        """Stop sampling and restore the previous profile hook."""
        if not self.installed:
            return
        sys.setprofile(self._previous_hook)
        self._flush(self._clock())
        self._frames.clear()
        self.installed = False

    def __enter__(self) -> "StackSampler":
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()

    def folded(self) -> str:
        """Collapsed-stack output: ``frame;frame value`` per unique stack.

        Values are integer microseconds; zero-weight stacks are dropped.
        Lines are sorted for determinism under a fixed clock.
        """
        lines = []
        for stack in sorted(self._stacks):
            micros = round(self._stacks[stack] * 1e6)
            if micros > 0:
                lines.append(f"{';'.join(stack)} {micros}")
        return "\n".join(lines) + ("\n" if lines else "")

    def clear(self) -> None:
        self._stacks.clear()


def parse_folded(text: str) -> list[tuple[list[str], int]]:
    """Parse collapsed-stack text into ``(frames, value)`` entries.

    Raises :class:`ValueError` on any malformed line — the shape check
    the profiling smoke (and speedscope compatibility) rides on: every
    non-empty line is ``frame(;frame)* <non-negative integer>``.
    """
    entries: list[tuple[list[str], int]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        stack_part, sep, value_part = line.rpartition(" ")
        if not sep or not stack_part:
            raise ValueError(f"folded line {lineno}: missing value: {line!r}")
        try:
            value = int(value_part)
        except ValueError as exc:
            raise ValueError(
                f"folded line {lineno}: non-integer value {value_part!r}"
            ) from exc
        if value < 0:
            raise ValueError(f"folded line {lineno}: negative value {value}")
        frames = stack_part.split(";")
        if any(not frame for frame in frames):
            raise ValueError(f"folded line {lineno}: empty frame: {line!r}")
        entries.append((frames, value))
    return entries
