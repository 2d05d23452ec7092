"""Runtime invariant monitors: cheap sampled checks on live state.

Tests assert invariants after the fact; monitors assert them *while the
simulation runs*, at block connect/disconnect and chaos-scenario
boundaries, so a violation is caught within one block of the bug that
caused it — with the event log still holding the events that led up to
it.

The catalogue (each named like the metric label it reports under):

``supply``
    UTXO value conservation: the sum of all unspent output values never
    exceeds the cumulative subsidy schedule for the active height.  An
    inequality, not an equality — OP_RETURN burns and under-claimed
    coinbases destroy value legitimately; *creating* value is the bug.
``tip_work``
    Chain-work monotonicity of the active tip: ``add_block`` may only
    ever move the tip to equal-or-greater cumulative work.  Checked at
    the *end* of ``add_block`` (never mid-reorg, where intermediate
    connects legitimately sit below the old tip's work).
``mempool_disjoint``
    Every outpoint a pooled transaction spends is still unspent in the
    chain's UTXO set (chained unconfirmed spends are unsupported, so
    any miss means the pool holds a conflicted transaction).
``store_offsets``
    The durable store's manifest snapshot offsets stay within the bytes
    actually written to the block/undo logs.

Checks run sampled (every ``sample_interval``-th call per monitor) so
the instrumented hot path stays cheap; ``force=True`` bypasses the
sampler at scenario boundaries.  In normal mode a violation counts —
``monitor.violations_total`` plus a ``monitor.violation`` event — and
the run continues; in strict mode it
raises :class:`InvariantViolation` so tests fail at the exact block.

Like the rest of :mod:`repro.obs`, call sites guard on ``obs.ENABLED``:
a disabled run never reaches the monitors.
"""

from __future__ import annotations

__all__ = [
    "InvariantViolation",
    "MonitorRegistry",
    "cumulative_subsidy",
    "monitors",
    "set_monitors",
]


class InvariantViolation(AssertionError):
    """A runtime invariant monitor found live state that cannot happen."""


def cumulative_subsidy(height: int) -> int:
    """Maximum satoshis in existence once block ``height`` is connected.

    Closed-form sum of :func:`repro.bitcoin.chain.block_subsidy` over
    heights ``0..height`` (the genesis coinbase counts: it sits in the
    UTXO set even though it is unspendable by convention).
    """
    from repro.bitcoin.chain import HALVING_INTERVAL, INITIAL_SUBSIDY

    total = 0
    remaining = height + 1
    era = 0
    while remaining > 0 and era < 64:
        in_era = min(remaining, HALVING_INTERVAL)
        total += in_era * (INITIAL_SUBSIDY >> era)
        remaining -= in_era
        era += 1
    return total


class MonitorRegistry:
    """The monitor switchboard: sampling, counting, and strictness.

    ``enabled`` gates everything (monitors are opt-in even on an
    instrumented run, so benchmark trajectories stay comparable);
    ``strict`` turns violations into raises; ``sample_interval=N`` runs
    each named check on every N-th call (1 = every call).
    """

    def __init__(
        self,
        enabled: bool = False,
        strict: bool = False,
        sample_interval: int = 16,
    ):
        self.enabled = enabled
        self.strict = strict
        self.sample_interval = max(1, sample_interval)
        self.checks_run = 0
        self.violations: list[tuple[str, str]] = []
        self._calls: dict[str, int] = {}

    def reset(self) -> None:
        self.checks_run = 0
        self.violations.clear()
        self._calls.clear()

    # ------------------------------------------------------------------
    # Core machinery
    # ------------------------------------------------------------------

    def _sampled(self, name: str, force: bool) -> bool:
        """Whether this call of monitor ``name`` should actually check."""
        if not self.enabled:
            return False
        if force:
            return True
        count = self._calls.get(name, 0)
        self._calls[name] = count + 1
        return count % self.sample_interval == 0

    def violate(self, name: str, detail: str) -> None:
        """Record one violation; raises in strict mode."""
        from repro import obs

        self.violations.append((name, detail))
        obs.inc("monitor.violations_total")
        obs.emit("monitor.violation", monitor=name, detail=detail)
        if self.strict:
            raise InvariantViolation(f"{name}: {detail}")

    # ------------------------------------------------------------------
    # The checks
    # ------------------------------------------------------------------

    def check_supply(self, chain, force: bool = False) -> bool:
        """UTXO value conservation against the subsidy schedule."""
        if not self._sampled("supply", force):
            return True
        self.checks_run += 1
        total = chain.utxos.total_value()
        ceiling = cumulative_subsidy(chain.height)
        if total > ceiling:
            self.violate(
                "supply",
                f"UTXO value {total} exceeds cumulative subsidy "
                f"{ceiling} at height {chain.height}",
            )
            return False
        return True

    def check_tip_work(self, chain, force: bool = False) -> bool:
        """Chain-work monotonicity of the active tip across add_block."""
        if not self.enabled:
            return True
        # Never sampled away: the check is one integer compare, and a
        # missed regression here cannot be caught later (the attribute
        # would have already advanced).
        self.checks_run += 1
        work = chain.tip.chain_work
        last = getattr(chain, "_monitor_tip_work", None)
        chain._monitor_tip_work = work
        if last is not None and work < last:
            self.violate(
                "tip_work",
                f"active tip work regressed {last} -> {work} "
                f"at height {chain.height}",
            )
            return False
        return True

    def check_mempool_disjoint(self, node, force: bool = False) -> bool:
        """Pooled spends must target outpoints still unspent on chain."""
        if not self._sampled("mempool_disjoint", force):
            return True
        self.checks_run += 1
        chain = node.chain
        for outpoint in node.mempool.spent_outpoints():
            if chain.utxos.get(outpoint) is None:
                self.violate(
                    "mempool_disjoint",
                    f"{node.name}: mempool spends {outpoint} which is "
                    f"not unspent in the UTXO set",
                )
                return False
        return True

    def check_store_offsets(self, node, force: bool = False) -> bool:
        """Manifest snapshot offsets stay within the written log bytes."""
        store = getattr(node.chain, "store", None)
        if store is None:
            return True
        if not self._sampled("store_offsets", force):
            return True
        self.checks_run += 1
        if not store.snapshot_offsets_consistent():
            self.violate(
                "store_offsets",
                f"{node.name}: manifest snapshot offsets exceed the "
                f"block/undo log tails",
            )
            return False
        return True

    def check_node(self, node, force: bool = False) -> bool:
        """Every per-node invariant at once (chaos-scenario boundaries)."""
        ok = self.check_supply(node.chain, force=force)
        ok = self.check_mempool_disjoint(node, force=force) and ok
        ok = self.check_store_offsets(node, force=force) and ok
        return ok


# The process-wide monitor registry, disabled by default.  Swapped by
# tests the same way the metrics registry is.
_monitors = MonitorRegistry()


def monitors() -> MonitorRegistry:
    return _monitors


def set_monitors(registry: MonitorRegistry) -> MonitorRegistry:
    global _monitors
    previous = _monitors
    _monitors = registry
    return previous
