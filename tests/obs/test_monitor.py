"""Runtime invariant monitors: sampling, strictness, and the checks."""

import pytest

from repro import obs
from repro.obs.monitor import (
    InvariantViolation,
    MonitorRegistry,
    cumulative_subsidy,
    monitors,
    set_monitors,
)

pytestmark = pytest.mark.obs


class StubUTXOs:
    def __init__(self, total=0, present=()):
        self._total = total
        self._present = set(present)

    def total_value(self):
        return self._total

    def get(self, outpoint):
        return object() if outpoint in self._present else None


class StubTip:
    def __init__(self, chain_work):
        self.chain_work = chain_work


class StubChain:
    def __init__(self, total=0, height=0, work=1, present=()):
        self.utxos = StubUTXOs(total, present)
        self.height = height
        self.tip = StubTip(work)
        self.store = None


class StubMempool:
    def __init__(self, spends=()):
        self._spends = list(spends)

    def spent_outpoints(self):
        return list(self._spends)


class StubNode:
    def __init__(self, chain, spends=()):
        self.name = "stub"
        self.chain = chain
        self.mempool = StubMempool(spends)


class TestCumulativeSubsidy:
    def test_genesis_counts(self):
        from repro.bitcoin.chain import INITIAL_SUBSIDY

        assert cumulative_subsidy(0) == INITIAL_SUBSIDY

    def test_first_era_is_linear(self):
        from repro.bitcoin.chain import HALVING_INTERVAL, INITIAL_SUBSIDY

        assert (
            cumulative_subsidy(HALVING_INTERVAL - 1)
            == HALVING_INTERVAL * INITIAL_SUBSIDY
        )

    def test_halving_boundary(self):
        from repro.bitcoin.chain import HALVING_INTERVAL, INITIAL_SUBSIDY

        assert cumulative_subsidy(HALVING_INTERVAL) == (
            HALVING_INTERVAL * INITIAL_SUBSIDY + INITIAL_SUBSIDY // 2
        )

    def test_matches_per_block_sum(self):
        from repro.bitcoin.chain import block_subsidy

        height = 25
        expected = sum(block_subsidy(h) for h in range(height + 1))
        assert cumulative_subsidy(height) == expected


class TestSamplingAndStrictness:
    def test_disabled_registry_never_checks(self):
        registry = MonitorRegistry(enabled=False)
        chain = StubChain(total=10**18)  # wildly inflated
        assert registry.check_supply(chain, force=True)
        assert registry.checks_run == 0
        assert registry.violations == []

    def test_sample_interval_skips_calls(self):
        registry = MonitorRegistry(enabled=True, sample_interval=4)
        chain = StubChain(total=0)
        for _ in range(8):
            registry.check_supply(chain)
        assert registry.checks_run == 2  # calls 0 and 4

    def test_force_bypasses_sampler(self):
        registry = MonitorRegistry(enabled=True, sample_interval=1000)
        chain = StubChain(total=0)
        registry.check_supply(chain)  # call 0 always runs
        for _ in range(5):
            registry.check_supply(chain, force=True)
        assert registry.checks_run == 6

    def test_normal_mode_counts_and_continues(self):
        registry = MonitorRegistry(enabled=True, strict=False)
        chain = StubChain(total=10**18, height=0)
        assert not registry.check_supply(chain, force=True)
        assert len(registry.violations) == 1
        assert registry.violations[0][0] == "supply"
        assert obs.registry().counter("monitor.violations_total").value == 1

    def test_strict_mode_raises(self):
        registry = MonitorRegistry(enabled=True, strict=True)
        chain = StubChain(total=10**18, height=0)
        with pytest.raises(InvariantViolation, match="supply"):
            registry.check_supply(chain, force=True)

    def test_violation_emits_event(self):
        registry = MonitorRegistry(enabled=True)
        registry.violate("supply", "made-up detail")
        events = obs.events().snapshot()
        assert events[-1]["kind"] == "monitor.violation"
        assert events[-1]["data"]["monitor"] == "supply"

    def test_reset_clears_state(self):
        registry = MonitorRegistry(enabled=True)
        registry.check_supply(StubChain(), force=True)
        registry.violate("supply", "x")
        registry.reset()
        assert registry.checks_run == 0
        assert registry.violations == []

    def test_set_monitors_returns_previous(self):
        fresh = MonitorRegistry(enabled=True)
        previous = set_monitors(fresh)
        try:
            assert monitors() is fresh
        finally:
            set_monitors(previous)


class TestChecks:
    def test_tip_work_monotone_ok(self):
        registry = MonitorRegistry(enabled=True)
        chain = StubChain(work=10)
        assert registry.check_tip_work(chain)
        chain.tip = StubTip(15)
        assert registry.check_tip_work(chain)

    def test_tip_work_regression_detected(self):
        registry = MonitorRegistry(enabled=True)
        chain = StubChain(work=10)
        registry.check_tip_work(chain)
        chain.tip = StubTip(5)
        assert not registry.check_tip_work(chain)
        assert registry.violations[0][0] == "tip_work"

    def test_tip_work_never_sampled_away(self):
        registry = MonitorRegistry(enabled=True, sample_interval=1000)
        chain = StubChain(work=10)
        for _ in range(5):
            registry.check_tip_work(chain)
        assert registry.checks_run == 5

    def test_mempool_disjoint_ok(self):
        outpoint = ("tx", 0)
        chain = StubChain(present=[outpoint])
        node = StubNode(chain, spends=[outpoint])
        registry = MonitorRegistry(enabled=True)
        assert registry.check_mempool_disjoint(node)

    def test_mempool_conflict_detected(self):
        node = StubNode(StubChain(), spends=[("gone", 1)])
        registry = MonitorRegistry(enabled=True)
        assert not registry.check_mempool_disjoint(node)
        assert registry.violations[0][0] == "mempool_disjoint"

    def test_store_offsets_uses_chain_store(self):
        class BadStore:
            def snapshot_offsets_consistent(self):
                return False

        chain = StubChain()
        chain.store = BadStore()
        node = StubNode(chain)
        registry = MonitorRegistry(enabled=True)
        assert not registry.check_store_offsets(node)
        assert registry.violations[0][0] == "store_offsets"

    def test_store_offsets_skip_without_store(self):
        registry = MonitorRegistry(enabled=True)
        assert registry.check_store_offsets(StubNode(StubChain()))
        assert registry.checks_run == 0


class TestLiveChain:
    """The checks against the real chain, not stubs."""

    def _node(self):
        from repro.bitcoin.chain import ChainParams
        from repro.bitcoin.network import Node, Simulation

        sim = Simulation(seed=5)
        params = ChainParams(
            max_target=2**252, retarget_window=2**31, require_pow=False
        )
        return Node("live", sim, params)

    def test_clean_node_passes_all(self):
        node = self._node()
        registry = MonitorRegistry(enabled=True, strict=True)
        assert registry.check_node(node)
        assert registry.checks_run >= 2
        assert registry.violations == []

    def test_inflation_fault_caught(self):
        from repro.bitcoin.faults import inject_supply_inflation

        node = self._node()
        inject_supply_inflation(node)
        registry = MonitorRegistry(enabled=True, strict=False)
        assert not registry.check_node(node)
        assert registry.violations[0][0] == "supply"

    def test_inflation_fault_raises_in_strict(self):
        from repro.bitcoin.faults import inject_supply_inflation

        node = self._node()
        inject_supply_inflation(node)
        registry = MonitorRegistry(enabled=True, strict=True)
        with pytest.raises(InvariantViolation, match="supply"):
            registry.check_node(node)

    def test_chaos_profile_passes_strict_monitors(self):
        """One chaos profile under strict monitors: zero violations.

        (scripts/monitor_smoke.py covers all four profiles; this keeps
        one representative in the tier-1 suite.)
        """
        from repro.bitcoin.faults import PROFILES, run_chaos

        obs.enable()
        registry = MonitorRegistry(
            enabled=True, strict=True, sample_interval=8
        )
        previous = set_monitors(registry)
        try:
            result = run_chaos(PROFILES["lossy"], seed=7)
        finally:
            set_monitors(previous)
        assert result.converged
        assert result.monitor_checks > 0
        assert result.monitor_violations == 0

    def test_mined_chain_stays_clean(self):
        from repro.bitcoin.network import PoissonMiner
        from repro.bitcoin.pow import block_work, target_to_bits

        node = self._node()
        rate = block_work(target_to_bits(2**252)) / 600.0
        registry = MonitorRegistry(
            enabled=True, strict=True, sample_interval=1
        )
        previous = set_monitors(registry)
        try:
            miner = PoissonMiner(node, rate, miner_id=1)
            miner.start()
            node.sim.run_until(4 * 3600.0)
        finally:
            set_monitors(previous)
        assert node.chain.height > 0
        if obs.ENABLED:  # chain hooks only fire on an instrumented run
            assert registry.checks_run > 0
        assert registry.violations == []
