"""The synthetic population generator (repro.bitcoin.population).

The load-bearing property is determinism: a population is pure schedule,
derived entirely from its config — the swarm smoke's compact-on/off
differential only means something if both runs drive byte-identical
transaction streams.  The shape properties (power-law skew, bursty
arrivals) are asserted statistically on seeded draws.
"""

from random import Random

import pytest

from repro.bitcoin import population
from repro.bitcoin.chain import Blockchain
from repro.bitcoin.population import (
    PopulationConfig,
    SyntheticPopulation,
    fund_wallets,
    sim_chain_params,
)
from repro.bitcoin.wallet import Wallet


class TestConfig:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            PopulationConfig(wallets=0)


class TestDeterminism:
    def test_same_config_same_window_same_digest(self):
        cfg = PopulationConfig(wallets=50_000, seed=9)
        first = SyntheticPopulation(cfg).trace_digest(0.0, 7200.0)
        second = SyntheticPopulation(cfg).trace_digest(0.0, 7200.0)
        assert first == second

    def test_seed_and_window_decorrelate(self):
        base = SyntheticPopulation(PopulationConfig(wallets=50_000, seed=9))
        other = SyntheticPopulation(PopulationConfig(wallets=50_000, seed=10))
        assert base.trace_digest(0.0, 7200.0) != other.trace_digest(0.0, 7200.0)
        assert base.trace_digest(0.0, 7200.0) != base.trace_digest(
            7200.0, 7200.0
        )


class TestShape:
    def test_events_are_time_ordered_and_in_window(self):
        pop = SyntheticPopulation(PopulationConfig(wallets=10_000, seed=2))
        trace = pop.trace(1000.0, 6 * 3600.0)
        assert len(trace) > 50
        times = [at for at, _ in trace]
        assert times == sorted(times)
        assert all(1000.0 <= at < 1000.0 + 6 * 3600.0 for at in times)
        assert all(0 <= w < 10_000 for _, w in trace)

    def test_power_law_concentrates_activity(self):
        pop = SyntheticPopulation(PopulationConfig(wallets=100_000, seed=3))
        # Seeded draws follow the weights: the top 1% of wallets send most.
        trace = pop.trace(0.0, 24 * 3600.0)
        assert len(trace) > 300
        heavy = sum(1 for _, w in trace if w < 1_000)
        assert heavy / len(trace) > 0.4

    def test_million_wallet_population_is_cheap(self):
        pop = SyntheticPopulation(PopulationConfig(wallets=1_000_000, seed=4))
        rng = Random(0)
        picks = [pop.pick_wallet(rng) for _ in range(1_000)]
        assert all(0 <= p < 1_000_000 for p in picks)
        assert len(set(picks)) > 100  # the tail does get sampled

    def test_flat_alpha_is_uniform(self, monkeypatch):
        monkeypatch.setattr(population, "ALPHA", 0.0)
        pop = SyntheticPopulation(PopulationConfig(wallets=10_000, seed=5))
        rng = Random(5)
        picks = [pop.pick_wallet(rng) for _ in range(20_000)]
        top = sum(1 for p in picks if p < 100) / len(picks)
        assert top == pytest.approx(0.01, abs=0.005)


class TestFunding:
    def test_funded_outputs_spendable_on_a_sim_params_chain(self):
        wallets = [Wallet.from_seed(b"pop-fund-%d" % i) for i in range(8)]
        # Two planned spends each: two independent outputs each.
        blocks = fund_wallets([w.key_hash for w in wallets for _ in range(2)])
        chain = Blockchain(sim_chain_params())
        for block in blocks:
            assert chain.add_block(block)
        for wallet in wallets:
            assert len(wallet.spendables(chain)) == 2

    def test_funding_is_deterministic(self):
        keys = [Wallet.from_seed(b"pop-det-%d" % i).key_hash for i in range(5)]
        first = [b.hash for b in fund_wallets(keys)]
        second = [b.hash for b in fund_wallets(keys)]
        assert first == second
