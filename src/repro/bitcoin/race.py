"""The attacker race (paper §1 item 5, experiment E1): the chance that an
attacker with hashpower share ``q`` reverses a transaction buried ``z``
blocks deep — Nakamoto's analytic curve, the exact sum, a Monte-Carlo
walk, and the same race on real chain objects in the network simulator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.bitcoin.chain import ChainParams
from repro.bitcoin.network import Node, PoissonMiner, Simulation
from repro.bitcoin.pow import block_work


def nakamoto_reversal_probability(q: float, z: int) -> float:
    """Nakamoto's analytic probability that an attacker with hashpower
    fraction ``q`` ever reverses a transaction buried ``z`` blocks deep.

    P = 1 - Σ_{k=0}^{z} e^{-λ} λ^k / k! · (1 - (q/p)^{z-k}),  λ = z·q/p.
    """
    if not 0 <= q < 0.5:
        raise ValueError("attacker share must be in [0, 0.5)")
    if z < 0:
        raise ValueError("depth must be non-negative")
    if q == 0:
        return 0.0 if z > 0 else 1.0
    p = 1.0 - q
    lam = z * q / p
    total = 0.0
    for k in range(z + 1):
        poisson = math.exp(-lam) * lam**k / math.factorial(k)
        total += poisson * (1.0 - (q / p) ** (z - k))
    return 1.0 - total


def simulate_race(
    q: float,
    z: int,
    trials: int,
    rng: random.Random,
    max_deficit: int = 60,
) -> float:
    """Monte-Carlo estimate of the reversal probability.

    Each trial: the attacker pre-mines while the honest network produces the
    ``z`` confirmation blocks (each new block is the attacker's with
    probability q), then the remaining race is a biased random walk the
    attacker wins by ever pulling level — Nakamoto's success criterion,
    since a tied private chain released strategically out-paces the public
    one.  A deficit beyond ``max_deficit`` is scored as a loss (the tail is
    astronomically small).
    """
    if q == 0:
        return 0.0
    wins = 0
    rand = rng.random  # bound-method hoist: ~2M draws per table row
    floor = -max_deficit
    for _ in range(trials):
        # Phase 1: attacker mines privately while z honest blocks appear.
        attacker = 0
        honest = 0
        while honest < z:
            if rand() < q:
                attacker += 1
            else:
                honest += 1
        deficit = honest - attacker
        if deficit <= 0:
            wins += 1
            continue
        # Phase 2: gambler's-ruin walk from -deficit toward 0 (a tie).
        position = -deficit
        while floor < position < 0:
            position += 1 if rand() < q else -1
        if position >= 0:
            wins += 1
    return wins / trials


def reversal_probability_exact(q: float, z: int, max_lead: int = 400) -> float:
    """Exact reversal probability under the same model as the simulator.

    The attacker's block count while the honest chain mines its ``z``
    confirmations is negative-binomially distributed (Nakamoto approximates
    it with a Poisson); from a deficit d the catch-up probability is
    (q/p)^d.  Summing gives the exact curve :func:`simulate_race` estimates.
    """
    if not 0 <= q < 0.5:
        raise ValueError("attacker share must be in [0, 0.5)")
    if q == 0:
        return 0.0 if z > 0 else 1.0
    if z == 0:
        return 1.0
    p = 1.0 - q
    ratio = q / p
    total = 0.0
    for k in range(z + max_lead):
        # P(attacker has k blocks when the z-th honest block appears).
        weight = math.comb(z + k - 1, k) * p**z * q**k
        catch_up = 1.0 if k >= z else ratio ** (z - k)
        total += weight * catch_up
    return total


@dataclass
class RaceOutcome:
    """Result of one full-simulator double-spend race."""

    attacker_won: bool
    honest_blocks: int
    attacker_blocks: int
    duration: float


def simulate_race_full(
    q: float,
    z: int,
    sim_seed: int,
    horizon_blocks: int = 200,
) -> RaceOutcome:
    """One attacker-vs-network race on real chain objects.

    An honest miner (share 1-q) and an attacker (share q) mine from the same
    genesis; the attacker withholds blocks (its own chain) and wins if its
    branch ever exceeds the honest branch's work after the honest branch has
    buried the victim transaction ``z`` deep.  This validates the abstract
    walk in :func:`simulate_race` against full consensus machinery — when
    the attacker finally announces its branch, honest nodes *reorganize to
    it*, demonstrating the state reversal the paper guards against.
    """
    sim = Simulation(seed=sim_seed)
    params = ChainParams(
        max_target=2**252, retarget_window=2**31, require_pow=False
    )
    honest_node = Node("honest", sim, params)
    attacker_node = Node("attacker", sim, params)
    # The attacker is *not* connected: it mines in private.  Scale total
    # hashpower so the network-wide block interval is the canonical 600 s.
    total_rate = block_work(
        honest_node.chain.required_bits(honest_node.chain.tip.block.hash)
    ) / 600.0
    honest_miner = PoissonMiner(honest_node, total_rate * (1 - q), miner_id=1)
    attacker_miner = PoissonMiner(attacker_node, total_rate * q, miner_id=2)
    honest_miner.start()
    attacker_miner.start()

    def attacker_caught_up() -> bool:
        # Nakamoto's criterion: a private chain that has pulled *level* wins,
        # since the attacker releases it the moment it edges ahead.
        return honest_node.chain.height >= z and (
            attacker_node.chain.tip.chain_work
            >= honest_node.chain.tip.chain_work
        )

    def race_open() -> bool:
        if honest_node.chain.height >= horizon_blocks:
            return False
        return not attacker_caught_up()

    sim.run_while(race_open, limit=1e12)
    won = attacker_caught_up()
    if won and (
        attacker_node.chain.tip.chain_work > honest_node.chain.tip.chain_work
    ):
        # Publish the private branch: the honest node reorganizes onto it
        # (a tie is a win on paper but only a strictly heavier branch
        # displaces the public chain).
        branch = []
        entry = attacker_node.chain.tip
        while entry.prev is not None:
            branch.append(entry.block)
            entry = attacker_node.chain.entry(entry.prev)
        for block in reversed(branch):
            honest_node.submit_block(block)
    return RaceOutcome(
        attacker_won=won,
        honest_blocks=honest_node.chain.height,
        attacker_blocks=attacker_node.chain.height,
        duration=sim.now,
    )
