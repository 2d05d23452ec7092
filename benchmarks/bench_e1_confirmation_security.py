"""E1 — confirmation security (paper §1, items 5–6).

"As new blocks follow a transaction's block, his likelihood of success
drops exponentially" and "once a transaction has several subsequent blocks
(usually taken as five), it may be considered irreversible."

Regenerates the reversal-probability table: attacker share q × burial depth
z, from three models (Nakamoto's analytic Poisson approximation, the exact
negative-binomial curve, and the Monte-Carlo race simulator), plus a
spot-check of the full consensus-machinery simulator.
"""

import random

from repro.bitcoin.race import (
    nakamoto_reversal_probability,
    reversal_probability_exact,
    simulate_race,
    simulate_race_full,
)

Q_VALUES = (0.10, 0.20, 0.30)
DEPTHS = tuple(range(0, 7))


def reversal_table(trials=1500, seed=7):
    rng = random.Random(seed)
    rows = []
    for q in Q_VALUES:
        for z in DEPTHS:
            rows.append({
                "q": q,
                "z": z,
                "nakamoto": nakamoto_reversal_probability(q, z),
                "exact": reversal_probability_exact(q, z),
                "monte_carlo": simulate_race(q, z, trials, rng),
            })
    return rows


def bench_e1_reversal_probability_models(benchmark):
    rows = benchmark.pedantic(reversal_table, rounds=1, iterations=1)

    print("\nE1: P(reversal) by attacker share q and confirmations z")
    print(f"{'q':>5} {'z':>3} {'nakamoto':>10} {'exact':>10} {'monte carlo':>12}")
    for row in rows:
        print(
            f"{row['q']:>5.2f} {row['z']:>3d} {row['nakamoto']:>10.5f}"
            f" {row['exact']:>10.5f} {row['monte_carlo']:>12.5f}"
        )

    by_key = {(round(r["q"], 2), r["z"]): r for r in rows}
    # Shape 1: z=0 is always reversible; probability decays with depth.
    for q in Q_VALUES:
        series = [by_key[(q, z)]["exact"] for z in DEPTHS]
        assert series[0] == 1.0
        assert all(a > b for a, b in zip(series, series[1:]))
    # Shape 2: the paper's operating point — a minority attacker against
    # ~6 confirmations is negligible.
    assert by_key[(0.10, 6)]["exact"] < 0.005
    # Shape 3: Monte Carlo tracks the exact curve.
    for row in rows:
        assert abs(row["monte_carlo"] - row["exact"]) < 0.05
    # Shape 4: stronger attackers do strictly better at every depth.
    for z in DEPTHS[1:]:
        assert by_key[(0.30, z)]["exact"] > by_key[(0.10, z)]["exact"]

    benchmark.extra_info["table"] = rows


def bench_e1_full_consensus_spot_check(benchmark):
    """A handful of races on real Blockchain objects (reorgs included)."""

    def run():
        outcomes = [
            simulate_race_full(0.30, 2, sim_seed=seed, horizon_blocks=120)
            for seed in range(12)
        ]
        return sum(o.attacker_won for o in outcomes) / len(outcomes)

    win_rate = benchmark.pedantic(run, rounds=1, iterations=1)
    exact = reversal_probability_exact(0.30, 2)
    print(f"\nE1 spot check: full-simulator win rate {win_rate:.2f} vs exact"
          f" {exact:.2f} (q=0.30, z=2)")
    # Wide tolerance: 12 trials of a ~0.43 Bernoulli.
    assert abs(win_rate - exact) < 0.35


if __name__ == "__main__":
    from obs_harness import run_standalone

    run_standalone(
        bench_e1_reversal_probability_models,
        bench_e1_full_consensus_spot_check,
    )
