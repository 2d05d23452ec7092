"""A2 (ablation) — convergence time under fault injection.

Paper §1, items 3–6: the security argument assumes honest nodes converge
on one most-work chain *despite* an imperfect network.  A1 varied only
latency; this ablation runs the named chaos profiles — sustained 10 %
loss, a two-way partition with divergent mining, a funded byzantine
peer, and all of them at once ("inferno") — and measures how long past
the fault window the honest nodes need to agree on a single tip with
identical UTXO sets.  If convergence failed, or the recovery tail grew
toward the partition length itself, confirmations made during faults
would be worthless and the paper's commitment guarantee would not
survive contact with a real network.
"""

from repro.bitcoin.faults import DURATION, PROFILES, run_chaos

SEED = 7
# Ordered mildest to nastiest so the printed table reads as a dose response.
PROFILE_ORDER = ("lossy", "partitioned", "byzantine", "inferno")


def run_profile(name, seed=SEED):
    profile = PROFILES[name]
    result = run_chaos(profile, seed=seed)
    recovery = (
        result.convergence_time - DURATION
        if result.convergence_time is not None
        else None
    )
    return {
        "profile": name,
        "seed": seed,
        "converged": result.converged,
        "utxo_consistent": result.utxo_consistent,
        # Seconds past the fault window until all honest tips agreed
        # (0.0 means they already agreed when the faults stopped).
        "recovery_seconds": max(0.0, recovery) if recovery is not None else None,
        "height": result.height,
        "blocks_found": result.blocks_found,
        "banned_by": len(result.byzantine_banned_by),
        "events": result.events_processed,
    }


def bench_a2_chaos_convergence():
    rows = [run_profile(name) for name in PROFILE_ORDER]

    print("\nA2: convergence under chaos profiles"
          f" (seed {SEED}, 600 s blocks, 6 nodes)")
    print(f"{'profile':>12} {'converged':>10} {'utxo ok':>8}"
          f" {'recovery':>10} {'height':>7} {'found':>6} {'bans':>5}")
    for row in rows:
        recovery = (
            f"{row['recovery_seconds']:>9.0f}s"
            if row["recovery_seconds"] is not None
            else "      never"
        )
        print(f"{row['profile']:>12} {str(row['converged']):>10}"
              f" {str(row['utxo_consistent']):>8} {recovery}"
              f" {row['height']:>7} {row['blocks_found']:>6}"
              f" {row['banned_by']:>5}")

    for row in rows:
        assert row["converged"], f"{row['profile']} did not converge"
        assert row["utxo_consistent"], f"{row['profile']} diverged UTXO state"
        # Recovery must be well inside the convergence budget — agreeing
        # only at the deadline would mean the network barely heals.
        assert row["recovery_seconds"] < 2 * 3600.0
    # The byzantine profiles end with the adversary banned by a neighbor.
    assert all(r["banned_by"] > 0 for r in rows if r["profile"] in
               ("byzantine", "inferno"))

