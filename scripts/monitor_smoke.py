"""Strict-monitor smoke: chaos profiles must run violation-free.

Driven by ``scripts/check.sh --monitors``.  Enables observability and
the runtime invariant monitors (:mod:`repro.obs.monitor`) in **strict**
mode — any violated invariant raises at the exact block — then runs
every named chaos profile.  Each must converge exactly as it does
unmonitored, with a non-zero check count and zero violations.  Then a
store-backed node is killed mid-write, once per damage mode, and must
recover and rejoin with the ``store_offsets`` invariant checked at least
once (no chaos profile runs a store).

As a positive control, the script then injects a supply-inflation fault
(:func:`repro.bitcoin.faults.inject_supply_inflation`) into a fresh node
and asserts the ``supply`` monitor actually catches it — a gate that
always reports zero violations because the checks never ran would pass
silently otherwise.

Usage::

    PYTHONPATH=src python scripts/monitor_smoke.py [seed]
"""

import sys
import tempfile

from repro import obs
from repro.obs.monitor import InvariantViolation, MonitorRegistry, set_monitors

SMOKE_PROFILES = ("lossy", "partitioned", "byzantine", "inferno")
TORN_WRITE_MODES = ("truncate", "corrupt")


def main(seed: int = 7) -> int:
    obs.enable()
    from repro.bitcoin.faults import (
        PROFILES,
        inject_supply_inflation,
        run_chaos,
        run_kill_mid_write,
    )
    from repro.store import BlockStore
    from repro.bitcoin.network import Node, Simulation
    from repro.bitcoin.chain import ChainParams

    print(f"monitor smoke: strict invariants over"
          f" {', '.join(SMOKE_PROFILES)} (seed {seed})")
    for name in SMOKE_PROFILES:
        obs.reset()
        registry = MonitorRegistry(enabled=True, strict=True, sample_interval=8)
        set_monitors(registry)
        try:
            result = run_chaos(PROFILES[name], seed=seed)
        except InvariantViolation as exc:
            print(f"error: profile {name!r} violated an invariant: {exc}",
                  file=sys.stderr)
            return 1
        print(f"  {name:>12}: converged={result.converged}"
              f" checks={result.monitor_checks}"
              f" violations={result.monitor_violations}")
        if not result.converged:
            print(f"error: profile {name!r} did not converge under monitors",
                  file=sys.stderr)
            return 1
        if result.monitor_checks == 0:
            print(f"error: profile {name!r} ran zero monitor checks",
                  file=sys.stderr)
            return 1
        if result.monitor_violations != 0:
            print(f"error: profile {name!r} reported violations",
                  file=sys.stderr)
            return 1

    # The fourth invariant needs a store: count the checks it runs.
    store_checks = 0
    consistent = BlockStore.snapshot_offsets_consistent

    def counted(store):
        nonlocal store_checks
        store_checks += 1
        return consistent(store)

    BlockStore.snapshot_offsets_consistent = counted
    try:
        for mode in TORN_WRITE_MODES:
            obs.reset()
            set_monitors(MonitorRegistry(enabled=True, strict=True))
            before = store_checks
            with tempfile.TemporaryDirectory(prefix="monitor-smoke-") as root:
                try:
                    result = run_kill_mid_write(root, seed=seed, mode=mode)
                except InvariantViolation as exc:
                    print(f"error: kill-mid-write {mode!r} violated an"
                          f" invariant: {exc}", file=sys.stderr)
                    return 1
            checked = store_checks - before
            print(f"  {mode:>12}: kill-mid-write ok={result.ok}"
                  f" store_offsets checks={checked}")
            if not result.ok:
                print(f"error: kill-mid-write {mode!r} did not recover and"
                      f" rejoin", file=sys.stderr)
                return 1
            if checked == 0:
                print(f"error: kill-mid-write {mode!r} never checked"
                      f" store_offsets", file=sys.stderr)
                return 1
    finally:
        BlockStore.snapshot_offsets_consistent = consistent

    # Positive control: a conjured-from-nowhere UTXO must be caught.
    obs.reset()
    registry = MonitorRegistry(enabled=True, strict=False)
    set_monitors(registry)
    sim = Simulation(seed=seed)
    params = ChainParams(
        max_target=2**252, retarget_window=2**31, require_pow=False
    )
    node = Node("canary", sim, params)
    inject_supply_inflation(node)
    registry.check_node(node)
    if not registry.violations:
        print("error: supply-inflation fault went undetected",
              file=sys.stderr)
        return 1
    print(f"  positive control: inflation caught"
          f" ({registry.violations[0][0]})")
    print("ok: monitor smoke passed")
    return 0


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    raise SystemExit(main(seed))
