#!/usr/bin/env bash
# Tier-1 gate: the full test suite must pass with observability off (the
# default) and on (REPRO_OBS=1), proving instrumentation never changes
# behavior. Each flag adds one seeded smoke:
#   --bench     the paper experiments gated on their asserts and exact work
#               counts (benchmarks/runner.py), then the reachability gate
#               (scripts/reach.py: every src/repro function runs under an
#               entry point or is listed in scripts/reach_allow.txt; about
#               three minutes), then the repository benchmark's smoke sizes
#               and its own tests (bench/run.py --smoke, bench/tests)
#   --monitors  the chaos profiles under strict runtime invariant monitors
#               (scripts/monitor_smoke.py)
#   --service   verification-service chaos (scripts/service_smoke.py)
#   --swarm     the 200-node population-driven compact-relay differential
#               (scripts/swarm_smoke.py)
# Run from anywhere; paths resolve relative to the repo root.
set -euo pipefail

run_bench=0
run_monitors=0
run_service=0
run_swarm=0
for arg in "$@"; do
  case "$arg" in
    --bench) run_bench=1 ;;
    --monitors) run_monitors=1 ;;
    --service) run_service=1 ;;
    --swarm) run_swarm=1 ;;
    *) echo "usage: $0 [--bench] [--monitors] [--service] [--swarm]" >&2; exit 2 ;;
  esac
done

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1: observability disabled =="
env -u REPRO_OBS python -m pytest -x -q

echo "== tier-1: observability enabled (REPRO_OBS=1) =="
REPRO_OBS=1 python -m pytest -x -q

echo "ok: suite passes with observability off and on"

if [ "$run_monitors" = 1 ]; then
  echo "== monitors: chaos profiles under strict invariant monitors =="
  python scripts/monitor_smoke.py
fi

if [ "$run_service" = 1 ]; then
  echo "== service: seeded verification-service chaos smoke =="
  env -u REPRO_OBS python scripts/service_smoke.py
fi

if [ "$run_swarm" = 1 ]; then
  echo "== swarm: 200-node compact-relay differential smoke =="
  env -u REPRO_OBS python scripts/swarm_smoke.py
fi

if [ "$run_bench" = 1 ]; then
  echo "== bench: paper experiments, asserts and exact work counts =="
  env -u REPRO_OBS python benchmarks/runner.py
  echo "== bench: every src/repro function has a reader that is not a test =="
  env -u REPRO_OBS python scripts/reach.py
  echo "== bench: repository benchmark, smoke sizes, and its tests =="
  env -u REPRO_OBS python3 bench/run.py --smoke
  env -u REPRO_OBS python -m pytest bench/tests -q
fi
