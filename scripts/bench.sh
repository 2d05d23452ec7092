#!/usr/bin/env bash
# Benchmark telemetry smoke pass: record a 1-round trajectory for every
# experiment, validate it against the repro.bench/1 schema, and self-compare
# it through the regression gate (which must pass trivially). Catches broken
# benchmarks, schema drift, and gate bugs without paying for a full run.
# Run from anywhere; paths resolve relative to the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src

echo "== bench: smoke trajectory (1 round per benchmark) =="
python benchmarks/runner.py --label smoke --smoke

echo "== bench: schema check (every committed trajectory) =="
# All BENCH_*.json at the repo root must stay loadable: schema drift in
# compare.py that silently orphans an old baseline is itself a bug.
python benchmarks/compare.py --check-schema BENCH_*.json

echo "== bench: self-compare (gate sanity) =="
python benchmarks/compare.py BENCH_smoke.json BENCH_smoke.json

echo "== bench: b3 block-connect gate (warm >= 2x cold + state identity) =="
# Full standalone pass of the block-connect experiment: its in-bench
# asserts fail the script if the warm-sigcache connect drops under 2x the
# cold one or the two leave different UTXO state.
python benchmarks/bench_b3_block_pipeline.py

echo "== bench: regression gate vs committed BENCH_pr2.json baseline =="
# The smoke candidate runs 1 round per bench, so it can only trip the gate
# by regressing catastrophically (>25% over a full-run baseline); benches
# added after pr2 show up as candidate-only rows.
python benchmarks/compare.py BENCH_pr2.json BENCH_smoke.json

echo "ok: benchmark telemetry pipeline is healthy (BENCH_smoke.json)"
