"""Tests of the benchmark itself (not part of tier-1).

    python -m pytest bench/tests -q

They run every workload at ``--smoke`` sizes, so a rename under ``src/``
that silently empties a layer, a wrapper left installed, or an input that
stops being a function of the seed fails here instead of reading zero in
a later comparison.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench import metrics, run  # noqa: E402
from bench.common import CorrectnessError  # noqa: E402
from bench.harness import measure  # noqa: E402
from bench.trace import ENTRY_POINTS, Tracer, resolve  # noqa: E402
from bench.workloads import BY_NAME, WORKLOADS, verify  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

# The workload on which each wrapped entry point must record a call.
# ``None``: not reached in the default configuration this benchmark
# measures — the batch verifier and compact relay are opt-in flags, and
# the service runs its own §3 loop, so ``verify_claim`` is only the oracle.
EXERCISED_ON = {
    "repro.bitcoin.wallet:Wallet.create_transaction": "claim-lifecycle",
    "repro.bitcoin.wallet:Wallet.spendables": "claim-lifecycle",
    "repro.bitcoin.wallet:Wallet.sign_input": "claim-lifecycle",
    "repro.core.wallet:TypecoinClient.submit": "claim-lifecycle",
    "repro.core.wallet:TypecoinClient.sync": "claim-lifecycle",
    "repro.core.wallet:TypecoinClient.claim_bundle": "claim-lifecycle",
    "repro.core.validate:check_typecoin_transaction": "claim-verify-cold",
    "repro.core.overlay:build_carrier": "claim-lifecycle",
    "repro.core.overlay:check_carrier_correspondence": "claim-verify-warm",
    "repro.core.verifier:verify_claim": None,
    "repro.logic.checker:check_proof": None,
    "repro.logic.checker:infer": "claim-verify-cold",
    "repro.logic.checker:verify_affirmation": "claim-verify-cold",
    "repro.logic.checker:check_prop_formation": "claim-verify-cold",
    "repro.lf.typecheck:infer_type": "claim-verify-cold",
    "repro.lf.typecheck:infer_kind": "claim-verify-cold",
    "repro.lf.typecheck:check_type": "claim-verify-cold",
    "repro.service.server:VerificationService.verify": "claim-verify-warm",
    "repro.crypto.ecdsa:sign": "claim-lifecycle",
    "repro.crypto.ecdsa:verify": "block-sync",
    "repro.crypto.ecdsa:batch_verify": None,
    "repro.bitcoin.script:execute_script": "block-sync",
    "repro.bitcoin.sighash:signature_hash": "claim-lifecycle",
    "repro.bitcoin.sighash:SighashCache.digest": "block-sync",
    "repro.bitcoin.validation:check_tx_inputs": "block-sync",
    "repro.bitcoin.mempool:Mempool.accept": "claim-lifecycle",
    "repro.bitcoin.chain:Blockchain.add_block": "block-sync",
    "repro.bitcoin.block:Block.parse": "block-sync",
    "repro.bitcoin.transaction:Transaction.parse_from": "block-sync",
    "repro.bitcoin.transaction:Transaction.serialize": "block-sync",
    "repro.bitcoin.network:Node.submit_transaction": "claim-lifecycle",
    "repro.bitcoin.network:Node.submit_block": "claim-lifecycle",
    "repro.bitcoin.network:Node.submit_compact_block": None,
    "repro.bitcoin.network:Node.send_to": "claim-lifecycle",
    "repro.bitcoin.miner:Miner.assemble": "claim-lifecycle",
    "repro.store.store:BlockStore.append_connect": "block-sync",
    "repro.store.store:BlockStore.write_snapshot": "block-sync",
    "repro.store.recovery:recover_chain": "claim-lifecycle-faults",
}


@pytest.fixture(scope="module")
def traced():
    """One traced smoke run of every workload."""
    return {
        w.name: measure(w, seed=7, seconds=0, trace=True, smoke=True)
        for w in WORKLOADS
    }


def test_benchmark_json_declares_what_the_code_reports():
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert doc["paths"] == ["bench"]
    assert [w["name"] for w in doc["workloads"]] == [w.name for w in WORKLOADS]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in doc["end_to_end"]
    ] == metrics.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in doc["per_layer"]
    ] == metrics.per_layer()
    names = (
        [w["name"] for w in doc["workloads"]]
        + [m["name"] for m in doc["end_to_end"]]
        + [m["name"] for m in doc["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(
        UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_every_workload_reports_every_declared_metric(traced):
    end_to_end = [name for name, *_ in metrics.END_TO_END]
    per_layer = [name for name, *_ in metrics.per_layer()]
    for name, result in traced.items():
        assert list(result["end_to_end"]) == end_to_end, name
        assert list(result["per_layer"]) == per_layer, name
        assert all(s["value"] > 0 for s in result["end_to_end"].values()), name
        assert result["correct"] and result["attempted"] >= 1, name
        assert result["failed"] == 0, name
        assert {"python", "nproc", "git_sha"} <= set(result["environment"])
        assert all(
            {"load_avg_start", "load_avg_end", "noisy"} <= set(r)
            for r in result["rounds"]
        )


def test_every_entry_point_records_a_call_where_it_should(traced):
    assert {target for _name, target in ENTRY_POINTS} == set(EXERCISED_ON)
    for target, workload in EXERCISED_ON.items():
        if workload is not None:
            calls = traced[workload]["entry_point_calls"]
            assert calls.get(target, 0) >= 1, (target, workload)


def test_layers_stay_out_of_workloads_that_bypass_them(traced):
    """The 'should not move' column of the README, as far as counts go."""
    block_sync = traced["block-sync"]["per_layer"]
    for layer in ("bitcoin.wallet", "core.wallet", "core.validate", "service",
                  "logic.checker", "lf.typecheck", "bitcoin.mempool",
                  "bitcoin.network"):
        assert block_sync[f"{layer}.calls"]["value"] == 0, layer
    for workload in ("claim-verify-cold", "claim-verify-warm"):
        layers = traced[workload]["per_layer"]
        for layer in ("bitcoin.wallet", "bitcoin.script", "bitcoin.chain",
                      "bitcoin.network", "store.append"):
            assert layers[f"{layer}.calls"]["value"] == 0, (workload, layer)
    warm = traced["claim-verify-warm"]["per_layer"]
    cold = traced["claim-verify-cold"]["per_layer"]
    assert warm["service.memo_hit_ratio"]["value"] > 0.9
    assert cold["service.memo_hit_ratio"]["value"] < 0.5
    assert warm["core.validate.calls"]["value"] == 0


def test_wrappers_are_fully_restored():
    before = {target: resolve(target) for _name, target in ENTRY_POINTS}
    tracer = Tracer()
    tracer.install()
    try:
        during = {target: resolve(target) for _name, target in ENTRY_POINTS}
        assert all(during[t] is not before[t] for t in before)
    finally:
        tracer.uninstall()
    after = {target: resolve(target) for _name, target in ENTRY_POINTS}
    assert all(after[t] is before[t] for t in before)
    leftovers = [
        f"{module_name}.{attr}"
        for module_name, module in list(sys.modules.items())
        if module is not None and module_name.split(".")[0] == "repro"
        for attr, value in list(vars(module).items())
        if getattr(value, "__name__", "") == "traced"
    ]
    assert leftovers == []


def test_a_traced_measurement_leaves_no_wrapper_behind(traced):
    del traced  # the fixture ran five traced measurements
    from repro.bitcoin.chain import Blockchain
    from repro.crypto import ecdsa

    assert Blockchain.add_block.__name__ == "add_block"
    assert ecdsa.verify.__name__ == "verify"


@pytest.mark.parametrize("name", [w.name for w in WORKLOADS])
def test_digests_follow_the_seed(name, traced):
    workload = BY_NAME[name]
    same = measure(workload, seed=7, seconds=0, trace=False, smoke=True)
    other = measure(workload, seed=8, seconds=0, trace=False, smoke=True)
    assert same["output_digest"] == traced[name]["output_digest"]
    assert same["input_digests"] == traced[name]["input_digests"]
    assert other["output_digest"] != same["output_digest"]
    assert all(
        other["input_digests"][key] != value
        for key, value in same["input_digests"].items()
        if key not in SHAPE_DIGESTS
    )


# Inputs that describe the shape of the load, which is the same for every
# seed by design (see README, "Seeds").
SHAPE_DIGESTS = {"population", "schedule"}


def test_a_wrong_verdict_stops_the_run(monkeypatch, capsys):
    """Corrupt one expected verdict: the command must exit non-zero and
    print no result."""
    honest = verify.replay_verdict
    chains_seen = []  # the objects, so that no id is reused

    def corrupted(chain, bundle):
        verdict = honest(chain, bundle)
        if any(chain is seen for seen in chains_seen):
            return verdict
        chains_seen.append(chain)  # the first claim of each set-up
        return "invalid"

    monkeypatch.setattr(verify, "replay_verdict", corrupted)
    with pytest.raises(CorrectnessError):
        measure(BY_NAME["claim-verify-cold"], 7, 0, trace=False, smoke=True)
    code = run.main(
        ["--workload", "claim-verify-cold", "--smoke", "--seconds", "0"]
    )
    assert code == 1
    assert '"correct"' not in capsys.readouterr().out


def _run(cwd, *args):
    return subprocess.run(
        ["python3", "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, declared", [
    ("0", [name for name, *_ in metrics.END_TO_END]),
    ("1", [name for name, *_ in metrics.per_layer()]),
])
def test_the_contract_command_line(trace, declared):
    done = _run(ROOT, "--workload", "block-sync", "--seed", "3",
                "--seconds", "0", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert list(last["metrics"]) == declared
    assert all(set(m) == {"value", "unit"} for m in last["metrics"].values())


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    done = _run(tmp_path, "--workload", "block-sync", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
