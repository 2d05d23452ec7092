"""Block-pipeline smoke: the PR-9 accelerators must be pure speed-ups.

Driven by ``scripts/check.sh --pipeline``.  Three gates:

1. **Differential connect** — a seeded chain of real P2PKH activity is
   replayed through every accelerator configuration (serial, batched
   signatures, cached UTXO set, both); the tip, UTXO snapshot,
   serialized size and every wallet's ``spendables`` (coin selection
   reads the table's owner index, which the cache answers over its
   merged view) must be identical, the latter also equal to a full scan
   of the table, and a corrupted block must be rejected with the *same*
   first error on every path.
2. **Kill-mid-flush recovery** — the cached chain persists to a
   snapshotting :class:`~repro.store.BlockStore`, crashes without a
   clean close, and has its block-log tail torn off; recovery through
   the cache hierarchy must land on the exact state of an independent
   serial replay of the surviving prefix, then keep accepting blocks.
3. **Opt-out purity** — with the accelerators *not* opted into, the
   deterministic A1 fork-rate rows must stay bit-identical to the
   committed ``BENCH_pr2.json`` baseline: the pipeline code's presence
   alone must not perturb a single simulated event.

Exit status 0 means the pipeline gate passed.

Usage::

    PYTHONPATH=src python scripts/pipeline_smoke.py
"""

import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "benchmarks"))
sys.path.insert(0, str(REPO))  # tests.oracles: the full-scan reference

from repro.bitcoin import sigcache
from repro.bitcoin.block import Block, build_block
from repro.bitcoin.chain import Blockchain, ChainParams
from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.script import Script
from repro.bitcoin.sigcache import SignatureCache
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import COIN, TxOut
from repro.bitcoin.validation import ValidationError
from repro.bitcoin.wallet import Wallet
from repro.store import BlockStore, recover_chain
from tests.oracles import full_scan_spendables

CONFIGS = [
    ("serial", {}),
    ("batch", {"batch_sig_verify": True}),
    ("cache", {"utxo_cache": True}),
    ("batch+cache", {"batch_sig_verify": True, "utxo_cache": True}),
]


WALLETS = {
    "alice": Wallet.from_seed(b"pipeline-smoke-alice"),
    "bob": Wallet.from_seed(b"pipeline-smoke-bob"),
}


def build_sequence():
    """A seeded chain: fund, four single spends, one multi-input spend."""
    net = RegtestNetwork()
    alice, bob = WALLETS["alice"], WALLETS["bob"]
    net.fund_wallet(alice, blocks=3)
    for i in range(4):
        net.send(
            alice.create_transaction(
                net.chain,
                [TxOut(1 * COIN + i, p2pkh_script(bob.key_hash))],
                fee=1000,
            )
        )
        net.confirm()
    net.send(
        alice.create_transaction(
            net.chain, [TxOut(120 * COIN, p2pkh_script(bob.key_hash))], fee=2000
        )
    )
    net.confirm()
    return net.chain.export_active()


def replay(blocks, **opts):
    sigcache.set_default_cache(SignatureCache())
    chain = Blockchain(ChainParams.regtest(), **opts)
    for block in blocks:
        if not chain.add_block(block):
            raise SystemExit("error: replay rejected a valid block")
    return chain


def gate_differential(blocks) -> None:
    states = {}
    for label, opts in CONFIGS:
        chain = replay(blocks, **opts)
        spendables = {}
        for name, wallet in WALLETS.items():
            spendables[name] = wallet.spendables(chain)
            if not spendables[name]:
                raise SystemExit(
                    f"error: config {label!r} offers {name} nothing to spend"
                )
            if spendables[name] != full_scan_spendables(wallet, chain):
                raise SystemExit(
                    f"error: config {label!r}: {name}'s spendables differ"
                    " from a full scan of the table"
                )
        states[label] = (
            chain.tip.block.hash,
            chain.utxos.snapshot(),
            chain.utxos.serialized_size(),
            spendables,
        )
    reference = states["serial"]
    for label, state in states.items():
        if state != reference:
            raise SystemExit(f"error: config {label!r} diverged from serial")
    print(f"  differential: {len(CONFIGS)} configs x {len(blocks)} blocks,"
          f" identical tip/UTXO/size/spendables (= full scan)")

    # Corrupt one signature bit in the last block; every path must reject
    # with the identical first error and stay at the pre-block tip.
    source = blocks[-1]
    txs = list(source.txs)
    elements = txs[1].vin[0].script_sig.elements
    sig = bytearray(elements[0])
    sig[10] ^= 0x01
    txs[1] = txs[1].with_input_script(0, Script([bytes(sig), *elements[1:]]))
    errors = set()
    for label, opts in CONFIGS:
        chain = replay(blocks[:-1], **opts)
        bad = build_block(
            prev_hash=chain.tip.block.hash,
            txs=txs,
            timestamp=source.header.timestamp,
            bits=source.header.bits,
        )
        nonce = 0
        while not bad.header.meets_target():
            nonce += 1
            bad = Block(bad.header.with_nonce(nonce), bad.txs)
        try:
            chain.add_block(bad)
        except ValidationError as exc:
            errors.add(str(exc))
        else:
            raise SystemExit(f"error: config {label!r} accepted a bad block")
        if chain.tip.block.hash != blocks[-2].hash:
            raise SystemExit(f"error: config {label!r} moved tip on reject")
    if len(errors) != 1:
        raise SystemExit(f"error: divergent rejection errors: {errors}")
    print(f"  rejection: all configs raise {next(iter(errors))!r}")


def gate_crash_recovery(blocks, torn_bytes: int = 7) -> None:
    full_height = replay(blocks).height
    with tempfile.TemporaryDirectory(prefix="pipeline-smoke-") as root:
        chain = Blockchain(
            ChainParams.regtest(), batch_sig_verify=True, utxo_cache=True
        )
        sigcache.set_default_cache(SignatureCache())
        store = BlockStore(Path(root), snapshot_interval=3).open()
        chain.attach_store(store)
        for block in blocks:
            chain.add_block(block)
        # Crash: no store.close(), and the final append is torn mid-record.
        log = Path(root) / "blocks.log"
        log.write_bytes(log.read_bytes()[:-torn_bytes])

        recovered = recover_chain(
            BlockStore(Path(root)).open(),
            batch_sig_verify=True,
            utxo_cache=True,
        )
        if recovered.height != full_height - 1:  # lost only the torn tail
            raise SystemExit(
                f"error: recovered height {recovered.height}, expected"
                f" {full_height - 1}"
            )
        recovered_height = recovered.height
        serial = replay(blocks[:-1])
        if recovered.tip.block.hash != serial.tip.block.hash:
            raise SystemExit("error: recovered tip diverged from serial")
        if recovered.utxos.snapshot() != serial.utxos.snapshot():
            raise SystemExit("error: recovered UTXO state diverged")
        # The recovered cache must keep working: re-accept the torn block.
        if not recovered.add_block(blocks[-1]):
            raise SystemExit("error: recovered chain rejected the torn block")
        serial_full = replay(blocks)
        if recovered.utxos.snapshot() != serial_full.utxos.snapshot():
            raise SystemExit("error: post-recovery state diverged")
        print(f"  crash recovery: torn tail ({torn_bytes} bytes), recovered"
              f" height {recovered_height}, cache state matches serial")


def _newest_a1_baseline() -> "tuple[str, list] | None":
    """(filename, rows) of the newest committed BENCH_pr*.json carrying
    a1_fork_rate rows.  Anchoring to the newest recording lets deliberate
    protocol changes (PR 10's relay echo-to-origin fix) re-record the
    trajectory while still catching accidental drift afterwards."""
    best = None
    best_n = -1
    for path in REPO.glob("BENCH_pr*.json"):
        try:
            n = int(path.stem.removeprefix("BENCH_pr"))
        except ValueError:
            continue
        try:
            data = json.loads(path.read_text())
        except ValueError:
            continue
        rows = (
            data.get("experiments", {})
            .get("a1_fork_rate", {})
            .get("benches", {})
            .get("bench_a1_fork_rate_vs_latency", {})
            .get("extra_info", {})
            .get("rows")
        )
        if rows and n > best_n:
            best, best_n = (path.name, rows), n
    return best


def gate_a1_pin() -> None:
    from bench_a1_fork_rate import run_with_latency

    baseline = _newest_a1_baseline()
    if baseline is None:
        raise SystemExit("error: no BENCH_pr*.json baseline with A1 rows")
    baseline_name, baseline_rows = baseline
    for expected in baseline_rows:
        got = run_with_latency(expected["latency"])
        if got != expected:
            raise SystemExit(
                f"error: A1 row drifted at latency {expected['latency']}:\n"
                f"  baseline: {expected}\n  current:  {got}"
            )
    print(f"  A1 pin: {len(baseline_rows)} rows bit-identical to"
          f" {baseline_name} (accelerators opted out)")


def main() -> int:
    print("pipeline smoke: batch ECDSA + UTXO cache differential gates")
    blocks = build_sequence()
    gate_differential(blocks)
    gate_crash_recovery(blocks)
    gate_a1_pin()
    print("ok: pipeline smoke passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
