"""B2 (systems) — startup recovery time from the durable block store.

Paper §3.3: a node "maintain[s] a table of all unspent txouts" — and a
*restarting* node must rebuild that table from its own disk, not by
re-trusting peers.  This benchmark measures what that costs: recover a
chain of N committed blocks from the append-only log, with and without a
UTXO snapshot to bound the replay suffix.  The claim is stated as work,
``store.recovered_blocks_total`` per recovery: full replay replays all N
blocks, snapshot recovery fewer than the snapshot interval whatever N is
— the property that makes long-running nodes restartable at all.  The
recovery time is printed, and gates nothing (docs/persistence.md, "What
a snapshot recovery costs").
"""

import shutil
import tempfile
import time

from repro.bitcoin.chain import Blockchain, ChainParams
from repro.bitcoin.miner import Miner
from repro.bitcoin.wallet import Wallet
from repro.store import BlockStore, recover_chain

from obs_harness import counted

MINER_KEY = Wallet.from_seed(b"bench-recovery").key_hash
CHAIN_LENGTHS = (64, 256)
SNAPSHOT_INTERVAL = 64  # blocks between UTXO snapshots in the "snap" rows


def build_store(root, blocks, snapshot_interval):
    """Mine ``blocks`` regtest blocks mirrored into a store at ``root``."""
    chain = Blockchain(ChainParams.regtest())
    store = BlockStore(root, snapshot_interval=snapshot_interval).open()
    chain.attach_store(store)
    miner = Miner(chain, MINER_KEY)
    for i in range(blocks):
        # add_block writes the log record and, when the interval is due,
        # the UTXO snapshot — same path a live node takes.
        miner.mine_block(extra_nonce=i)
    tip = chain.tip.block.hash
    size = chain.utxos.serialized_size()
    store.close()
    return tip, size


def run_recovery(blocks, snapshot_interval):
    root = tempfile.mkdtemp(prefix="bench-recovery-")
    try:
        tip, utxo_size = build_store(root, blocks, snapshot_interval)
        store = BlockStore(root, snapshot_interval=snapshot_interval).open()
        start = time.perf_counter()
        chain, work = counted(
            ("store.recovered_blocks_total",),
            recover_chain, store, ChainParams.regtest(),
        )
        elapsed = time.perf_counter() - start
        store.close()
        assert chain.tip.block.hash == tip, "recovered to the wrong tip"
        assert chain.utxos.serialized_size() == utxo_size
        replayed = work["store.recovered_blocks_total"]
        if snapshot_interval:
            # Only the tail past the last snapshot is replayed, however
            # long the chain.
            assert replayed < snapshot_interval, (blocks, replayed)
        else:
            assert replayed == blocks, (blocks, replayed)
        return {
            "blocks": blocks,
            "snapshot": snapshot_interval > 0,
            "replayed": replayed,
            "recover_seconds": elapsed,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def bench_b2_recovery():
    rows = [
        run_recovery(blocks, interval)
        for blocks in CHAIN_LENGTHS
        for interval in (0, SNAPSHOT_INTERVAL)
    ]

    print("\nB2: startup recovery from the durable block store")
    print(f"{'blocks':>7} {'snapshot':>9} {'replayed':>9} {'recovery':>10}")
    for row in rows:
        print(f"{row['blocks']:>7} {str(row['snapshot']):>9}"
              f" {row['replayed']:>9} {row['recover_seconds']:>9.3f}s")

