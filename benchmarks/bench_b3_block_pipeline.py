"""B3 — what connecting a block costs: signatures, codecs, the sigcache.

Rule 4 of paper §2 makes signature verification the block-connect
bottleneck; this experiment measures three layers differentially, on the
same data in the same run:

* **Batched ECDSA** — :func:`repro.crypto.ecdsa.batch_verify` (one
  multi-scalar equation, parity-hinted R reconstruction) versus the
  serial :func:`verify` loop on identical triples, verdict-checked —
  once with the hints this process recorded while signing, once with
  none, which is what a block from another node looks like (R's parity
  is not on the wire).  No chain code calls it (docs/performance.md,
  "What was retired from block connect").
* **Zero-copy codecs** — ``Block.parse`` (struct/memoryview) versus a
  slice-based naive parser on a 10k-transaction block, equality-checked.
* **Block connect** — a 1000-spend P2PKH block connected on freshly
  replayed chains with a cold signature cache (first sight of every
  signature) and with the cache its transactions left when they came
  through the mempool, state-identity-checked.

The bar asserted in-run: the warm connect is ≥ 2× the cold one, with
bit-identical resulting UTXO state.
"""

import time

from repro.bitcoin import sigcache
from repro.bitcoin.block import HEADER_SIZE, Block, BlockHeader, build_block
from repro.bitcoin.chain import Blockchain, ChainParams
from repro.bitcoin.miner import Miner
from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.script import Script
from repro.bitcoin.sigcache import SignatureCache
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import (
    OutPoint,
    Transaction,
    TxIn,
    TxOut,
    read_varint,
)
from repro.bitcoin.wallet import Wallet
from repro.crypto.ecdsa import (
    batch_verify,
    clear_parity_hints,
    verify as serial_verify,
)
from repro.crypto.keys import PrivateKey

BLOCK_TXS = 1_000  # spends in the headline connect block
PARSE_TXS = 10_000  # transactions in the codec-throughput block
BATCH_SIGS = 256  # triples in the ECDSA micro-benchmark
SPEEDUP_FLOOR = 2.0  # warm vs cold connect, asserted in-run


# ----------------------------------------------------------------------
# Batched ECDSA vs serial, same triples
# ----------------------------------------------------------------------


def _triples(count=BATCH_SIGS, keys=8):
    privs = [PrivateKey.from_seed(b"b3-key" + bytes([i])) for i in range(keys)]
    out = []
    for i in range(count):
        key = privs[i % keys]
        digest = bytes([i & 0xFF, (i >> 8) & 0xFF, 0xB3, 0x00]) * 8
        # sign_digest records R's parity in the hint table: only the
        # process that signed (or already verified) a triple can batch it.
        out.append((key.public.point, digest, key.sign_digest(digest)))
    return out


def bench_b3_batch_ecdsa(benchmark):
    triples = _triples()
    serial_verdicts = [serial_verify(p, d, s) for p, d, s in triples]

    def run_batch():
        start = time.perf_counter()
        verdicts = batch_verify(triples)
        seconds = time.perf_counter() - start
        assert verdicts == serial_verdicts
        return len(triples) / seconds

    # One pass only: every triple takes the serial leaf, which records
    # the hint the hinted rounds below then use.
    clear_parity_hints()
    unhinted_ops = run_batch()
    batch_ops = benchmark.pedantic(run_batch, rounds=3, iterations=1)

    start = time.perf_counter()
    for public, digest, signature in triples:
        assert serial_verify(public, digest, signature)
    serial_ops = len(triples) / (time.perf_counter() - start)

    benchmark.extra_info["batch_sigs"] = len(triples)
    benchmark.extra_info["batch_ops_per_s"] = batch_ops
    benchmark.extra_info["unhinted_batch_ops_per_s"] = unhinted_ops
    benchmark.extra_info["serial_ops_per_s"] = serial_ops
    benchmark.extra_info["speedup_batch_vs_serial"] = batch_ops / serial_ops
    benchmark.extra_info["speedup_unhinted_batch_vs_serial"] = (
        unhinted_ops / serial_ops
    )

    print(f"\nB3: ECDSA batch vs serial ({len(triples)} sigs)")
    print(f"{'path':>18} {'ops/s':>9}")
    print(f"{'serial':>18} {serial_ops:>9.1f}")
    for label, ops in (
        ("batched, hinted", batch_ops),
        ("batched, unhinted", unhinted_ops),
    ):
        print(f"{label:>18} {ops:>9.1f}  ({ops / serial_ops:.2f}x)")


# ----------------------------------------------------------------------
# Zero-copy codec vs the naive slicing parser, same bytes
# ----------------------------------------------------------------------


def _naive_parse_script(data: bytes) -> Script:
    """The pre-PR script parser: IntEnum opcode decoding plus the
    validating constructor (kept here as the measured baseline)."""
    from repro.bitcoin.script import Op

    elements = []
    i = 0
    while i < len(data):
        byte = data[i]
        i += 1
        if 0x01 <= byte <= 0x4B:
            elements.append(bytes(data[i : i + byte]))
            i += byte
        elif byte == Op.OP_PUSHDATA1:
            n = data[i]
            i += 1
            elements.append(bytes(data[i : i + n]))
            i += n
        elif byte == Op.OP_PUSHDATA2:
            n = int.from_bytes(data[i : i + 2], "little")
            i += 2
            elements.append(bytes(data[i : i + n]))
            i += n
        else:
            elements.append(Op(byte))
    return Script(elements)


def _naive_parse_tx(data: bytes, start: int):
    """The pre-PR parser: per-field slicing with int.from_bytes (kept here
    as the measured differential baseline)."""
    offset = start
    version = int.from_bytes(data[offset : offset + 4], "little")
    offset += 4
    n_in, offset = read_varint(data, offset)
    vin = []
    for _ in range(n_in):
        txid = bytes(data[offset : offset + 32])
        index = int.from_bytes(data[offset + 32 : offset + 36], "little")
        offset += 36
        script_len, offset = read_varint(data, offset)
        script = _naive_parse_script(bytes(data[offset : offset + script_len]))
        offset += script_len
        sequence = int.from_bytes(data[offset : offset + 4], "little")
        offset += 4
        vin.append(TxIn(OutPoint(txid, index), script, sequence))
    n_out, offset = read_varint(data, offset)
    vout = []
    for _ in range(n_out):
        value = int.from_bytes(data[offset : offset + 8], "little", signed=True)
        offset += 8
        script_len, offset = read_varint(data, offset)
        vout.append(TxOut(value, _naive_parse_script(bytes(data[offset : offset + script_len]))))
        offset += script_len
    locktime = int.from_bytes(data[offset : offset + 4], "little")
    return Transaction(vin, vout, version=version, locktime=locktime), offset + 4


def _naive_parse_block(data: bytes) -> Block:
    header = BlockHeader.parse(data)
    count, offset = read_varint(data, HEADER_SIZE)
    txs = []
    for _ in range(count):
        tx, offset = _naive_parse_tx(data, offset)
        txs.append(tx)
    return Block(header, txs)


def _parse_block_wire(n_tx=PARSE_TXS) -> bytes:
    txs = []
    spk = p2pkh_script(b"\x07" * 20)
    for i in range(n_tx):
        txs.append(
            Transaction(
                vin=[
                    TxIn(
                        OutPoint(i.to_bytes(32, "little"), i & 3),
                        Script([b"\x30" * 71, b"\x02" * 33]),
                    )
                ],
                vout=[TxOut(1000 + i, spk)],
            )
        )
    return build_block(
        prev_hash=b"\x00" * 32, txs=txs, timestamp=1, bits=0x207FFFFF
    ).serialize()


def bench_b3_codec_parse(benchmark):
    wire = _parse_block_wire()
    mb = len(wire) / 1e6

    def run_fast():
        start = time.perf_counter()
        block = Block.parse(wire)
        seconds = time.perf_counter() - start
        assert len(block.txs) == PARSE_TXS
        return mb / seconds

    fast_mb_s = benchmark.pedantic(run_fast, rounds=3, iterations=1)

    start = time.perf_counter()
    naive_block = _naive_parse_block(wire)
    naive_mb_s = mb / (time.perf_counter() - start)
    # Differential: both parsers decode the same objects.
    assert naive_block.txs == Block.parse(wire).txs

    benchmark.extra_info["block_bytes"] = len(wire)
    benchmark.extra_info["parse_txs"] = PARSE_TXS
    benchmark.extra_info["zero_copy_mb_per_s"] = fast_mb_s
    benchmark.extra_info["naive_mb_per_s"] = naive_mb_s
    benchmark.extra_info["speedup_parse"] = fast_mb_s / naive_mb_s

    print(f"\nB3: block parse ({PARSE_TXS} txs, {mb:.1f} MB)")
    print(f"{'parser':>12} {'MB/s':>8}")
    print(f"{'naive slice':>12} {naive_mb_s:>8.1f}")
    print(f"{'zero-copy':>12} {fast_mb_s:>8.1f}  ({fast_mb_s / naive_mb_s:.2f}x)")


# ----------------------------------------------------------------------
# End-to-end block connect, cold vs warm signature cache
# ----------------------------------------------------------------------


def _build_connect_scenario(n_tx=BLOCK_TXS):
    """A replayable base chain, a 1k-spend block, and the warm sigcache.

    One fanout transaction gives alice ``n_tx`` P2PKH outputs (non-coinbase,
    so no maturity wait); each becomes an independent single-signature
    spend.  Mempool acceptance verifies every spend once — warming the
    shared signature cache exactly as the live relay path would before
    the block arrives.
    """
    old_cache = sigcache.set_default_cache(SignatureCache())
    try:
        net = RegtestNetwork()
        alice = Wallet.from_seed(b"b3-alice")
        bob = Wallet.from_seed(b"b3-bob")
        net.fund_wallet(alice, blocks=1)
        per_output = 30_000
        fanout = alice.create_transaction(
            net.chain,
            [TxOut(per_output, p2pkh_script(alice.key_hash)) for _ in range(n_tx)],
            fee=40_000,
        )
        net.send(fanout)
        net.confirm()
        base_blocks = net.chain.export_active()
        lock = p2pkh_script(alice.key_hash)
        for i in range(n_tx):
            spend = Transaction(
                vin=[TxIn(fanout.outpoint(i))],
                vout=[TxOut(per_output - 2_000, p2pkh_script(bob.key_hash))],
            )
            net.mempool.accept(alice.sign_input(spend, 0, lock))
        miner = Miner(net.chain, alice.key_hash)
        block = miner.grind(miner.assemble(net.mempool))
        assert len(block.txs) == n_tx + 1
        return base_blocks, block, sigcache.default_cache()
    finally:
        sigcache.set_default_cache(old_cache)


def _connect_once(base_blocks, block, sig_cache):
    """Replay the base chain, then time the big block under ``sig_cache``."""
    old = sigcache.set_default_cache(sig_cache)
    try:
        chain = Blockchain(ChainParams.regtest())
        for prior in base_blocks:
            assert chain.add_block(prior)
        start = time.perf_counter()
        assert chain.add_block(block)
        seconds = time.perf_counter() - start
        return seconds, chain.utxos.snapshot()
    finally:
        sigcache.set_default_cache(old)


def bench_b3_block_connect(benchmark):
    base_blocks, block, warm_cache = _build_connect_scenario()

    def run_all():
        rows = []
        snapshots = []
        for label, sig_cache in (
            ("cold sigcache", SignatureCache()),
            ("warm sigcache", warm_cache),
        ):
            seconds, snapshot = _connect_once(base_blocks, block, sig_cache)
            rows.append(
                {
                    "config": label,
                    "connect_seconds": seconds,
                    "txs_per_s": BLOCK_TXS / seconds,
                }
            )
            snapshots.append(snapshot)
        # The cache changes the cost, never the resulting UTXO state.
        assert snapshots[0] == snapshots[1]
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    cold, warm = (row["txs_per_s"] for row in rows)
    speedup = warm / cold

    benchmark.extra_info["block_txs"] = BLOCK_TXS
    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["speedup_warm_vs_cold"] = speedup

    print(f"\nB3: block connect ({BLOCK_TXS} P2PKH spends per block)")
    print(f"{'config':>18} {'connect':>9} {'txs/s':>8} {'vs cold':>10}")
    for row in rows:
        print(
            f"{row['config']:>18} {row['connect_seconds'] * 1e3:>7.0f}ms"
            f" {row['txs_per_s']:>8.1f}"
            f" {row['txs_per_s'] / cold:>9.2f}x"
        )
    assert speedup >= SPEEDUP_FLOOR, (
        f"warm connect {speedup:.2f}x the cold one, under the"
        f" {SPEEDUP_FLOOR}x bar"
    )


if __name__ == "__main__":
    from obs_harness import run_standalone

    run_standalone(
        bench_b3_batch_ecdsa, bench_b3_codec_parse, bench_b3_block_connect
    )
