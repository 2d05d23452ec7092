"""block-sync: a node operator's initial sync, the single-node baseline.

Set-up signs the chain to be synced: one fan-out transaction, then
blocks of independent single-input spends of its outputs, signed
directly with ``Wallet.sign_input`` (no coin selection, so the wallet's
UTXO scan stays out of this workload).  One spend in five unlocks a
1-of-2 multisig output built by ``core.overlay.output_script`` — the
lock every Typecoin carrier output uses — so a fast path that only
recognises P2PKH cannot win this workload outright.

Timed: a fresh store-backed chain with an empty signature cache takes
``Block.parse(raw)`` and ``add_block`` for every spend block, then the
store is closed and ``recover_chain`` restarts from it.  The funding
prefix (coinbase maturity) is connected before the window opens.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bitcoin.block import Block, build_block
from repro.bitcoin.chain import Blockchain, ChainParams
from repro.bitcoin.miner import Miner
from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import Transaction, TxIn, TxOut
from repro.bitcoin.utxo import UTXOSet
from repro.bitcoin.wallet import Wallet
from repro.core.overlay import output_script
from repro.crypto.hashing import sha256
from repro.store import BlockStore, recover_chain

from bench.common import (
    CorrectnessError,
    Round,
    Window,
    fresh_process_caches,
    sha256_hex,
    store_log_bytes,
)

MULTISIG_EVERY = 5  # one spend in five unlocks a carrier-style output
OUTPUT_VALUE = 30_000
SPEND_FEE = 2_000
SNAPSHOT_INTERVAL = 16  # Node's default for a store-backed chain


@dataclass
class Inputs:
    seed: int
    prefix: list[Block]  # funding blocks, connected before the window
    raw_blocks: list[bytes]  # the spend blocks, as received from a peer
    transactions: int  # in the spend blocks, coinbases included
    tip: bytes
    utxo_digest: str
    digests: dict[str, str]


def utxo_digest(entries: dict) -> str:
    """sha256 over a UTXO table in outpoint order."""
    return sha256_hex(
        *(
            outpoint.txid
            + outpoint.index.to_bytes(4, "little")
            + entry.output.serialize()
            + entry.height.to_bytes(4, "little")
            + bytes([entry.is_coinbase])
            for outpoint, entry in sorted(entries.items())
        )
    )


def setup(seed: int, sizes: dict) -> Inputs:
    blocks, spends = sizes["blocks"], sizes["spends"]
    total = blocks * spends
    net = RegtestNetwork()
    payer = Wallet.from_seed(b"bench-%d-payer" % seed)
    payee = Wallet.from_seed(b"bench-%d-payee" % seed)
    net.fund_wallet(payer, blocks=1)
    payer_pubkey = payer.default_key.public.encoded
    locks = [
        output_script(payer_pubkey, sha256(b"bench-%d-carrier-%d" % (seed, i)))
        if i % MULTISIG_EVERY == MULTISIG_EVERY - 1
        else p2pkh_script(payer.key_hash)
        for i in range(total)
    ]
    fanout = payer.create_transaction(
        net.chain, [TxOut(OUTPUT_VALUE, lock) for lock in locks], fee=200_000
    )
    net.send(fanout)
    net.confirm()
    prefix = net.chain.export_active()

    # The expected end state comes from applying the blocks to a bare UTXO
    # table — no scripts run, so set-up does not pay for the work the
    # window measures, and the oracle shares no code with block connect.
    expected = UTXOSet()
    for outpoint, entry in net.chain.utxos.snapshot().items():
        expected.add(outpoint, entry)
    miner = Miner(net.chain, payee.key_hash)
    bits = net.chain.required_bits(net.chain.tip.block.hash)
    prev = net.chain.tip.block.hash
    timestamp = net.chain.tip.block.header.timestamp
    pay = p2pkh_script(payee.key_hash)
    raw_blocks = []
    for b in range(blocks):
        txs = []
        for i in range(b * spends, (b + 1) * spends):
            spend = Transaction(
                vin=[TxIn(fanout.outpoint(i))],
                vout=[TxOut(OUTPUT_VALUE - SPEND_FEE, pay)],
            )
            txs.append(payer.sign_input(spend, 0, locks[i]))
        height = net.chain.height + 1 + b
        timestamp += 1
        coinbase = miner.make_coinbase(
            height, fees=spends * SPEND_FEE, extra_nonce=b
        )
        block = miner.grind(build_block(prev, [coinbase] + txs, timestamp, bits))
        expected.apply_block_txs(list(block.txs), height)
        raw_blocks.append(block.serialize())
        prev = block.hash
    return Inputs(
        seed=seed,
        prefix=prefix,
        raw_blocks=raw_blocks,
        transactions=blocks * (spends + 1),
        tip=prev,
        utxo_digest=utxo_digest(expected.snapshot()),
        digests={"block_bytes": sha256_hex(*raw_blocks)},
    )


def run_round(inputs: Inputs, tracer, scratch, _sizes: dict) -> Round:
    fresh_process_caches()
    store_dir = scratch.fresh_dir()
    params = ChainParams.regtest()
    store = BlockStore(store_dir, snapshot_interval=SNAPSHOT_INTERVAL).open()
    try:
        chain = recover_chain(store, params)
        for block in inputs.prefix:
            if not chain.add_block(block):
                raise RuntimeError("chain rejected the funding prefix")
        block_ms = []
        window = Window(tracer)
        with window:
            with tracer.harness():
                for raw in inputs.raw_blocks:
                    start = time.perf_counter()
                    connected = chain.add_block(Block.parse(raw))
                    block_ms.append((time.perf_counter() - start) * 1e3)
                    if not connected:
                        raise CorrectnessError("a spend block did not connect")
                store.close()
                store = BlockStore(
                    store_dir, snapshot_interval=SNAPSHOT_INTERVAL
                ).open()
                recovered = recover_chain(store, params)
        _check(inputs, chain, recovered)
        log_bytes = store_log_bytes(store)
    finally:
        store.close()
        scratch.discard(store_dir)
    digest = sha256_hex(
        recovered.tip.block.hash,
        utxo_digest(recovered.utxos.snapshot()).encode(),
    )
    return window.round(
        inputs.transactions, 0, block_ms, digest, {"store.log_bytes": log_bytes}
    )


def _check(inputs: Inputs, chain: Blockchain, recovered: Blockchain) -> None:
    if chain.tip.block.hash != inputs.tip:
        raise CorrectnessError("synced tip is not the generator's tip")
    if utxo_digest(chain.utxos.snapshot()) != inputs.utxo_digest:
        raise CorrectnessError("synced UTXO set is not the generator's")
    if recovered.tip.block.hash != chain.tip.block.hash:
        raise CorrectnessError("recovered tip differs from the synced tip")
    if recovered.utxos.snapshot() != chain.utxos.snapshot():
        raise CorrectnessError("recovered UTXO set differs from the synced one")
