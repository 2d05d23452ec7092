"""Cold blocks on every processor: the worker pool in front of block connect.

``validation.prewarm_script_verdicts`` sends a block's cold transactions
to one worker per processor and records the txids whose every input
authorised; ``check_tx_inputs`` then runs on every transaction as before.
So the pool may change how fast a block connects and nothing else: these
tests hold the tip, the UTXO table and the cached verdicts to what the
in-process path gives, with the pool working, broken, killed, lying, and
absent.
"""

import multiprocessing
import os
import signal

import pytest

from repro.bitcoin import sigcache, validation
from repro.bitcoin.block import Block, build_block
from repro.bitcoin.chain import Blockchain, ChainParams
from repro.bitcoin.miner import Miner
from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.script import Script
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import Transaction, TxIn, TxOut
from repro.bitcoin.validation import POOL_MIN_INPUTS, ValidationError
from repro.bitcoin.wallet import Wallet

PARAMS = ChainParams.regtest()
VALUE = 30_000
FEE = 2_000
SPENDS = POOL_MIN_INPUTS + 4  # per wide block

pytestmark = pytest.mark.usefixtures("fresh_default_cache")

# Tests that change what a worker runs need the workers to be forks of
# the patched test process.
forked_workers = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers see the test's patches only when forked",
)


def wide_history(spends: int, blocks: int):
    """A funded prefix, then ``blocks`` blocks of ``spends`` single-input
    P2PKH spends each — signed, never verified in this process."""
    net = RegtestNetwork()
    alice = Wallet.from_seed(b"pool-alice")
    net.fund_wallet(alice, blocks=1)
    lock = p2pkh_script(alice.key_hash)
    fanout = alice.create_transaction(
        net.chain, [TxOut(VALUE, lock)] * (spends * blocks), fee=100_000
    )
    net.send(fanout)
    net.confirm()
    prefix = net.chain.export_active()
    miner = Miner(net.chain, Wallet.from_seed(b"pool-miner").key_hash)
    bits = net.chain.required_bits(net.chain.tip.block.hash)
    prev = net.chain.tip.block
    wide = []
    for b in range(blocks):
        txs = [
            alice.sign_input(
                Transaction(
                    [TxIn(fanout.outpoint(i))], [TxOut(VALUE - FEE, lock)]
                ),
                0,
                lock,
            )
            for i in range(b * spends, (b + 1) * spends)
        ]
        height = net.chain.height + 1 + b
        coinbase = miner.make_coinbase(height, fees=spends * FEE)
        prev = miner.grind(
            build_block(
                prev.hash, [coinbase, *txs], prev.header.timestamp + 1, bits
            )
        )
        wide.append(prev)
    return prefix, wide


def sync(blocks) -> Blockchain:
    chain = Blockchain(PARAMS)
    for block in blocks:
        assert chain.add_block(block)
    return chain


def cached_txids() -> set[bytes]:
    """Every txid whose script verdict the default cache holds."""
    entries = sigcache.default_cache()._lru._entries
    return {key for key in entries if isinstance(key, bytes)}


def reforged(block: Block, index: int) -> Block:
    """``block`` with the signature of transaction ``index`` flipped in one
    byte, re-mined: a forgery whose txid no honest transaction has."""
    txs = list(block.txs)
    sig, key = txs[index].vin[0].script_sig.elements
    txs[index] = txs[index].with_input_script(
        0, Script([sig[:10] + bytes([sig[10] ^ 1]) + sig[11:], key])
    )
    header = block.header
    return Miner(Blockchain(PARAMS), bytes(20)).grind(
        build_block(header.prev_hash, txs, header.timestamp, header.bits)
    )


@pytest.fixture(scope="module")
def history():
    return wide_history(SPENDS, 3)


@pytest.fixture
def own_pool(monkeypatch):
    """Two processors, and a pool this test starts (so its workers fork
    whatever the test patched) and stops."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    validation._drop_pool()
    yield
    validation._drop_pool()


@pytest.fixture
def one_processor(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)


def inline_result(blocks):
    """Tip, table and cached txids of the in-process path, on a cache of
    its own."""
    old = sigcache.set_default_cache(sigcache.SignatureCache())
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "cpu_count", lambda: 1)
            chain = sync(blocks)
            return chain.tip.block.hash, chain.utxos.snapshot(), cached_txids()
    finally:
        sigcache.set_default_cache(old)


# ----------------------------------------------------------------------
# Same result with the pool and without it
# ----------------------------------------------------------------------


def test_the_pool_changes_no_tip_table_or_cached_verdict(history, own_pool):
    prefix, wide = history
    chain = sync([*prefix, *wide])
    assert validation._pool is not None  # the wide blocks engaged it
    assert (
        chain.tip.block.hash, chain.utxos.snapshot(), cached_txids()
    ) == inline_result([*prefix, *wide])


def test_one_processor_never_starts_a_pool(history, own_pool, one_processor):
    prefix, wide = history
    sync([*prefix, *wide])
    assert validation._pool is None


# ----------------------------------------------------------------------
# What the pool may not do: vouch for a forgery or a txid it did not run
# ----------------------------------------------------------------------


@pytest.mark.parametrize("index", [1, SPENDS])
def test_a_forged_signature_in_a_wide_block_never_enters_the_cache(
    history, own_pool, index
):
    prefix, wide = history
    chain = sync(prefix)
    bad = reforged(wide[0], index)
    forged = bad.txs[index].txid
    with pytest.raises(ValidationError, match="script validation failed on input 0$"):
        chain.add_block(bad)
    assert forged not in sigcache.default_cache()
    # Every honest transaction was warmed, those after the forgery too —
    # which the in-process loop, stopping at the forgery, never reaches.
    honest = {tx.txid for tx in bad.txs[1:]} - {forged}
    assert honest <= cached_txids()
    assert chain.tip.block.hash == prefix[-1].hash


@forked_workers
def test_a_worker_that_names_another_txid_warms_nothing(
    history, own_pool, monkeypatch
):
    monkeypatch.setattr(
        validation,
        "_authorised_txid",
        lambda raw, locks: Transaction.parse(raw).txid[::-1],
    )
    prefix, wide = history
    chain = sync(prefix)
    validation.prewarm_script_verdicts(wide[0].txs[1:], chain.utxos)
    assert validation._pool is not None  # it answered; the answers were refused
    assert not {tx.txid for tx in wide[0].txs} & cached_txids()


def test_answers_out_of_job_order_warm_nothing(history, own_pool, monkeypatch):
    """Each answer a real txid of the block, at the wrong position."""
    def rotated(jobs):
        txids = [tx.txid for tx, _ in jobs]
        return txids[1:] + txids[:1]

    monkeypatch.setattr(validation, "_ask_pool", rotated)
    prefix, wide = history
    chain = sync(prefix)
    validation.prewarm_script_verdicts(wide[0].txs[1:], chain.utxos)
    assert not {tx.txid for tx in wide[0].txs} & cached_txids()


# ----------------------------------------------------------------------
# A pool that breaks costs speed, never the chain
# ----------------------------------------------------------------------


@pytest.mark.parametrize("victim", [0, 1])
def test_a_worker_killed_between_wide_blocks_changes_nothing(
    history, own_pool, victim
):
    prefix, wide = history
    chain = sync([*prefix, wide[0]])
    worker, _ = validation._pool[1][victim]
    os.kill(worker.pid, signal.SIGKILL)
    worker.join(timeout=10)
    assert worker.exitcode == -signal.SIGKILL
    assert chain.add_block(wide[1])  # connected in-process, the pool dropped
    assert validation._pool is None
    assert chain.add_block(wide[2])  # the next wide block makes a new pool
    assert validation._pool is not None
    assert (
        chain.tip.block.hash, chain.utxos.snapshot(), cached_txids()
    ) == inline_result([*prefix, *wide])


@forked_workers
@pytest.mark.parametrize("dying", ["every", "last"])
def test_a_worker_dying_mid_block_changes_nothing(
    history, own_pool, monkeypatch, dying
):
    answer = validation._authorised_txid

    def die(raw, locks):
        # A worker forked last sees the pool's other worker already listed.
        if dying == "every" or len(validation._pool[1]) == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return answer(raw, locks)

    monkeypatch.setattr(validation, "_authorised_txid", die)
    prefix, wide = history
    chain = sync([*prefix, *wide])
    assert validation._pool is None
    assert (
        chain.tip.block.hash, chain.utxos.snapshot(), cached_txids()
    ) == inline_result([*prefix, *wide])


def _sync_with_own_pool(blocks, conn):
    chain = sync(blocks)
    conn.send((chain.tip.block.hash, validation._pool[0] == os.getpid()))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_a_forked_child_starts_its_own_pool_and_leaves_its_parents(
    history, own_pool
):
    prefix, wide = history
    chain = sync([*prefix, wide[0]])
    parents = validation._pool
    ctx = multiprocessing.get_context("fork")
    ours, theirs = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_sync_with_own_pool, args=([*prefix, *wide], theirs))
    child.start()
    theirs.close()
    try:
        assert ours.poll(60) and ours.recv() == (wide[-1].hash, True)
        child.join(timeout=10)
        assert child.exitcode == 0
    finally:
        if child.exitcode is None:
            child.kill()
            child.join()
    assert chain.add_block(wide[1])
    assert validation._pool is parents  # its workers answered: not dropped


def _sync_and_report(raw_blocks, conn):
    os.cpu_count = lambda: 2  # this child's own os module
    chain = sync([Block.parse(raw) for raw in raw_blocks])
    conn.send((chain.tip.block.hash, validation._pool is not None))


def test_a_spawn_child_that_used_the_pool_exits(history):
    """The experiment runner's shape: a ``spawn`` child connects a wide
    block, answers, and must then exit — its daemonic workers with it."""
    prefix, wide = history
    ctx = multiprocessing.get_context("spawn")
    ours, theirs = ctx.Pipe(duplex=False)
    child = ctx.Process(
        target=_sync_and_report,
        args=([block.serialize() for block in [*prefix, wide[0]]], theirs),
    )
    child.start()
    theirs.close()
    try:
        assert ours.poll(60) and ours.recv() == (wide[0].hash, True)
        child.join(timeout=10)
        assert child.exitcode == 0
    finally:
        if child.exitcode is None:
            child.kill()
            child.join()
