"""Cold blocks on every processor: the worker pool in front of block connect.

``validation.prewarm_script_verdicts`` sends the tail of a block's cold
transactions to one worker per processor but one, while the connecting
process checks the head itself; the txids whose every input a worker
authorised are recorded before the connecting loop reaches the tail, and
``check_tx_inputs`` runs on every transaction as before.  So the pool may
change how fast a block connects and nothing else: these tests hold the
tip, the UTXO table, the refusal and the cached verdicts to what the
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
    """Two processors — one worker beside this process — and a pool this
    test starts (so its workers fork whatever the test patched) and
    stops."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    validation._drop_pool()
    yield
    validation._drop_pool()


@pytest.fixture
def two_workers(own_pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)


def workers_share(block: Block) -> list[Transaction]:
    """The transactions of an all-cold ``block`` sent to the workers: all
    but the head, one share in ``os.cpu_count()`` (rounded down)."""
    txs = block.txs[1:]
    return list(txs[len(txs) // os.cpu_count() :])


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


def refusal(blocks, bad: Block):
    """The message ``bad`` is refused with after ``blocks``, then the tip
    and the cached txids."""
    chain = sync(blocks)
    with pytest.raises(ValidationError) as refused:
        chain.add_block(bad)
    return str(refused.value), chain.tip.block.hash, cached_txids()


def inline_refusal(blocks, bad: Block):
    """``refusal`` on the in-process path, on a cache of its own."""
    old = sigcache.set_default_cache(sigcache.SignatureCache())
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "cpu_count", lambda: 1)
            return refusal(blocks, bad)
    finally:
        sigcache.set_default_cache(old)


def assert_refused_as_without_the_pool(prefix, bad: Block, index: int):
    """The forgery at ``index`` is refused with the in-process message and
    tip, and never cached; the cache holds what the in-process run cached
    and, beside it, the verdicts of the workers' honest share."""
    forged = bad.txs[index].txid
    message, tip, cached = refusal(prefix, bad)
    want_message, want_tip, want_cached = inline_refusal(prefix, bad)
    assert message == want_message
    assert message.endswith("script validation failed on input 0")
    assert tip == want_tip == prefix[-1].hash
    assert forged not in cached
    honest = {tx.txid for tx in workers_share(bad)} - {forged}
    assert cached == want_cached | honest


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
    """One worker: the forgery heads this process's share, or ends the
    worker's."""
    prefix, wide = history
    bad = reforged(wide[0], index)
    assert (bad.txs[index] in workers_share(bad)) is (index == SPENDS)
    assert_refused_as_without_the_pool(prefix, bad, index)


@pytest.mark.parametrize("share", ["parent", "workers"])
def test_a_forgery_in_either_share_is_refused_as_without_the_pool(
    history, two_workers, share
):
    """Two workers: the forgery sits mid-way through this process's share,
    or first in the second worker's, after the first worker's honest one."""
    prefix, wide = history
    tail = len(workers_share(wide[0]))  # 14: two shares of 7
    index = 3 if share == "parent" else SPENDS + 1 - tail // 2
    bad = reforged(wide[0], index)
    assert (bad.txs[index] in workers_share(bad)) is (share == "workers")
    assert_refused_as_without_the_pool(prefix, bad, index)


def scripts_run_here(monkeypatch) -> list[None]:
    """One entry per input script this process runs from now on (a
    worker forked later counts in its own copy of the list)."""
    runs: list[None] = []
    run = validation.execute_script
    monkeypatch.setattr(
        validation,
        "execute_script",
        lambda *args: runs.append(None) or run(*args),
    )
    return runs


def prewarmed(chain: Blockchain, block: Block) -> list[Transaction]:
    """Send ``block``'s workers' share, wait for the answers and record
    them, as ``Blockchain._connect`` does; that share."""
    txs = block.txs[1:]
    split, collect = validation.prewarm_script_verdicts(txs, chain.utxos)
    collect()
    assert list(txs[split:]) == workers_share(block)
    return workers_share(block)


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
    share = prewarmed(chain, wide[0])
    assert validation._pool is not None  # it answered; the answers were refused
    assert not {tx.txid for tx in share} & cached_txids()


def test_answers_out_of_job_order_warm_nothing(history, own_pool, monkeypatch):
    """Each answer a real txid of the workers' share, at the wrong
    position."""
    def rotated(jobs):
        txids = [tx.txid for tx, _ in jobs]
        return lambda: txids[1:] + txids[:1]

    monkeypatch.setattr(validation, "_ask_pool", rotated)
    prefix, wide = history
    chain = sync(prefix)
    share = prewarmed(chain, wide[0])
    assert len(share) > 1
    assert not {tx.txid for tx in share} & cached_txids()


# ----------------------------------------------------------------------
# A pool that breaks costs speed, never the chain
# ----------------------------------------------------------------------


@pytest.mark.parametrize("victim", [0, 1])
def test_a_worker_killed_between_wide_blocks_changes_nothing(
    history, two_workers, monkeypatch, victim
):
    prefix, wide = history
    chain = sync([*prefix, wide[0]])
    worker, _ = validation._pool[1][victim]
    os.kill(worker.pid, signal.SIGKILL)
    worker.join(timeout=10)
    assert worker.exitcode == -signal.SIGKILL
    runs = scripts_run_here(monkeypatch)
    assert chain.add_block(wide[1])
    assert validation._pool is None
    assert len(runs) == SPENDS  # the workers' share too, in-process
    runs.clear()
    assert chain.add_block(wide[2])  # the next wide block makes a new pool
    assert validation._pool is not None
    assert len(runs) == SPENDS - len(workers_share(wide[2]))  # the head
    assert (
        chain.tip.block.hash, chain.utxos.snapshot(), cached_txids()
    ) == inline_result([*prefix, *wide])


@forked_workers
@pytest.mark.parametrize("dying", ["every", "last"])
def test_a_worker_dying_mid_block_changes_nothing(
    history, two_workers, monkeypatch, dying
):
    answer = validation._authorised_txid

    def die(raw, locks):
        # A worker forked last sees the pool's other worker already listed.
        if dying == "every" or len(validation._pool[1]) == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return answer(raw, locks)

    monkeypatch.setattr(validation, "_authorised_txid", die)
    prefix, wide = history
    chain = sync(prefix)
    runs = scripts_run_here(monkeypatch)
    for block in wide:
        assert chain.add_block(block)
        assert validation._pool is None
    # No worker's verdict was recorded: every share was checked here.
    assert len(runs) == len(wide) * SPENDS
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
