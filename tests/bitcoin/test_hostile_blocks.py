"""Hostile blocks and scriptSigs through a node's front door.

Block connect checks each transaction the way the mempool does —
finality, the in-block double-spend set, ``check_tx_inputs`` — so every
way a peer can break §2's rules arrives at ``Relay._accept_block`` as a
``ValidationError``: the sender is charged, the block is marked invalid,
and a reorganization that met it is rolled back to exactly the state it
started from, in memory and on disk.  The two wide positions put the
fault first and last beside enough cold honest inputs that the pool is
engaged: the fault first lands in the connecting process's own share of
the scripts, the fault last in the worker's.
"""

import os
import re
from dataclasses import dataclass, field, replace

import pytest

from repro import obs
from repro.bitcoin import sigcache, validation
from repro.bitcoin.block import Block, build_block
from repro.bitcoin.chain import Blockchain, ChainParams
from repro.bitcoin.mempool import Mempool, MempoolError
from repro.bitcoin.miner import Miner
from repro.bitcoin.network import Node, Simulation
from repro.bitcoin.relay import POINTS_INVALID_BLOCK, POINTS_INVALID_TX
from repro.bitcoin.script import Op, Script
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import (
    SEQUENCE_FINAL,
    OutPoint,
    Transaction,
    TxIn,
    TxOut,
)
from repro.bitcoin.validation import ValidationError
from repro.bitcoin.wallet import Wallet
from repro.obs.monitor import MonitorRegistry, monitors, set_monitors
from repro.store import BlockStore, recover_chain

PARAMS = ChainParams.regtest()

# ``World.pay`` signs deterministically, so on a shared signature cache the
# first cell's script verdicts would be every later cell's: each starts cold.
pytestmark = pytest.mark.usefixtures("fresh_default_cache")


@dataclass
class World:
    """The history every cell starts from, built once: blocks 1–6 pay
    alice (mature at the fork point), 7–105 a burn key, and 106 alice
    again — a coinbase she owns and may not yet spend; block 107 fans the
    burn key's first coinbase out to alice for the wide positions."""

    chain: Blockchain
    alice: Wallet
    coins: list[OutPoint]  # alice's six mature coinbase outputs
    young: OutPoint  # her immature one
    honest: Miner
    attacker: Miner
    # Zero-fee spends of the fan-out, POOL_MIN_INPUTS cold inputs that
    # leave every fault's fee arithmetic as it was.
    padding: list[Transaction] = field(default_factory=list)
    wide: str = ""  # "first" / "last": where mined blocks put the fault

    def pay(
        self,
        coin: OutPoint,
        surplus: int = -1000,
        locktime: int = 0,
        sequence: int = SEQUENCE_FINAL,
    ) -> Transaction:
        """alice's signed spend of one named coin, paying herself its
        value plus ``surplus`` (negative: a fee)."""
        locked = self.chain.utxos.get(coin).output
        tx = Transaction(
            [TxIn(coin, sequence=sequence)],
            [TxOut(locked.value + surplus, p2pkh_script(self.alice.key_hash))],
            locktime=locktime,
        )
        return self.alice.sign_all(tx, [locked.script_pubkey])

    def mined(self, prev: Block, txs) -> Block:
        txs = list(txs)
        if self.wide == "first":
            txs += self.padding
        elif self.wide == "last":
            txs[1:1] = self.padding
        return self.attacker.grind(
            build_block(
                prev.hash, txs, prev.header.timestamp + 1, prev.header.bits
            )
        )

    def block(self, prev: Block, height: int, spends=(), miner=None, fees=0) -> Block:
        """A mined child of ``prev``: a coinbase, then ``spends``."""
        coinbase = (miner or self.attacker).make_coinbase(height, fees=fees)
        return self.mined(prev, [coinbase, *spends])


@pytest.fixture(scope="module")
def world():
    chain = Blockchain(PARAMS)
    alice = Wallet.from_seed(b"hostile-alice")
    burn = Wallet.from_seed(b"hostile-burn")
    payees = [alice.key_hash] * 6 + [burn.key_hash] * 99 + [alice.key_hash]
    for nonce, key_hash in enumerate(payees):
        Miner(chain, key_hash).mine_block(extra_nonce=nonce)
    coinbases = [OutPoint(block.txs[0].txid, 0) for block in chain.export_active()]
    world = World(
        chain,
        alice,
        coins=coinbases[:6],
        young=coinbases[-1],
        honest=Miner(chain, Wallet.from_seed(b"hostile-honest").key_hash),
        attacker=Miner(chain, Wallet.from_seed(b"hostile-attacker").key_hash),
    )
    burned = chain.utxos.get(coinbases[6]).output
    lock = p2pkh_script(alice.key_hash)
    fanout = burn.sign_all(
        Transaction(
            [TxIn(coinbases[6])],
            [TxOut(burned.value // 32, lock)] * validation.POOL_MIN_INPUTS,
        ),
        [burned.script_pubkey],
    )
    assert chain.add_block(world.block(chain.tip.block, chain.height + 1, [fanout]))
    world.padding = [
        world.pay(fanout.outpoint(i), surplus=0)
        for i in range(validation.POOL_MIN_INPUTS)
    ]
    return world


def corrupt_signature(tx: Transaction) -> Transaction:
    sig, *rest = tx.vin[0].script_sig.elements
    flipped = sig[:10] + bytes([sig[10] ^ 0x01]) + sig[11:]
    return tx.with_input_script(0, Script([flipped, *rest]))


def non_push(tx: Transaction) -> Transaction:
    """A valid spend with ``OP_DUP`` appended to its scriptSig — the
    signature does not cover scriptSigs, so anyone on the path can do it
    (BIP 62's second malleability source)."""
    return tx.with_input_script(
        0, Script([*tx.vin[0].script_sig.elements, Op.OP_DUP])
    )


# Each fault builds the bad block as a child of ``prev`` at ``height``.


def duplicate_transaction(w, prev, height):
    tx = w.pay(w.coins[2])
    return w.block(prev, height, [tx, tx])


def in_block_double_spend(w, prev, height):
    return w.block(
        prev, height, [w.pay(w.coins[2]), w.pay(w.coins[2], surplus=-2000)]
    )


def spend_of_same_block_output(w, prev, height):
    first = w.pay(w.coins[2])
    second = Transaction(
        [TxIn(first.outpoint(0))],
        [TxOut(first.vout[0].value - 1000, p2pkh_script(w.alice.key_hash))],
    )
    second = w.alice.sign_all(second, [first.vout[0].script_pubkey])
    return w.block(prev, height, [first, second])


def premature_coinbase_spend(w, prev, height):
    return w.block(prev, height, [w.pay(w.young)])


def outputs_exceed_inputs(w, prev, height):
    return w.block(prev, height, [w.pay(w.coins[2], surplus=1)])


def bad_signature(w, prev, height):
    return w.block(prev, height, [corrupt_signature(w.pay(w.coins[2]))])


def non_push_script_sig(w, prev, height):
    return w.block(prev, height, [non_push(w.pay(w.coins[2]))])


def non_final_locktime(w, prev, height):
    return w.block(prev, height, [w.pay(w.coins[2], locktime=500, sequence=0)])


def coinbase_over_subsidy_plus_fees(w, prev, height):
    return w.block(prev, height, [w.pay(w.coins[2])], fees=1001)


def bad_merkle_root(w, prev, height):
    committed = w.block(prev, height)
    return Block(committed.header, [*committed.txs, w.pay(w.coins[2])])


def coinbase_not_first(w, prev, height):
    return w.mined(
        prev, [w.pay(w.coins[2]), w.attacker.make_coinbase(height, fees=0)]
    )


FAULTS = [
    (duplicate_transaction, "missing or spent input"),
    (in_block_double_spend, "missing or spent input"),
    (spend_of_same_block_output, "missing or spent input"),
    (premature_coinbase_spend, "premature spend of coinbase output"),
    (outputs_exceed_inputs, "outputs exceed inputs"),
    (bad_signature, "script validation failed on input 0$"),
    (
        non_push_script_sig,
        "script validation failed on input 0: scriptSig must be push-only",
    ),
    (non_final_locktime, "non-final transaction in block"),
    (coinbase_over_subsidy_plus_fees, "coinbase pays more than subsidy plus fees"),
    (bad_merkle_root, "merkle root mismatch"),
    (coinbase_not_first, "first transaction must be coinbase"),
]
POSITIONS = ["extension", "branch-first", "branch-last", "wide-first", "wide-last"]
# The faults refused before block connect, so before the pool is asked.
BEFORE_CONNECT = (bad_merkle_root, coinbase_not_first)


class Victim:
    """A store-backed node one block past the fork point — its own block
    confirms a payment, its mempool holds another — and the peer whose
    deliveries it judges."""

    def __init__(self, world: World, store_dir):
        self.world = world
        self.store_dir = str(store_dir)
        self.sim = Simulation(seed=22)
        self.node = Node("victim", self.sim, PARAMS, store_dir=self.store_dir)
        self.peer = Node("attacker", self.sim, PARAMS)
        self.node.connect(self.peer)
        for block in world.chain.export_active():
            self.node.chain.add_block(block)
        self.fork = world.chain.tip.block
        self.height = world.chain.height + 1
        self.own = world.block(
            self.fork, self.height, [world.pay(world.coins[0])], miner=world.honest
        )
        self.node.submit_block(self.own)
        assert self.node.submit_transaction(world.pay(world.coins[1]))
        assert self.node.chain.tip.block.hash == self.own.hash
        # Everything add_block raises from here on, whatever its type.
        self.raised: list[BaseException] = []
        add_block = self.node.chain.add_block

        def recording(block):
            try:
                return add_block(block)
            except BaseException as exc:
                self.raised.append(exc)
                raise

        self.node.chain.add_block = recording

    def state(self):
        chain, pool = self.node.chain, self.node.mempool
        return (
            chain.tip.block.hash,
            chain.height,
            chain.utxos.snapshot(),
            chain.utxos.serialized_size(),
            dict(chain._tx_index),
            dict(chain._spenders),
            dict(pool._entries),
            dict(pool._spent),
        )

    def branch(self, fault, position: str) -> tuple[list[Block], Block]:
        """The attacker's blocks in delivery order, and the bad one."""
        w = self.world
        if position == "extension":
            bad = fault(w, self.own, self.height + 1)
            return [bad], bad
        if position.startswith("wide-"):
            bad = fault(replace(w, wide=position[5:]), self.own, self.height + 1)
            return [bad], bad
        if position == "branch-first":
            bad = fault(w, self.fork, self.height)
            return [bad, w.block(bad, self.height + 1)], bad
        first = w.block(self.fork, self.height)
        bad = fault(w, first, self.height + 1)
        return [first, bad], bad

    def deliver(self, blocks) -> None:
        """Each block as a message from the peer, through the event loop."""
        for block in blocks:
            self.sim.schedule(
                1.0, lambda b=block: self.node.submit_block(b, origin=self.peer)
            )
            self.sim.run_until(self.sim.now + 600.0)

    def recovered(self):
        """Tip and table of a chain rebuilt from what the store holds."""
        self.node.chain.store.close()
        chain = recover_chain(BlockStore(self.store_dir).open(), PARAMS)
        try:
            return chain.tip.block.hash, chain.height, chain.utxos.snapshot()
        finally:
            chain.store.close()

    def assert_refused(self, bad: Block, before, message: str) -> None:
        """One ValidationError, the sender charged for it, the bad block
        unusable, and nothing else different — in memory or on disk."""
        [error] = self.raised
        assert isinstance(error, ValidationError)
        assert re.search(message, str(error))
        assert self.node._misbehavior.get(self.peer.name, 0) == POINTS_INVALID_BLOCK
        entry = self.node.chain.entry(bad.hash)
        assert entry is None or entry.invalid
        assert not self.node.chain.in_active_chain(bad.hash)
        assert self.state() == before
        assert self.recovered() == before[:3]


def admit_what_a_mempool_would(world: World, blocks) -> None:
    """Offer the blocks' spends, and the honest spend the forged ones are
    copies of, to another node's mempool in this process: whatever it
    admits has its script verdict cached when the bad block arrives."""
    honest = world.pay(world.coins[2])
    pool = Mempool(world.chain)
    for tx in [honest, *(tx for block in blocks for tx in block.txs)]:
        try:
            pool.accept(tx)
        except MempoolError:
            continue
        pool.remove(tx.txid)
    assert sigcache.default_cache().has_tx(honest.txid)


@pytest.fixture
def pool_asks(monkeypatch):
    """Two processors, and per block the pool was asked about: the inputs
    of the worker's share, and whether every transaction sent was
    answered (``None`` until the answers are asked for)."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    asks = []
    ask = validation._ask_pool

    def recording(jobs):
        answers = ask(jobs)
        asks.append((sum(len(tx.vin) for tx, _ in jobs), None))

        def answered():
            got = answers()
            asks[-1] = (asks[-1][0], len(got) == len(jobs))
            return got

        return answered

    monkeypatch.setattr(validation, "_ask_pool", recording)
    return asks


@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize(
    "fault, message", FAULTS, ids=[fault.__name__ for fault, _ in FAULTS]
)
def test_hostile_block_is_refused_and_changes_nothing(
    world, tmp_path, fault, message, position, pool_asks
):
    victim = Victim(world, tmp_path)
    blocks, bad = victim.branch(fault, position)
    before = victim.state()
    victim.deliver(blocks)
    victim.assert_refused(bad, before, message)
    if position.startswith("wide-") and fault not in BEFORE_CONNECT:
        # The worker's share: at least half of the block's cold inputs.
        [(inputs, answered)] = pool_asks
        assert inputs >= validation.POOL_MIN_INPUTS // 2 and answered
    else:
        assert pool_asks == []


@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize(
    "fault, message", FAULTS, ids=[fault.__name__ for fault, _ in FAULTS]
)
def test_hostile_block_is_refused_the_same_against_warm_verdicts(
    world, tmp_path, fault, message, position
):
    """The bad-signature cell is the one that matters: its honest twin's
    txid is cached, and the forgery's txid is not the twin's."""
    victim = Victim(world, tmp_path)
    blocks, bad = victim.branch(fault, position)
    admit_what_a_mempool_would(world, blocks)
    before = victim.state()
    victim.deliver(blocks)
    victim.assert_refused(bad, before, message)


def test_first_failing_transaction_names_the_block_fault(world, tmp_path):
    """Two faults in one block: the earlier transaction's is reported,
    whichever kind it is."""
    victim = Victim(world, tmp_path)
    missing = world.pay(world.coins[0])  # spent by the victim's own block
    bad = world.block(
        victim.own,
        victim.height + 1,
        [corrupt_signature(world.pay(world.coins[2])), missing],
    )
    before = victim.state()
    victim.deliver([bad])
    victim.assert_refused(bad, before, "script validation failed on input 0$")


# ----------------------------------------------------------------------
# The scriptSig that left the node as a raw ScriptError
# ----------------------------------------------------------------------


@pytest.fixture
def obs_strict():
    """Observability on against private state, with strict monitors: a
    tip-work regression raises at the block that shows it."""
    was_enabled = obs.ENABLED
    saved = (
        obs.set_registry(obs.Registry()),
        obs.set_event_log(obs.EventLog()),
        set_monitors(MonitorRegistry(enabled=True, strict=True)),
    )
    obs.enable()
    yield
    obs.set_registry(saved[0])
    obs.set_event_log(saved[1])
    set_monitors(saved[2])
    obs.ENABLED = was_enabled


def test_non_push_transaction_costs_its_sender_and_stays_in_the_loop(
    world, tmp_path
):
    victim = Victim(world, tmp_path)
    tx = non_push(world.pay(world.coins[2]))
    before = victim.state()
    accepted = []
    victim.sim.schedule(
        1.0,
        lambda: accepted.append(
            victim.node.submit_transaction(tx, origin=victim.peer)
        ),
    )
    victim.sim.run_until(victim.sim.now + 600.0)
    assert accepted == [False]
    assert victim.node._misbehavior.get(victim.peer.name, 0) == POINTS_INVALID_TX
    assert victim.state() == before


def test_non_push_block_as_an_extension_is_invalid_and_charged(world, tmp_path):
    victim = Victim(world, tmp_path)
    blocks, bad = victim.branch(non_push_script_sig, "extension")
    before = victim.state()
    victim.deliver(blocks)
    victim.assert_refused(bad, before, "scriptSig must be push-only")
    assert victim.node.chain.entry(bad.hash).invalid
    # Re-offered, it is still refused — and nothing builds on it.
    child = world.block(bad, victim.height + 2)
    with pytest.raises(ValidationError, match="parent block is invalid"):
        victim.node.chain.add_block(child)


def test_non_push_branch_is_rolled_back_with_the_tip_work_monitor_silent(
    world, tmp_path, obs_strict
):
    """The attacker's heavier branch [bad, empty] met a victim one block
    ahead; the parent left it a block *behind* where it started."""
    victim = Victim(world, tmp_path)
    listened = []
    victim.node.chain.add_reorg_listener(lambda *args: listened.append(args))
    blocks, bad = victim.branch(non_push_script_sig, "branch-first")
    before = victim.state()
    victim.deliver(blocks)
    [error] = victim.raised
    assert isinstance(error, ValidationError)
    assert victim.state() == before
    assert victim.node.chain.entry(bad.hash).invalid
    assert listened == []  # no reorg happened: nothing to re-inject
    # The victim's own chain still extends, and the monitor that compares
    # tip work across add_block calls has nothing to say.
    victim.node.submit_block(
        world.block(victim.own, victim.height + 1, miner=world.honest)
    )
    assert victim.node.chain.height == victim.height + 1
    assert monitors().violations == []
    assert victim.recovered()[:2] == (
        victim.node.chain.tip.block.hash,
        victim.height + 1,
    )


def test_bad_signature_block_is_counted_where_a_reader_looks(
    world, tmp_path, obs_strict
):
    victim = Victim(world, tmp_path)
    blocks, bad = victim.branch(bad_signature, "extension")
    rejected = obs.registry().counter("chain.blocks_rejected_total")
    failures = obs.registry().counter("script.failures_total")
    assert (rejected.value, failures.value) == (0, 0)
    victim.deliver(blocks)
    assert rejected.value == 1
    assert failures.value >= 1
