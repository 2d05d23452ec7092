"""The facts kept on Bitcoin objects are invisible.

A script keeps its encoding and its class, a transaction whether it is a
coinbase and that it passed ``check_transaction``, a block that it passed
``validate_structure`` — each a ``cached_property``.  None of them may
show in ``==``, ``hash``, ``repr`` or a pickle round trip; each equals what
a freshly built twin computes; and a failing check is never kept, so it
fails on every call.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.bitcoin.block import Block, BlockHeader, build_block
from repro.bitcoin.script import Op, Script, ScriptError
from repro.bitcoin.standard import classify
from repro.bitcoin.transaction import (
    MAX_MONEY,
    OutPoint,
    Transaction,
    TxIn,
    TxOut,
)
from repro.bitcoin.validation import ValidationError, check_transaction

BITS = 0x207FFFFF
WRONG_ROOT = BlockHeader(b"\x00" * 32, b"\x11" * 32, 1_000_000, BITS)

pushes = st.binary(min_size=1, max_size=80)
keys = st.builds(
    lambda parity, x: bytes([2 + parity]) + x,
    st.integers(0, 1),
    st.binary(min_size=32, max_size=32),
)
SMALL = [Op.OP_1, Op.OP_2, Op.OP_3]
scripts = st.one_of(
    st.lists(st.one_of(st.sampled_from(list(Op)), pushes, keys), max_size=8).map(
        Script
    ),
    keys.map(lambda key: Script([key, Op.OP_CHECKSIG])),
    st.binary(min_size=20, max_size=20).map(
        lambda h: Script(
            [Op.OP_DUP, Op.OP_HASH160, h, Op.OP_EQUALVERIFY, Op.OP_CHECKSIG]
        )
    ),
    st.lists(keys, min_size=1, max_size=3).map(
        lambda ks: Script(
            [Op.OP_1, *ks, SMALL[len(ks) - 1], Op.OP_CHECKMULTISIG]
        )
    ),
    st.binary(max_size=80).map(lambda payload: Script([Op.OP_RETURN, payload])),
)
outpoints = st.one_of(
    st.just(OutPoint.null()),
    st.builds(
        OutPoint, st.sampled_from([b"\x01" * 32, b"\x02" * 32]), st.integers(0, 2)
    ),
)
values = st.one_of(
    st.integers(0, 10**9), st.sampled_from([-1, MAX_MONEY, MAX_MONEY + 1])
)
txins = st.builds(TxIn, outpoints, scripts, st.sampled_from([0, 0xFFFFFFFF]))
txouts = st.builds(TxOut, values, scripts)
transactions = st.builds(
    Transaction,
    st.lists(txins, max_size=3),
    st.lists(txouts, max_size=3),
    locktime=st.integers(0, 10),
)


def coinbase(tag: int) -> Transaction:
    return Transaction(
        [TxIn(OutPoint.null(), Script([bytes([tag + 1])]))],
        [TxOut(50, Script([Op.OP_1]))],
    )


@st.composite
def blocks(draw):
    """A block that may or may not pass: its own coinbase first or not,
    its merkle root right or not."""
    txs = draw(st.lists(transactions, max_size=3))
    if draw(st.booleans()):
        txs = [coinbase(draw(st.integers(0, 200))), *txs]
    block = build_block(b"\x00" * 32, txs, 1_000_000, BITS)
    if draw(st.booleans()):
        block = Block(WRONG_ROOT, block.txs)
    return block


def twin(obj):
    """The same value, built afresh: no memo yet."""
    if isinstance(obj, Script):
        return Script(obj.elements)
    if isinstance(obj, Transaction):
        return Transaction(
            [TxIn(i.prevout, twin(i.script_sig), i.sequence) for i in obj.vin],
            [TxOut(o.value, twin(o.script_pubkey)) for o in obj.vout],
            version=obj.version,
            locktime=obj.locktime,
        )
    return Block(obj.header, [twin(tx) for tx in obj.txs])


def outcome(call):
    """``("ok", value)`` or ``("raises", type, message)``."""
    try:
        return ("ok", call())
    except (ScriptError, ValidationError) as exc:
        return ("raises", type(exc), str(exc))


def facts(obj) -> list:
    """Every kept fact of ``obj``, each asked twice in a row."""
    if isinstance(obj, Script):
        asks = [obj.serialize, lambda: classify(obj)]
    elif isinstance(obj, Transaction):
        asks = [obj.serialize, lambda: obj.txid, lambda: obj.is_coinbase,
                lambda: check_transaction(obj)]
    else:
        asks = [obj.validate_structure]
    return [outcome(ask) for ask in asks for _ in range(2)]


def assert_invisible(obj) -> None:
    fresh = twin(obj)
    before = pickle.dumps(fresh)
    kept = facts(obj)
    assert kept == facts(fresh)  # equal to a fresh twin's, pass or fail
    assert kept[::2] == kept[1::2]  # and the same on the second ask
    assert obj == fresh and hash(obj) == hash(fresh) and repr(obj) == repr(fresh)
    again = pickle.loads(pickle.dumps(obj))
    assert again == obj and repr(again) == repr(obj)
    assert facts(again) == kept
    assert pickle.loads(before) == obj


class TestInvisible:
    @settings(max_examples=200, deadline=None)
    @given(scripts)
    def test_scripts(self, script):
        assert_invisible(script)

    @settings(max_examples=200, deadline=None)
    @given(transactions)
    def test_transactions(self, tx):
        assert_invisible(tx)

    @settings(max_examples=100, deadline=None)
    @given(blocks())
    def test_blocks(self, block):
        assert_invisible(block)


class TestFailuresAreNotKept:
    def test_an_over_long_script_raises_on_every_call(self):
        script = Script([b"\x01" * 500] * 21)
        for _ in range(3):
            with pytest.raises(ScriptError, match="10k-byte"):
                script.serialize()

    def test_a_failing_transaction_raises_on_every_call(self):
        tx = Transaction(
            [TxIn(OutPoint(b"\x01" * 32, 0))], [TxOut(-1, Script())]
        )
        for _ in range(3):
            with pytest.raises(ValidationError, match="negative output"):
                check_transaction(tx)

    def test_a_failing_block_raises_on_every_call(self):
        block = build_block(b"\x00" * 32, [coinbase(0)], 1_000_000, BITS)
        bad = Block(WRONG_ROOT, block.txs)
        for _ in range(3):
            with pytest.raises(ValidationError, match="merkle root"):
                bad.validate_structure()
        block.validate_structure()
