"""Coin selection from the table's owner index.

``Wallet.spendables`` asks the unspent-txout table for the entries naming
one of its keys instead of classifying the whole table.  The old full
scan survives as ``tests.oracles.full_scan_spendables``; here random
block histories are applied, undone and reorganised on a ``UTXOSet``, and
after every step the indexed answer must equal the scan and the index
must equal one rebuilt from the live entries.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.bitcoin.script import Op, Script
from repro.bitcoin.standard import (
    ScriptType,
    classify,
    multisig_script,
    op_return_script,
    p2pk_script,
    p2pkh_script,
)
from repro.bitcoin.transaction import COIN, OutPoint, Transaction, TxIn, TxOut
from repro.bitcoin.utxo import COINBASE_MATURITY, UTXOEntry, UTXOSet
from repro.bitcoin.wallet import Wallet
from repro.core.overlay import output_script
from repro.crypto.keys import PrivateKey
from tests.oracles import full_scan_spendables

OURS = PrivateKey.from_seed(b"index-ours")
LATER = PrivateKey.from_seed(b"index-later")  # joins the wallet mid-history
THEIRS = PrivateKey.from_seed(b"index-theirs")
OTHER = PrivateKey.from_seed(b"index-other")


def pub(key):
    return key.public.encoded


# What an output can be locked with.  "Ours" is relative to a wallet that
# holds OURS from the start and LATER from some point on.
SCRIPTS = {
    "p2pkh-ours": p2pkh_script(OURS.public.key_hash),
    "p2pkh-later": p2pkh_script(LATER.public.key_hash),
    "p2pkh-theirs": p2pkh_script(THEIRS.public.key_hash),
    "p2pk-ours": p2pk_script(pub(OURS)),
    "p2pk-theirs": p2pk_script(pub(THEIRS)),
    # 1-of-2 carrier locks: recipient key beside a metadata pseudo-key.
    "carrier-ours": output_script(pub(OURS), b"\x11" * 32),
    "carrier-theirs": output_script(pub(THEIRS), b"\x22" * 32),
    # 2-of-3 escrow locks holding one and two of our keys.
    "escrow-one": multisig_script(2, [pub(OURS), pub(THEIRS), pub(OTHER)]),
    "escrow-two": multisig_script(2, [pub(THEIRS), pub(OURS), pub(LATER)]),
    # The same key twice is one tag, not two.
    "multisig-twice": multisig_script(1, [pub(OURS), pub(OURS)]),
    "op-return": op_return_script(b"index"),
    "nonstandard": Script([Op.OP_1]),
}
KINDS = sorted(SCRIPTS)

# The stub chain starts here, so coinbases planted just either side of
# START - COINBASE_MATURITY mature and un-mature as blocks come and go.
START = 3 * COINBASE_MATURITY


def expected_tags(entry):
    """The index keys of one entry, from the classifier alone."""
    classified = classify(entry.output.script_pubkey)
    if classified.type in (ScriptType.P2PKH, ScriptType.P2PK, ScriptType.MULTISIG):
        return set(classified.data)
    return set()


def assert_index_exact(table):
    """``table``'s owner index equals one rebuilt from its entries — so its
    bucket sizes sum to the tags of the live entries, and no empty bucket
    (nor any other stale one) outlives its last outpoint."""
    rebuilt = {}
    for outpoint, entry in table.items():
        for tag in expected_tags(entry):
            rebuilt.setdefault(tag, set()).add(outpoint)
    assert table._by_tag == rebuilt


class History:
    """A table driven through a sequence of blocks."""

    def __init__(self):
        self.table = UTXOSet()
        # Entries a snapshot would have installed: coinbases to us around
        # the maturity edge, and one ordinary output of each kind.
        planted = [
            (
                OutPoint(bytes([i]) * 32, 0),
                UTXOEntry(
                    TxOut(50 * COIN, SCRIPTS["p2pkh-ours"]),
                    START - COINBASE_MATURITY + i - 2,
                    True,
                ),
            )
            for i in range(6)
        ] + [
            (
                OutPoint(bytes([0x80 + i]) * 32, 1),
                UTXOEntry(TxOut(1000 + i, SCRIPTS[kind]), START - 1, False),
            )
            for i, kind in enumerate(KINDS)
        ]
        for outpoint, entry in planted:
            self.table.add(outpoint, entry)
        self.height = START
        self.wallet = Wallet([OURS])
        self.connected = []  # (txs, undo), tip last
        self.undone = []  # blocks taken off the tip, most recent last
        self.serial = 0

    # -- building blocks ------------------------------------------------

    def build_block(self, spec):
        """``spec`` is (coinbase kind, [(input picks, output kinds)]): a
        coinbase, then transactions spending outputs live before the
        block.  None spends an output of the same block: ``Blockchain``
        checks a block's inputs against the pre-block table, so it never
        connects such a block, and ``undo_block`` could not disconnect
        one (it deletes every created output before restoring any spent
        one)."""
        coinbase_kind, tx_specs = spec
        self.serial += 1
        txs = [
            Transaction(
                vin=[
                    TxIn(
                        OutPoint.null(),
                        Script([self.serial.to_bytes(4, "big")]),
                    )
                ],
                vout=[TxOut(50 * COIN, SCRIPTS[coinbase_kind])],
            )
        ]
        available = sorted(self.table.snapshot())
        for picks, kinds in tx_specs:
            prevouts = []
            for pick in picks:
                if available:
                    prevouts.append(available.pop(pick % len(available)))
            if not prevouts:
                continue
            tx = Transaction(
                vin=[TxIn(prevout) for prevout in prevouts],
                vout=[
                    TxOut(600 + i, SCRIPTS[kind]) for i, kind in enumerate(kinds)
                ],
            )
            txs.append(tx)
        return txs

    def connect(self, txs):
        self.height += 1
        self.connected.append(
            (txs, self.table.apply_block_txs(txs, self.height))
        )

    # -- operations -----------------------------------------------------

    def apply(self, spec):
        self.undone.clear()  # a new block forks away from what was undone
        self.connect(self.build_block(spec))

    def undo(self, count):
        for _ in range(min(count, len(self.connected))):
            txs, undo = self.connected.pop()
            self.table.undo_block(undo)
            self.height -= 1
            self.undone.append(txs)

    def redo(self):
        """Reconnect the block most recently taken off the tip."""
        if self.undone:
            self.connect(self.undone.pop())

    def reorg(self, depth, specs):
        self.undo(depth)
        for spec in specs:
            self.apply(spec)

    def add_key(self):
        if len(self.wallet.keys) == 1:
            self.wallet = Wallet([OURS, LATER])

    # -- the properties -------------------------------------------------

    def check(self):
        chain = SimpleNamespace(utxos=self.table, height=self.height)
        answer = self.wallet.spendables(chain)
        assert answer == full_scan_spendables(self.wallet, chain)
        assert_index_exact(self.table)
        return answer


a_kind = st.sampled_from(KINDS)
a_tx = st.tuples(
    st.lists(st.integers(0, 1 << 16), min_size=1, max_size=3),
    st.lists(a_kind, min_size=1, max_size=4),
)
a_block = st.tuples(a_kind, st.lists(a_tx, max_size=4))
an_operation = st.one_of(
    st.tuples(st.just("apply"), a_block),
    st.tuples(st.just("undo"), st.integers(1, 3)),
    st.tuples(st.just("redo")),
    st.tuples(st.just("reorg"), st.integers(1, 3), st.lists(a_block, max_size=3)),
    st.tuples(st.just("add_key")),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(an_operation, max_size=24))
def test_spendables_equals_full_scan_over_random_histories(ops):
    history = History()
    history.check()
    for name, *args in ops:
        getattr(history, name)(*args)
        history.check()


def block(coinbase_kind, *tx_specs):
    return (coinbase_kind, list(tx_specs))


def owned_kinds(history):
    return sorted(
        kind
        for s in history.check()
        for kind, script in SCRIPTS.items()
        if script == s.output.script_pubkey and not s.is_coinbase
    )


def test_each_lock_is_offered_exactly_when_the_wallet_can_sign_it():
    history = History()
    assert owned_kinds(history) == [
        "carrier-ours", "multisig-twice", "p2pk-ours", "p2pkh-ours",
    ]
    # The outputs exist already; the key arrives afterwards.
    history.add_key()
    assert owned_kinds(history) == [
        "carrier-ours", "escrow-two", "multisig-twice", "p2pk-ours",
        "p2pkh-later", "p2pkh-ours",
    ]


def test_coinbase_maturity_edge_moves_with_the_tip():
    history = History()

    def mature_coinbases():
        return [s.height for s in history.check() if s.is_coinbase]

    edge = START - COINBASE_MATURITY
    assert mature_coinbases() == [edge - 2, edge - 1, edge]
    history.apply(block("p2pkh-theirs"))
    assert mature_coinbases() == [edge - 2, edge - 1, edge, edge + 1]
    history.undo(1)
    assert mature_coinbases() == [edge - 2, edge - 1, edge]


# ----------------------------------------------------------------------
# The visited-entries meter
# ----------------------------------------------------------------------


def crowded_chain(foreign):
    """Three outputs of ours among ``foreign`` outputs of strangers."""
    table = UTXOSet()
    for i in range(foreign):
        table.add(
            OutPoint(i.to_bytes(32, "big"), 0),
            UTXOEntry(
                TxOut(10_000, p2pkh_script(i.to_bytes(20, "big"))), 1, False
            ),
        )
    for i, kind in enumerate(["p2pkh-ours", "p2pk-ours", "carrier-ours"]):
        table.add(
            OutPoint(bytes([0xF0 + i]) * 32, 0),
            UTXOEntry(TxOut(10_000, SCRIPTS[kind]), 2 + i, False),
        )
    return SimpleNamespace(utxos=table, height=10)


@pytest.mark.parametrize("foreign", [1_000, 10_000])
def test_create_transaction_visits_what_the_wallet_owns(controls_calls, foreign):
    chain = crowded_chain(foreign)
    wallet = Wallet([OURS])
    tx = wallet.create_transaction(
        chain, [TxOut(25_000, SCRIPTS["p2pkh-theirs"])], fee=1_000
    )
    assert len(tx.vin) == 3
    assert len(controls_calls) == 3  # the foreign set costs nothing
    del controls_calls[:]
    assert len(full_scan_spendables(wallet, chain)) == 3
    assert len(controls_calls) == foreign + 3  # what the scan paid
