"""Hostile bytes for the store's three decoders.

Whatever a block-log record, an undo record or a snapshot holds, its
decoder either refuses it with its own typed error — ``CodecError`` for
the logs, ``SnapshotError`` for a snapshot — or returns what the encoder
would write back.  So ``BlockStore.recover`` answers ``StoreError`` for a
corrupt log and falls back to a full replay for a corrupt snapshot; the
``ScriptError`` or ``ValueError`` of a layer below never escapes it.

Undo records and snapshots are the store's own format and decode only
from exactly the bytes the encoders write.  A block record's body is the
wire format, which reads non-minimal pushes and varints and re-encodes
them minimally, so it round-trips to the same block in no more bytes.
"""

import functools
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import COIN, TxOut
from repro.bitcoin.utxo import UTXOSet
from repro.bitcoin.wallet import Wallet
from repro.store import BlockStore, SnapshotError, StoreError, recover_chain
from repro.store import codec, framing
from repro.store.snapshot import decode_snapshot, encode_snapshot
from repro.store.store import BLOCK_LOG_MAGIC, UNDO_LOG_MAGIC

P2PKH_HEAD = bytes([0x76, 0xA9, 0x14])  # OP_DUP OP_HASH160 <20-byte push>
UNKNOWN_OP = 0xBA  # no opcode: Script.parse refuses it


def spend_history(store=None):
    """A regtest chain whose tip block spends one coin to a payee, so its
    undo record holds a spent entry; mirrored into ``store`` if given."""
    net = RegtestNetwork()
    if store is not None:
        net.chain.attach_store(store)
    alice = Wallet.from_seed(b"hostile-store-alice")
    net.fund_wallet(alice)
    net.send(alice.create_transaction(
        net.chain, [TxOut(COIN, p2pkh_script(b"\x05" * 20))], fee=2000
    ))
    net.confirm(1)
    return net.chain


@functools.cache
def samples() -> dict[str, bytes]:
    """One valid input per decoder, each small enough to cut everywhere."""
    chain = spend_history()
    tip = chain.tip.block
    undo = chain._connected[tip.hash].undo
    assert undo.spent, "the tip must spend something"
    utxos = UTXOSet()
    for outpoint in undo.created:
        utxos.add(outpoint, chain.utxos.get(outpoint))
    for spent in undo.spent:
        utxos.add(spent.outpoint, spent.entry)
    return {
        "block": codec.encode_connect(tip, chain.height),
        "undo": codec.encode_undo_record(tip.hash, chain.height, undo),
        "snapshot": encode_snapshot(utxos, chain.height, tip.hash),
    }


def sealed(data: bytes) -> bytes:
    """``data``'s body under a fresh CRC: a snapshot whose checksum holds,
    so the entries themselves meet the decoder."""
    body = data[:-4]
    return body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little")


def check_block_record(payload: bytes) -> None:
    try:
        kind, height, block, block_hash = codec.decode_block_record(payload)
    except codec.CodecError:
        return
    if block is None:
        assert codec.encode_disconnect(block_hash, height) == payload
        return
    again = codec.encode_connect(block, height)
    assert codec.decode_block_record(again) == (kind, height, block, block_hash)
    assert len(again) <= len(payload)


def check_undo_record(payload: bytes) -> None:
    try:
        block_hash, height, undo = codec.decode_undo_record(payload)
    except codec.CodecError:
        return
    assert codec.encode_undo_record(block_hash, height, undo) == payload


def check_snapshot(data: bytes) -> None:
    try:
        snap = decode_snapshot(data)
    except SnapshotError:
        return
    assert encode_snapshot(snap.to_utxo_set(), snap.height, snap.tip) == data


def check_snapshot_as_read_and_resealed(data: bytes) -> None:
    check_snapshot(data)
    check_snapshot(sealed(data))


CHECKS = {
    "block": check_block_record,
    "undo": check_undo_record,
    "snapshot": check_snapshot_as_read_and_resealed,
}


def with_unknown_opcode(data: bytes) -> bytes:
    """``data`` with its first P2PKH script's OP_DUP made an unknown opcode."""
    at = data.index(P2PKH_HEAD)
    return data[:at] + bytes([UNKNOWN_OP]) + data[at + 1 :]


class TestProbes:
    """Each raised a foreign exception before the store wrapped it."""

    def test_block_record_with_an_unknown_opcode(self):
        with pytest.raises(codec.CodecError, match="unknown opcode"):
            codec.decode_block_record(with_unknown_opcode(samples()["block"]))

    def test_undo_record_with_an_unknown_opcode(self):
        with pytest.raises(codec.CodecError, match="unknown opcode"):
            codec.decode_undo_record(with_unknown_opcode(samples()["undo"]))

    def test_snapshot_entry_with_an_unknown_opcode(self):
        data = sealed(with_unknown_opcode(samples()["snapshot"]))
        with pytest.raises(SnapshotError, match="unknown opcode"):
            decode_snapshot(data)

    def test_undo_record_cut_inside_a_varint(self):
        payload = samples()["undo"]
        # 32-byte hash, 4-byte height, then the spent count: a prefix
        # 0xfd promises two more bytes that are not there.
        with pytest.raises(codec.CodecError, match="truncated varint"):
            codec.decode_undo_record(payload[:36] + b"\xfd\x01")

    def test_non_minimal_varint_in_an_undo_record(self):
        payload = samples()["undo"]
        count = payload[36]
        with pytest.raises(codec.CodecError, match="non-minimal varint"):
            codec.decode_undo_record(
                payload[:36] + b"\xfd" + bytes([count, 0]) + payload[37:]
            )


def rewrite_log(path, magic, edit) -> None:
    """Re-frame every record of a log through ``edit``: CRCs stay valid."""
    records = framing.scan_records(path, magic).records
    with open(path, "wb") as fh:
        framing.write_file_header(fh, magic)
        for _, payload in records:
            fh.write(framing.encode_record(edit(payload)))


class TestRecovery:
    def stored(self, tmp_path, snapshot_interval=0):
        store = BlockStore(tmp_path, snapshot_interval=snapshot_interval).open()
        chain = spend_history(store)
        store.close()
        return chain

    def test_a_corrupt_block_log_is_a_store_error(self, tmp_path):
        chain = self.stored(tmp_path)
        tip = codec.encode_connect(chain.tip.block, chain.height)
        rewrite_log(
            tmp_path / "blocks.log", BLOCK_LOG_MAGIC,
            lambda p: with_unknown_opcode(p) if p == tip else p,
        )
        with pytest.raises(StoreError, match="corrupt block log"):
            BlockStore(tmp_path).open().recover()

    def test_a_corrupt_undo_log_is_a_store_error(self, tmp_path):
        chain = self.stored(tmp_path)
        tip_hash = chain.tip.block.hash
        rewrite_log(
            tmp_path / "undo.log", UNDO_LOG_MAGIC,
            lambda p: with_unknown_opcode(p) if p.startswith(tip_hash) else p,
        )
        with pytest.raises(StoreError, match="corrupt undo log"):
            BlockStore(tmp_path).open().recover()

    def test_a_corrupt_snapshot_falls_back_to_a_full_replay(self, tmp_path):
        chain = self.stored(tmp_path, snapshot_interval=50)
        snapshots = sorted(tmp_path.glob("utxo-*.snap"))
        assert snapshots
        for snap in snapshots:
            snap.write_bytes(sealed(with_unknown_opcode(snap.read_bytes())))
        store = BlockStore(tmp_path).open()
        assert store.recover().snapshot is None
        recovered = recover_chain(store)
        assert recovered.tip.block.hash == chain.tip.block.hash
        assert recovered.utxos.snapshot() == chain.utxos.snapshot()
        store.close()


@pytest.mark.parametrize("name", ["block", "undo", "snapshot"])
def test_every_truncation_is_refused_or_round_trips(name):
    data = samples()[name]
    for cut in range(len(data) + 1):
        CHECKS[name](data[:cut])


@pytest.mark.parametrize("name", ["block", "undo", "snapshot"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_bytes_are_refused_or_round_trip(name, data):
    raw = bytearray(samples()[name])
    edits = data.draw(st.lists(
        st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)),
        min_size=1, max_size=4,
    ))
    for at, byte in edits:
        raw[at] = byte
    CHECKS[name](bytes(raw))
