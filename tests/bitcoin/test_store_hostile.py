"""Hostile bytes for the store's decoders.

Whatever a block-log record, an undo record or a snapshot holds, its
decoder either refuses it with its own typed error — ``CodecError`` for
the logs, ``SnapshotError`` for a snapshot — or returns what the encoder
would write back.  So ``BlockStore.recover`` answers ``StoreError`` for a
corrupt log and falls back to a full replay for a corrupt snapshot; the
``ScriptError`` or ``ValueError`` of a layer below never escapes it.

``MANIFEST.json`` is read the same way: a manifest that is not a version-1
object with a block-hash genesis is a ``StoreError``, and a malformed
snapshot entry is dropped to a full replay — so the snapshot file a later
``write_snapshot`` unlinks is always one the store named, inside its root.

Undo records and snapshots are the store's own format and decode only
from exactly the bytes the encoders write.  A block record's body is the
wire format, which reads non-minimal pushes and varints and re-encodes
them minimally, so it round-trips to the same block in no more bytes.
"""

import functools
import json
import shutil
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import COIN, TxOut
from repro.bitcoin.utxo import UTXOSet
from repro.bitcoin.wallet import Wallet
from repro import obs
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


@pytest.fixture(scope="module")
def small_store(tmp_path_factory) -> tuple[Path, dict]:
    """A small store with a snapshot: its directory (copied from, never
    written) and its manifest."""
    root = tmp_path_factory.mktemp("small-store")
    store = BlockStore(root, snapshot_interval=2).open()
    net = RegtestNetwork()
    net.chain.attach_store(store)
    net.generate(3, b"\x07" * 20)
    store.close()
    manifest = json.loads((root / "MANIFEST.json").read_text())
    assert manifest["snapshot"]["file"] == "utxo-00000002.snap"
    return root, manifest


def store_with_manifest(small_store, parent: Path, text: str) -> Path:
    """A copy of the small store under ``parent / "store"`` whose
    ``MANIFEST.json`` is ``text``, with a victim file beside the root."""
    root = parent / "store"
    shutil.copytree(small_store[0], root)
    (root / "MANIFEST.json").write_text(text)
    (parent / "victim.txt").write_text("not the store's")
    return root


def outside(parent: Path) -> dict:
    return {
        path.name: path.read_bytes()
        for path in parent.iterdir()
        if path.name != "store"
    }


def open_recover_snapshot(root: Path) -> None:
    """Open and recover the store at ``root``, and cut one more snapshot:
    a ``StoreError`` or success, nothing else."""
    try:
        store = BlockStore(root).open()
        try:
            state = store.recover()
            store.write_snapshot(UTXOSet(), 9, b"\x00" * 32)
        finally:
            store.close()
    except StoreError:
        return
    assert state.records


def manifest_text(small_store, edit) -> str:
    """``edit`` as a manifest: raw text, or changes to the small store's
    manifest (``snapshot_<field>`` edits its snapshot entry; ``None``
    deletes the field)."""
    if isinstance(edit, str):
        return edit
    manifest = json.loads(json.dumps(small_store[1]))
    for key, value in edit.items():
        target = manifest
        if key.startswith("snapshot_"):
            target, key = manifest["snapshot"], key.removeprefix("snapshot_")
        if value is None:
            del target[key]
        else:
            target[key] = value
    return json.dumps(manifest)


class TestManifestProbes:
    """Each escaped ``open`` / ``recover`` as a raw exception, or reached
    outside the store root, before the manifest was checked on read."""

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param("[]", id="a-list"),
            pytest.param("1", id="a-number"),
            pytest.param("[" * 200_000, id="nested-too-deep"),
            pytest.param({"genesis": "zz"}, id="genesis-not-hex"),
        ],
    )
    def test_an_unusable_manifest_is_a_store_error(
        self, small_store, tmp_path, edit
    ):
        text = manifest_text(small_store, edit)
        root = store_with_manifest(small_store, tmp_path, text)
        with pytest.raises(StoreError):
            BlockStore(root).open().recover()

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param({"snapshot": 5}, id="entry-not-an-object"),
            pytest.param({"snapshot_blocks_offset": "q"}, id="offset-not-int"),
            pytest.param({"snapshot_file": None}, id="entry-without-file"),
        ],
    )
    def test_a_malformed_snapshot_entry_falls_back_to_a_full_replay(
        self, small_store, tmp_path, edit
    ):
        text = manifest_text(small_store, edit)
        root = store_with_manifest(small_store, tmp_path, text)
        was_enabled = obs.ENABLED
        saved_registry = obs.set_registry(obs.Registry())
        obs.enable()
        try:
            store = BlockStore(root).open()
            state = store.recover()
            fallbacks = obs.registry().counter(
                "store.snapshot_fallbacks_total"
            ).value
        finally:
            obs.set_registry(saved_registry)
            obs.ENABLED = was_enabled
        assert state.snapshot is None and state.snapshot_offset == 0
        assert fallbacks == 1
        chain = recover_chain(store)
        assert chain.height == 3
        store.close()

    def test_a_snapshot_name_outside_the_root_is_never_unlinked(
        self, small_store, tmp_path
    ):
        text = manifest_text(small_store, {"snapshot_file": "../victim.txt"})
        root = store_with_manifest(small_store, tmp_path, text)
        store = BlockStore(root).open()
        chain = recover_chain(store)
        assert store.recover().snapshot is None
        store.write_snapshot(chain.utxos, chain.height, chain.tip.block.hash)
        store.close()
        assert (tmp_path / "victim.txt").read_text() == "not the store's"


def test_every_truncated_manifest_is_refused_or_recovered(small_store, tmp_path):
    text = json.dumps(small_store[1])
    for cut in range(len(text) + 1):
        parent = tmp_path / str(cut)
        parent.mkdir()
        root = store_with_manifest(small_store, parent, text[:cut])
        before = outside(parent)
        open_recover_snapshot(root)
        assert outside(parent) == before


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_mutated_manifest_is_refused_or_recovered(small_store, data):
    text = list(json.dumps(small_store[1]))
    edits = data.draw(st.lists(
        st.tuples(
            st.integers(0, len(text) - 1),
            st.sampled_from('{}[]",:-0123456789abcdefnul./\\ '),
        ),
        min_size=1, max_size=4,
    ))
    for at, char in edits:
        text[at] = char
    with tempfile.TemporaryDirectory() as scratch:
        parent = Path(scratch)
        root = store_with_manifest(small_store, parent, "".join(text))
        before = outside(parent)
        open_recover_snapshot(root)
        assert outside(parent) == before
