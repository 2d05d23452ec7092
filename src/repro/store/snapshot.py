"""Periodic UTXO snapshots: one atomic file per checkpoint.

A snapshot is the full unspent-txout table at one committed chain
position, written via temp-file + fsync + atomic rename so a crash can
never leave a half-written snapshot under the published name — readers
see either the previous snapshot or the new one, never a hybrid.

Layout::

    magic(8) version(u16) height(u32) tip(32) count(u32)
    entry*                       # outpoint + UTXOEntry, count times
    crc32(u32)                   # over every preceding byte

Entries are sorted by outpoint, so the same set always produces the same
bytes — snapshots can be compared with ``cmp``.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass

from repro.bitcoin.transaction import OutPoint
from repro.bitcoin.utxo import UTXOEntry, UTXOSet
from repro.store.codec import (
    CodecError,
    _decode_outpoint,
    decode_utxo_entry,
    encode_utxo_entry,
)

SNAPSHOT_MAGIC = b"RPRUTXO1"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<8sHI32sI")


class SnapshotError(ValueError):
    """A snapshot file is missing, corrupt, or fails its checksum."""


@dataclass
class SnapshotData:
    """One decoded snapshot: the UTXO table at a committed position."""

    height: int
    tip: bytes
    entries: dict[OutPoint, UTXOEntry]

    def to_utxo_set(self) -> UTXOSet:
        utxos = UTXOSet()
        for outpoint, entry in self.entries.items():
            utxos.add(outpoint, entry)
        return utxos


def encode_snapshot(utxos: UTXOSet, height: int, tip: bytes) -> bytes:
    items = sorted(utxos.items(), key=lambda kv: kv[0])
    out = bytearray(
        _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, height, tip, len(items))
    )
    for outpoint, entry in items:
        out += outpoint.serialize()
        out += encode_utxo_entry(entry)
    out += (zlib.crc32(bytes(out)) & 0xFFFFFFFF).to_bytes(4, "little")
    return bytes(out)


def decode_snapshot(data: bytes) -> SnapshotData:
    if len(data) < _HEADER.size + 4:
        raise SnapshotError("snapshot file too short")
    body, crc_bytes = data[:-4], data[-4:]
    if zlib.crc32(body) & 0xFFFFFFFF != int.from_bytes(crc_bytes, "little"):
        raise SnapshotError("snapshot checksum mismatch")
    magic, version, height, tip, count = _HEADER.unpack_from(body, 0)
    if magic != SNAPSHOT_MAGIC or version != SNAPSHOT_VERSION:
        raise SnapshotError("unrecognized snapshot header")
    entries: dict[OutPoint, UTXOEntry] = {}
    offset = _HEADER.size
    previous = None
    try:
        for _ in range(count):
            outpoint, offset = _decode_outpoint(body, offset)
            if previous is not None and outpoint <= previous:
                raise CodecError("outpoints out of order")  # or repeated
            entry, offset = decode_utxo_entry(body, offset)
            entries[outpoint] = entry
            previous = outpoint
    except CodecError as exc:
        raise SnapshotError(f"corrupt snapshot entry: {exc}") from exc
    if offset != len(body):
        raise SnapshotError("trailing bytes in snapshot")
    return SnapshotData(height=height, tip=tip, entries=entries)


def write_snapshot_file(
    path: str | os.PathLike, utxos: UTXOSet, height: int, tip: bytes
) -> int:
    """Atomically publish a snapshot at ``path``; returns bytes written.

    The data lands in ``path + ".tmp"`` first and is fsynced before the
    rename, so the published name always refers to a complete file.
    """
    data = encode_snapshot(utxos, height, tip)
    tmp_path = os.fspath(path) + ".tmp"
    with open(tmp_path, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp_path, path)
    return len(data)


def read_snapshot_file(path: str | os.PathLike) -> SnapshotData:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError as exc:
        raise SnapshotError(f"snapshot file missing: {path}") from exc
    return decode_snapshot(data)
