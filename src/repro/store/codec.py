"""Byte codecs for the persisted consensus state.

Three payload shapes live on disk (see ``docs/persistence.md``):

* block-log records — ``kind height body`` where the body is a full
  serialized block (connect) or a 32-byte block hash (disconnect);
* undo-log records — the :class:`~repro.bitcoin.utxo.BlockUndo` needed
  to disconnect one block without re-deriving its inputs;
* UTXO snapshot entries — ``outpoint``/:class:`UTXOEntry` pairs.

Everything reuses the wire encodings of the transaction layer (varints,
scripts, txouts), so a snapshot entry is byte-compatible with the
outputs it mirrors.
"""

from __future__ import annotations

from repro.bitcoin.block import Block
from repro.bitcoin.script import Script, ScriptError
from repro.bitcoin.transaction import (
    OutPoint,
    TxOut,
    read_varint,
    varint,
)
from repro.bitcoin.utxo import BlockUndo, SpentInfo, UTXOEntry

# Block-log record kinds.
RECORD_CONNECT = 1
RECORD_DISCONNECT = 2

OUTPOINT_SIZE = 36


class CodecError(ValueError):
    """A persisted payload does not decode to a well-formed structure.

    The undo and snapshot decoders accept only what the encoders write,
    so whatever decodes re-encodes to the bytes read; a block record's
    body is the wire format, which reads non-minimal pushes and varints
    (``Transaction.parse``) and so round-trips to the same block.
    """


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------


def _read_varint(data: bytes, offset: int) -> tuple[int, int]:
    try:
        value, end = read_varint(data, offset)
    except ValueError as exc:
        raise CodecError(str(exc)) from None
    if end - offset != len(varint(value)):
        raise CodecError(f"non-minimal varint at offset {offset}")
    return value, end


def _decode_outpoint(data: bytes, offset: int) -> tuple[OutPoint, int]:
    if offset + OUTPOINT_SIZE > len(data):
        raise CodecError("truncated outpoint")
    txid = data[offset : offset + 32]
    index = int.from_bytes(data[offset + 32 : offset + 36], "little")
    return OutPoint(txid, index), offset + OUTPOINT_SIZE


def _decode_txout(data: bytes, offset: int) -> tuple[TxOut, int]:
    if offset + 8 > len(data):
        raise CodecError("truncated txout value")
    value = int.from_bytes(data[offset : offset + 8], "little", signed=True)
    offset += 8
    script_len, offset = _read_varint(data, offset)
    if offset + script_len > len(data):
        raise CodecError("truncated txout script")
    raw = data[offset : offset + script_len]
    try:
        script = Script.parse(raw)
    except ScriptError as exc:
        raise CodecError(f"unparseable txout script: {exc}") from exc
    if script.serialize() != raw:  # the encoding a size is read from anyway
        raise CodecError("non-minimal push in txout script")
    return TxOut(value, script), offset + script_len


def encode_utxo_entry(entry: UTXOEntry) -> bytes:
    return (
        entry.height.to_bytes(4, "little")
        + bytes([1 if entry.is_coinbase else 0])
        + entry.output.serialize()
    )


def decode_utxo_entry(data: bytes, offset: int) -> tuple[UTXOEntry, int]:
    if offset + 5 > len(data):
        raise CodecError("truncated UTXO entry header")
    height = int.from_bytes(data[offset : offset + 4], "little")
    if data[offset + 4] > 1:
        raise CodecError(f"coinbase flag {data[offset + 4]} is not 0 or 1")
    is_coinbase = data[offset + 4] == 1
    output, offset = _decode_txout(data, offset + 5)
    return UTXOEntry(output, height, is_coinbase), offset


# ----------------------------------------------------------------------
# Block-log records
# ----------------------------------------------------------------------


def encode_connect(block: Block, height: int) -> bytes:
    return (
        bytes([RECORD_CONNECT])
        + height.to_bytes(4, "little")
        + block.serialize()
    )


def encode_disconnect(block_hash: bytes, height: int) -> bytes:
    return bytes([RECORD_DISCONNECT]) + height.to_bytes(4, "little") + block_hash


def decode_block_record(payload: bytes) -> tuple[int, int, Block | None, bytes]:
    """Decode one block-log payload → (kind, height, block, block_hash)."""
    if len(payload) < 5:
        raise CodecError("block-log record too short")
    kind = payload[0]
    height = int.from_bytes(payload[1:5], "little")
    if kind == RECORD_CONNECT:
        try:
            block = Block.parse(payload[5:])
        except (IndexError, ValueError, ScriptError) as exc:
            raise CodecError(f"unparseable block in log: {exc}") from exc
        return kind, height, block, block.hash
    if kind == RECORD_DISCONNECT:
        if len(payload) != 5 + 32:
            raise CodecError("disconnect record has wrong length")
        return kind, height, None, payload[5:]
    raise CodecError(f"unknown block-log record kind {kind}")


# ----------------------------------------------------------------------
# Undo-log records
# ----------------------------------------------------------------------


def encode_undo_record(block_hash: bytes, height: int, undo: BlockUndo) -> bytes:
    out = bytearray(block_hash)
    out += height.to_bytes(4, "little")
    out += varint(len(undo.spent))
    for spent in undo.spent:
        out += spent.outpoint.serialize()
        out += encode_utxo_entry(spent.entry)
    out += varint(len(undo.created))
    for outpoint in undo.created:
        out += outpoint.serialize()
    return bytes(out)


def decode_undo_record(payload: bytes) -> tuple[bytes, int, BlockUndo]:
    """Decode one undo-log payload → (block_hash, height, undo)."""
    if len(payload) < 36:
        raise CodecError("undo record too short")
    block_hash = payload[0:32]
    height = int.from_bytes(payload[32:36], "little")
    undo = BlockUndo()
    n_spent, offset = _read_varint(payload, 36)
    for _ in range(n_spent):
        outpoint, offset = _decode_outpoint(payload, offset)
        entry, offset = decode_utxo_entry(payload, offset)
        undo.spent.append(SpentInfo(outpoint, entry))
    n_created, offset = _read_varint(payload, offset)
    for _ in range(n_created):
        outpoint, offset = _decode_outpoint(payload, offset)
        undo.created.append(outpoint)
    if offset != len(payload):
        raise CodecError("trailing bytes in undo record")
    return block_hash, height, undo
