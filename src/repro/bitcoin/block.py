"""Blocks and block headers (paper §1, items 1–4).

"The blockchain consists of a set of blocks, each one of which aggregates a
number of transactions.  Each block contains a cryptographic hash of the
previous block, thereby turning the set into a tree."  The chain module
turns the tree into a list by the longest-(work-)branch rule.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from functools import cached_property

from repro.bitcoin.pow import check_proof_of_work
from repro.bitcoin.transaction import Transaction, read_varint, varint
from repro.crypto.hashing import sha256d
from repro.crypto.merkle import merkle_root

MAX_BLOCK_SIZE = 1_000_000

HEADER_SIZE = 80

# The whole 80-byte header in one precompiled struct: version, prev hash,
# merkle root, timestamp, bits, nonce.
_HEADER = struct.Struct("<I32s32sIII")


@dataclass(frozen=True)
class BlockHeader:
    """The 80-byte committed header: what miners actually hash."""

    prev_hash: bytes
    merkle_root: bytes
    timestamp: int
    bits: int
    nonce: int = 0
    version: int = 1

    def serialize(self) -> bytes:
        return (
            self.version.to_bytes(4, "little")
            + self.prev_hash
            + self.merkle_root
            + self.timestamp.to_bytes(4, "little")
            + self.bits.to_bytes(4, "little")
            + self.nonce.to_bytes(4, "little")
        )

    @staticmethod
    def parse(data) -> "BlockHeader":
        """Decode the 80 committed bytes (bytes or memoryview) in one
        struct read; extra bytes after the header are the caller's
        (``Block.parse`` continues into the transaction list)."""
        if len(data) < HEADER_SIZE:
            raise ValueError(
                f"truncated block header: need {HEADER_SIZE} bytes, "
                f"have {len(data)}"
            )
        version, prev_hash, root, timestamp, bits, nonce = _HEADER.unpack_from(
            data, 0
        )
        return BlockHeader(
            version=version,
            prev_hash=prev_hash,
            merkle_root=root,
            timestamp=timestamp,
            bits=bits,
            nonce=nonce,
        )

    @cached_property
    def hash(self) -> bytes:
        return sha256d(self.serialize())

    @property
    def hash_hex(self) -> str:
        return self.hash[::-1].hex()

    def meets_target(self) -> bool:
        return check_proof_of_work(self.hash, self.bits)

    def with_nonce(self, nonce: int) -> "BlockHeader":
        return replace(self, nonce=nonce)


@dataclass(frozen=True)
class Block:
    """A header plus the transactions it commits to."""

    header: BlockHeader
    txs: tuple[Transaction, ...]

    def __init__(self, header: BlockHeader, txs):
        object.__setattr__(self, "header", header)
        object.__setattr__(self, "txs", tuple(txs))

    @property
    def hash(self) -> bytes:
        return self.header.hash

    @property
    def hash_hex(self) -> str:
        return self.header.hash_hex

    def serialize(self) -> bytes:
        """Full wire encoding: header, tx count varint, transactions."""
        out = bytearray(self.header.serialize())
        out += varint(len(self.txs))
        for tx in self.txs:
            out += tx.serialize()
        return bytes(out)

    @staticmethod
    def parse(data, strict: bool = True) -> "Block":
        """Parse a full block off a bytes or memoryview buffer.

        One memoryview wraps the buffer and every transaction decodes in
        place from it — large-block ingest no longer copies each
        transaction's bytes before parsing them.  Truncation raises
        :class:`ValueError` with offset context; ``strict`` (the default)
        also rejects trailing bytes, since every caller frames blocks
        exactly.
        """
        buf = data if isinstance(data, memoryview) else memoryview(data)
        header = BlockHeader.parse(buf)
        count, offset = read_varint(buf, HEADER_SIZE)
        txs = []
        for _ in range(count):
            tx, offset = Transaction.parse_from(buf, offset)
            txs.append(tx)
        if strict and offset != len(buf):
            raise ValueError(
                f"trailing bytes after block: parsed {offset} of "
                f"{len(buf)}"
            )
        return Block(header, txs)

    def compute_merkle_root(self) -> bytes:
        return merkle_root([tx.txid for tx in self.txs])

    def serialized_size(self) -> int:
        return len(self.header.serialize()) + sum(
            len(tx.serialize()) for tx in self.txs
        )

    def validate_structure(self) -> None:
        """Context-free block checks: merkle commitment, coinbase placement."""
        self._well_formed  # raises ValidationError until it holds

    @cached_property
    def _well_formed(self) -> bool:
        """``validate_structure`` passed: kept only once it holds, like
        ``Transaction._well_formed`` — a failure raises on every call."""
        from repro.bitcoin.validation import ValidationError, check_transaction

        if not self.txs:
            raise ValidationError("block has no transactions")
        if self.compute_merkle_root() != self.header.merkle_root:
            raise ValidationError("merkle root mismatch")
        if not self.txs[0].is_coinbase:
            raise ValidationError("first transaction must be coinbase")
        for tx in self.txs[1:]:
            if tx.is_coinbase:
                raise ValidationError("multiple coinbase transactions")
        for tx in self.txs:
            check_transaction(tx)
        if self.serialized_size() > MAX_BLOCK_SIZE:
            raise ValidationError("block exceeds size limit")
        return True


def build_block(
    prev_hash: bytes,
    txs: list[Transaction],
    timestamp: int,
    bits: int,
    nonce: int = 0,
) -> Block:
    """Assemble a block with a correct merkle root (not yet mined)."""
    root = merkle_root([tx.txid for tx in txs])
    header = BlockHeader(
        prev_hash=prev_hash,
        merkle_root=root,
        timestamp=timestamp,
        bits=bits,
        nonce=nonce,
    )
    return Block(header, txs)
