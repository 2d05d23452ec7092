"""Bitcoin transactions: inputs, outputs, serialization, txids (paper §2).

A transaction consumes specific prior transaction-outputs and creates new
ones.  The txid is the double-SHA-256 of the serialized transaction,
displayed byte-reversed as Bitcoin convention dictates.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.bitcoin.script import Script
from repro.crypto.hashing import sha256d

COIN = 100_000_000  # satoshis per bitcoin
MAX_MONEY = 21_000_000 * COIN
SEQUENCE_FINAL = 0xFFFFFFFF

# Precompiled wire-format structs: ``unpack_from`` reads fixed-width
# fields straight off a bytes or memoryview buffer without slicing.
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_OUTPOINT = struct.Struct("<32sI")


def varint(n: int) -> bytes:
    """Bitcoin's variable-length integer encoding."""
    if n < 0xFD:
        return bytes([n])
    if n <= 0xFFFF:
        return b"\xfd" + n.to_bytes(2, "little")
    if n <= 0xFFFFFFFF:
        return b"\xfe" + n.to_bytes(4, "little")
    return b"\xff" + n.to_bytes(8, "little")


def read_varint(data, offset: int) -> tuple[int, int]:
    """Read a varint at ``offset``; returns (value, new_offset).

    Accepts bytes or memoryview.  Raises :class:`ValueError` with offset
    context when the buffer ends mid-field (a truncated prefix used to
    surface as a bare IndexError or, worse, a silent short read).
    """
    try:
        prefix = data[offset]
    except IndexError:
        raise ValueError(f"truncated varint at offset {offset}") from None
    if prefix < 0xFD:
        return prefix, offset + 1
    width = 2 if prefix == 0xFD else 4 if prefix == 0xFE else 8
    end = offset + 1 + width
    if end > len(data):
        raise ValueError(f"truncated varint at offset {offset}")
    return int.from_bytes(data[offset + 1 : end], "little"), end


@dataclass(frozen=True, order=True)
class OutPoint:
    """A reference to the ``index``-th output of transaction ``txid``."""

    txid: bytes
    index: int

    NULL_TXID = b"\x00" * 32
    COINBASE_INDEX = 0xFFFFFFFF

    @property
    def is_null(self) -> bool:
        return self.txid == self.NULL_TXID and self.index == self.COINBASE_INDEX

    @staticmethod
    def null() -> "OutPoint":
        return OutPoint(OutPoint.NULL_TXID, OutPoint.COINBASE_INDEX)

    def serialize(self) -> bytes:
        return self.txid + self.index.to_bytes(4, "little")

    def __str__(self) -> str:
        return f"{self.txid[::-1].hex()}:{self.index}"


@dataclass(frozen=True)
class TxIn:
    """A transaction input: the outpoint it spends plus the unlocking script."""

    prevout: OutPoint
    script_sig: Script = field(default_factory=Script)
    sequence: int = SEQUENCE_FINAL

    def serialize(self) -> bytes:
        sig = self.script_sig.serialize()
        return (
            self.prevout.serialize()
            + varint(len(sig))
            + sig
            + self.sequence.to_bytes(4, "little")
        )


@dataclass(frozen=True)
class TxOut:
    """A transaction output: an amount in satoshis and a locking script."""

    value: int
    script_pubkey: Script

    def serialize(self) -> bytes:
        spk = self.script_pubkey.serialize()
        return self.value.to_bytes(8, "little", signed=True) + varint(len(spk)) + spk


@dataclass(frozen=True)
class Transaction:
    """An immutable Bitcoin transaction."""

    vin: tuple[TxIn, ...]
    vout: tuple[TxOut, ...]
    version: int = 1
    locktime: int = 0

    def __init__(
        self,
        vin,
        vout,
        version: int = 1,
        locktime: int = 0,
    ):
        object.__setattr__(self, "vin", tuple(vin))
        object.__setattr__(self, "vout", tuple(vout))
        object.__setattr__(self, "version", version)
        object.__setattr__(self, "locktime", locktime)

    def serialize(self) -> bytes:
        return self._encoding

    @cached_property
    def _encoding(self) -> bytes:
        """The canonical encoding, built once like ``txid`` — by the encoder,
        never the bytes ``parse_from`` read (a non-minimal push re-encodes)."""
        out = bytearray(self.version.to_bytes(4, "little"))
        out += varint(len(self.vin))
        for txin in self.vin:
            out += txin.serialize()
        out += varint(len(self.vout))
        for txout in self.vout:
            out += txout.serialize()
        out += self.locktime.to_bytes(4, "little")
        return bytes(out)

    @staticmethod
    def parse(data, strict: bool = True) -> "Transaction":
        """Parse one whole transaction.

        ``strict`` (the default) rejects trailing bytes: every caller in
        the pipeline hands over an exact buffer, so leftovers mean a
        framing bug upstream, not padding to ignore.
        """
        tx, offset = Transaction.parse_from(data, 0)
        if strict and offset != len(data):
            raise ValueError(
                f"trailing bytes after transaction: parsed {offset} of "
                f"{len(data)}"
            )
        return tx

    @staticmethod
    def parse_from(data, start: int) -> "tuple[Transaction, int]":
        """Parse one transaction at ``start``; returns (tx, next_offset)."""
        # Zero-copy decoding: fixed-width fields are unpacked in place
        # (no per-field slice objects); the only bytes that are copied out
        # of the buffer are the ones that outlive it — 32-byte txids (the
        # struct "32s" copy) and script pushes.  Every read is
        # bounds-checked first: the old slicing parser yielded silent
        # short values (e.g. a 7-byte txid) on truncated input.
        buf = data if isinstance(data, memoryview) else memoryview(data)
        end = len(buf)

        def short(offset: int, what: str) -> ValueError:
            return ValueError(
                f"truncated transaction: {what} at offset {offset} "
                f"(buffer has {end} bytes)"
            )

        if start + 4 > end:
            raise short(start, "version")
        (version,) = _U32.unpack_from(buf, start)
        n_in, offset = read_varint(buf, start + 4)
        vin = []
        for _ in range(n_in):
            if offset + 36 > end:
                raise short(offset, "input outpoint")
            txid, index = _OUTPOINT.unpack_from(buf, offset)
            offset += 36
            script_len, offset = read_varint(buf, offset)
            if offset + script_len > end:
                raise short(offset, "input script")
            script = Script.parse(buf[offset : offset + script_len])
            offset += script_len
            if offset + 4 > end:
                raise short(offset, "input sequence")
            (sequence,) = _U32.unpack_from(buf, offset)
            offset += 4
            vin.append(TxIn(OutPoint(txid, index), script, sequence))
        n_out, offset = read_varint(buf, offset)
        vout = []
        for _ in range(n_out):
            if offset + 8 > end:
                raise short(offset, "output value")
            (value,) = _I64.unpack_from(buf, offset)
            offset += 8
            script_len, offset = read_varint(buf, offset)
            if offset + script_len > end:
                raise short(offset, "output script")
            script = Script.parse(buf[offset : offset + script_len])
            offset += script_len
            vout.append(TxOut(value, script))
        if offset + 4 > end:
            raise short(offset, "locktime")
        (locktime,) = _U32.unpack_from(buf, offset)
        tx = Transaction(vin, vout, version=version, locktime=locktime)
        return tx, offset + 4

    @cached_property
    def txid(self) -> bytes:
        """Internal byte order (as used in outpoints and merkle trees)."""
        return sha256d(self.serialize())

    @property
    def txid_hex(self) -> str:
        """Display byte order (reversed), as block explorers show it."""
        return self.txid[::-1].hex()

    @cached_property
    def is_coinbase(self) -> bool:
        return len(self.vin) == 1 and self.vin[0].prevout.is_null

    @cached_property
    def _well_formed(self) -> bool:
        """``validation.check_transaction`` passed: kept, like the txid, only
        once it holds — a failure raises on every call."""
        from repro.bitcoin.validation import _check_structure  # it imports us

        _check_structure(self)
        return True

    def total_output_value(self) -> int:
        return sum(out.value for out in self.vout)

    def outpoint(self, index: int) -> OutPoint:
        """The outpoint referring to this transaction's ``index``-th output."""
        if not 0 <= index < len(self.vout):
            raise IndexError("output index out of range")
        return OutPoint(self.txid, index)

    def with_input_script(self, index: int, script: Script) -> "Transaction":
        """A copy with input ``index``'s scriptSig replaced (for signing)."""
        vin = list(self.vin)
        vin[index] = replace(vin[index], script_sig=script)
        return Transaction(vin, self.vout, version=self.version, locktime=self.locktime)
