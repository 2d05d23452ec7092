"""Bounds checking and strict framing for the zero-copy codecs.

The old slicing parsers yielded silent short values on truncated input
(e.g. a 7-byte txid from a 43-byte buffer); the struct rewrites must
raise :class:`ValueError` with offset context instead, reject trailing
bytes by default, and decode identically from bytes and memoryview.
"""

import pytest

from repro.bitcoin.block import HEADER_SIZE, Block, BlockHeader, build_block
from repro.bitcoin.script import Op, Script
from repro.bitcoin.standard import multisig_script, op_return_script, p2pkh_script
from repro.bitcoin.transaction import (
    OutPoint,
    Transaction,
    TxIn,
    TxOut,
    read_varint,
    varint,
)
from tests.oracles import naive_parse_block


def sample_tx():
    return Transaction(
        vin=[
            TxIn(OutPoint(b"\xaa" * 32, 1), Script([b"\x30" * 70, b"\x02" * 33])),
            TxIn(OutPoint(b"\xbb" * 32, 0)),
        ],
        vout=[
            TxOut(5000, p2pkh_script(b"\x01" * 20)),
            TxOut(0, Script()),
        ],
        locktime=7,
    )


# ---------------------------------------------------------------- varint


def test_read_varint_truncated_prefix():
    with pytest.raises(ValueError, match="truncated varint at offset 3"):
        read_varint(b"\x00\x00\x00", 3)


@pytest.mark.parametrize("prefix", [b"\xfd\x01", b"\xfe\x01\x02", b"\xff" + b"\x01" * 7])
def test_read_varint_truncated_width(prefix):
    with pytest.raises(ValueError, match="truncated varint at offset 0"):
        read_varint(prefix, 0)


def test_read_varint_roundtrip_from_memoryview():
    for n in (0, 0xFC, 0xFD, 0xFFFF, 0x10000, 2**32):
        data = memoryview(varint(n) + b"tail")
        value, offset = read_varint(data, 0)
        assert value == n and offset == len(varint(n))


# ---------------------------------------------------------------- tx


def test_tx_roundtrip_bytes_and_memoryview_identical():
    tx = sample_tx()
    wire = tx.serialize()
    from_bytes = Transaction.parse(wire)
    from_view = Transaction.parse(memoryview(wire))
    assert from_bytes == from_view == tx
    assert from_view.txid == tx.txid
    # Script pushes must come out as real bytes (hashable, comparable),
    # never memoryview slices of the wire buffer.
    for el in from_view.vin[0].script_sig.elements:
        assert type(el) is bytes


def test_every_truncation_point_raises_with_offset():
    wire = sample_tx().serialize()
    for cut in range(len(wire)):
        with pytest.raises(ValueError) as exc:
            Transaction.parse(wire[:cut])
        assert "truncated" in str(exc.value)


def test_tx_trailing_bytes_rejected_by_default():
    wire = sample_tx().serialize()
    with pytest.raises(ValueError, match="trailing bytes after transaction"):
        Transaction.parse(wire + b"\x00")
    assert Transaction.parse(wire + b"\x00", strict=False) == sample_tx()


def test_tx_error_names_offset_and_buffer_size():
    wire = sample_tx().serialize()
    with pytest.raises(ValueError, match=r"at offset \d+ \(buffer has 40 bytes\)"):
        Transaction.parse(wire[:40])


def test_oversized_script_length_is_truncation_not_short_read():
    # A varint claiming a 1 MB script on a tiny buffer must raise, not
    # silently yield whatever bytes remain.
    tx = Transaction(
        vin=[TxIn(OutPoint(b"\xcc" * 32, 0))],
        vout=[TxOut(1, Script())],
    )
    wire = bytearray(tx.serialize())
    # input script length varint sits right after version+count+outpoint
    offset = 4 + 1 + 36
    assert wire[offset] == 0
    wire[offset : offset + 1] = varint(1_000_000)
    with pytest.raises(ValueError, match="truncated transaction: input script"):
        Transaction.parse(bytes(wire))


# ---------------------------------------------------------------- block


def mined_block():
    header = BlockHeader(
        prev_hash=b"\x11" * 32,
        merkle_root=b"\x22" * 32,
        timestamp=1234,
        bits=0x207FFFFF,
        nonce=99,
    )
    return Block(header, [sample_tx()])


def test_header_roundtrip_and_truncation():
    header = mined_block().header
    wire = header.serialize()
    assert BlockHeader.parse(wire) == header
    assert BlockHeader.parse(memoryview(wire)) == header
    with pytest.raises(ValueError, match="truncated block header"):
        BlockHeader.parse(wire[: HEADER_SIZE - 1])


def test_block_roundtrip_and_trailing_bytes():
    block = mined_block()
    wire = block.serialize()
    assert Block.parse(wire).hash == block.hash
    assert Block.parse(memoryview(wire)).hash == block.hash
    with pytest.raises(ValueError, match="trailing bytes after block"):
        Block.parse(wire + b"\xff")
    assert Block.parse(wire + b"\xff", strict=False).hash == block.hash


def test_block_truncated_mid_transaction():
    wire = mined_block().serialize()
    with pytest.raises(ValueError, match="truncated"):
        Block.parse(wire[: HEADER_SIZE + 10])


def test_block_parse_matches_the_slicing_decoder():
    """``Block.parse`` against an independent decoder, on pushes of every
    encoding (direct, PUSHDATA1, PUSHDATA2), bare opcodes, multisig and
    OP_RETURN outputs, and many inputs and outputs."""
    keys = [bytes([2]) + bytes([k]) * 32 for k in range(3)]
    spks = [
        p2pkh_script(b"\x07" * 20),
        multisig_script(1, keys[:2]),
        multisig_script(2, keys),
        op_return_script(b"\x5a" * 40),
        Script([Op.OP_DUP, Op.OP_DROP, b"\x01" * 300]),
    ]
    txs = [
        Transaction(
            vin=[
                TxIn(
                    OutPoint(bytes([i]) * 32, j),
                    Script([b"\x30" * (1 + (i * 37 + j) % 520), b"\x02" * 33]),
                    sequence=0xFFFFFFFF - j,
                )
                for j in range(1 + i % 3)
            ],
            vout=[TxOut(1000 + i + k, spks[(i + k) % len(spks)])
                  for k in range(1 + i % 4)],
            version=1 + i % 2,
            locktime=i * 11,
        )
        for i in range(60)
    ]
    wire = build_block(
        prev_hash=b"\x00" * 32, txs=txs, timestamp=1, bits=0x207FFFFF
    ).serialize()
    fast, naive = Block.parse(wire), naive_parse_block(wire)
    assert fast.header == naive.header
    assert fast.txs == naive.txs
    assert [tx.txid for tx in fast.txs] == [tx.txid for tx in naive.txs]
