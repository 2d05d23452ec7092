"""Wire format for full Typecoin transactions and claim bundles.

The §3 protocol has the prover *send* T_I and the upstream set 𝔗 to the
verifier, so transactions need a transport encoding, not just a hash
preimage.  :func:`encode_transaction` emits exactly the bytes that
:meth:`TypecoinTransaction.serialize` hashes; :func:`decode_transaction`
inverts it, and round-tripping preserves the transaction hash bit-for-bit
(the encoding is α-invariant).
"""

from __future__ import annotations

from repro.bitcoin.transaction import OutPoint
from repro.core.transaction import (
    ClaimBundle,
    TypecoinInput,
    TypecoinOutput,
    TypecoinTransaction,
    TxnError,
)
from repro.lf.basis import Basis, BasisError, KindDecl, PropDecl, TypeDecl
from repro.logic.decoding import (
    Cursor,
    DecodingError,
    decode_family,
    decode_kind,
    decode_proof,
    decode_prop,
    decode_ref,
)
from repro.logic.encoding import _blob, _uint

_MAGIC = b"typecoin-txn:"
_BUNDLE_MAGIC = b"typecoin-bundle:"


def encode_transaction(txn: TypecoinTransaction) -> bytes:
    """The transport bytes — identical to what the transaction hash covers."""
    return txn.serialize()


def decode_transaction(data: bytes) -> TypecoinTransaction:
    """Parse transport bytes back into a transaction.

    The result is α-equivalent to (and hashes identically to) the original.
    """
    cursor = Cursor(data)
    try:
        txn = _read_transaction(cursor)
    except (TxnError, BasisError) as exc:  # a well-formed but refused field
        raise DecodingError(str(exc)) from None
    if not cursor.exhausted:
        raise DecodingError("trailing bytes after transaction")
    return txn


def _read_transaction(cursor: Cursor) -> TypecoinTransaction:
    magic = cursor.data[cursor.pos : cursor.pos + len(_MAGIC)]
    if magic != _MAGIC:
        raise DecodingError("bad transaction magic")
    cursor.pos += len(_MAGIC)

    basis = Basis()
    for _ in range(cursor.uint()):
        ref = decode_ref(cursor)
        tag = cursor.byte()
        if tag == 0x01:
            basis.declare(ref, KindDecl(decode_kind(cursor)))
        elif tag == 0x02:
            basis.declare(ref, TypeDecl(decode_family(cursor)))
        elif tag == 0x03:
            basis.declare(ref, PropDecl(decode_prop(cursor)))
        else:
            raise DecodingError(f"unknown declaration tag 0x{tag:02x}")

    grant = decode_prop(cursor)

    inputs = []
    for _ in range(cursor.uint()):
        txid = cursor.blob()
        index = cursor.uint()
        prop = decode_prop(cursor)
        amount = cursor.uint()
        inputs.append(TypecoinInput(txid, index, prop, amount))

    outputs = []
    for _ in range(cursor.uint()):
        prop = decode_prop(cursor)
        amount = cursor.uint()
        recipient = cursor.blob()
        outputs.append(TypecoinOutput(prop, amount, recipient))

    proof = decode_proof(cursor)
    return TypecoinTransaction(basis, grant, inputs, outputs, proof)


def encode_bundle(bundle: ClaimBundle) -> bytes:
    """Serialize a full §3 claim bundle: the claimed txout, its type, and
    every upstream transaction."""
    parts = [_BUNDLE_MAGIC]
    parts.append(_blob(bundle.outpoint.txid))
    parts.append(_uint(bundle.outpoint.index))
    from repro.logic.encoding import encode_prop

    parts.append(_blob(encode_prop(bundle.prop)))
    parts.append(_uint(len(bundle.transactions)))
    for txid, txn in sorted(bundle.transactions.items()):
        parts.append(_blob(txid))
        parts.append(_blob(encode_transaction(txn)))
    return b"".join(parts)


def decode_bundle(data: bytes) -> ClaimBundle:
    """Parse a claim bundle received from a prover."""
    cursor = Cursor(data)
    magic = cursor.data[: len(_BUNDLE_MAGIC)]
    if magic != _BUNDLE_MAGIC:
        raise DecodingError("bad bundle magic")
    cursor.pos = len(_BUNDLE_MAGIC)
    txid = cursor.blob()
    index = cursor.uint()
    prop = decode_prop(Cursor(cursor.blob()))
    transactions = {}
    for _ in range(cursor.uint()):
        carrier_txid = cursor.blob()
        if len(carrier_txid) != 32:
            raise DecodingError("bundle carrier txid must be 32 bytes")
        if carrier_txid in transactions:
            raise DecodingError(
                f"bundle repeats carrier {carrier_txid[:8].hex()}…"
            )
        transactions[carrier_txid] = decode_transaction(cursor.blob())
    if not cursor.exhausted:
        raise DecodingError("trailing bytes after bundle")
    return ClaimBundle(
        outpoint=OutPoint(txid, index), prop=prop, transactions=transactions
    )
