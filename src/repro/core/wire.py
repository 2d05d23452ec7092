"""Wire format for full Typecoin transactions and claim bundles.

The §3 protocol has the prover *send* T_I and the upstream set 𝔗 to the
verifier, so transactions need a transport encoding, not just a hash
preimage.  :func:`encode_transaction` emits exactly the bytes that
:meth:`TypecoinTransaction.serialize` hashes; :func:`decode_transaction`
inverts it (:meth:`TypecoinTransaction.read`), and round-tripping preserves
the transaction hash bit-for-bit (the encoding is α-invariant).
"""

from __future__ import annotations

from repro.bitcoin.transaction import OutPoint
from repro.core.transaction import ClaimBundle, TypecoinTransaction, TxnError
from repro.lf.basis import BasisError
from repro.logic.codec import (
    Cursor,
    DecodingError,
    decode,
    encode,
    write_blob,
    write_uint,
)
from repro.logic.propositions import Proposition

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
        txn = TypecoinTransaction.read(cursor)
    except (TxnError, BasisError) as exc:  # a well-formed but refused field
        raise DecodingError(str(exc)) from None
    if not cursor.exhausted:
        raise DecodingError("trailing bytes after transaction")
    return txn


def encode_bundle(bundle: ClaimBundle) -> bytes:
    """Serialize a full §3 claim bundle: the claimed txout, its type, and
    every upstream transaction."""
    parts = [_BUNDLE_MAGIC]
    parts.append(write_blob(bundle.outpoint.txid))
    parts.append(write_uint(bundle.outpoint.index))
    parts.append(write_blob(encode(bundle.prop)))
    parts.append(write_uint(len(bundle.transactions)))
    for txid, txn in sorted(bundle.transactions.items()):
        parts.append(write_blob(txid))
        parts.append(write_blob(encode_transaction(txn)))
    return b"".join(parts)


def decode_bundle(data: bytes) -> ClaimBundle:
    """Parse a claim bundle received from a prover."""
    cursor = Cursor(data)
    cursor.expect(_BUNDLE_MAGIC, "bundle")
    txid = cursor.blob()
    index = cursor.uint()
    prop = decode(Cursor(cursor.blob()), Proposition)
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
