"""Signature hashing (SIGHASH) for transaction signing.

A signature does not cover the raw transaction — scriptSigs are blanked and
the SIGHASH type selects which inputs/outputs are committed to.  The paper's
*open transactions* (§7, §8) "are inspired by and generalize Bitcoin's
SIGHASH rules, which erase parts of a transaction before checking its
signatures, thereby allowing those parts to be altered."

Two implementations live here:

* :func:`signature_hash` — the straightforward reference: build the blanked
  :class:`Transaction` and serialize it.  Signing uses it, and the tests pin
  the cache against it byte for byte.
* :class:`SighashCache` — the validation fast path.  Checking an n-input
  transaction calls ``signature_hash`` once per input (and multisig inputs
  several times), and each call re-serializes the whole transaction.  The
  cache computes the shared midstates once per transaction — the blanked
  per-input templates and the serialized-output variants — so each digest
  is a byte-join plus one double-SHA, and repeated digests (multisig trying
  several pubkeys against one signature) are memoized outright.
"""

from __future__ import annotations

import enum
from dataclasses import replace

from repro import obs
from repro.bitcoin.script import Script
from repro.bitcoin.transaction import Transaction, TxIn, TxOut, varint
from repro.crypto.hashing import sha256d


class SigHashType(enum.IntEnum):
    """Which parts of the transaction a signature commits to."""

    ALL = 0x01
    NONE = 0x02
    SINGLE = 0x03
    ANYONECANPAY = 0x80

    @staticmethod
    def base(hash_type: int) -> "SigHashType":
        return SigHashType(hash_type & 0x1F)

    @staticmethod
    def anyone_can_pay(hash_type: int) -> bool:
        return bool(hash_type & SigHashType.ANYONECANPAY)


# Returned by SIGHASH_SINGLE when the input index has no matching output —
# a historical Bitcoin bug we reproduce for fidelity (signing hashes the
# integer 1 instead of failing).
_SINGLE_BUG_DIGEST = (1).to_bytes(32, "little")

# Serialization of a blanked output (value −1, empty script), as SINGLE
# erases outputs before the signed index.
_BLANKED_TXOUT = TxOut(-1, Script()).serialize()


def signature_hash(
    tx: Transaction,
    input_index: int,
    script_code: Script,
    hash_type: int,
) -> bytes:
    """The digest that input ``input_index`` signs under ``hash_type``.

    ``script_code`` is the scriptPubKey of the output being spent (standard
    schemas only; we do not implement OP_CODESEPARATOR subtleties).

    Raises :class:`ValueError` when ``input_index`` does not name an input
    of ``tx``; validation surfaces that as a ``ValidationError``.
    """
    if input_index < 0 or input_index >= len(tx.vin):
        raise ValueError(
            f"sighash input index {input_index} out of range for"
            f" transaction with {len(tx.vin)} inputs"
        )

    base = SigHashType.base(hash_type)
    anyonecanpay = SigHashType.anyone_can_pay(hash_type)

    if base == SigHashType.SINGLE and input_index >= len(tx.vout):
        return _SINGLE_BUG_DIGEST

    # Blank all scriptSigs; the signed input carries the script code.
    vin: list[TxIn] = []
    for i, txin in enumerate(tx.vin):
        if anyonecanpay and i != input_index:
            continue
        if i == input_index:
            vin.append(replace(txin, script_sig=script_code))
        else:
            sequence = txin.sequence
            if base in (SigHashType.NONE, SigHashType.SINGLE):
                sequence = 0
            vin.append(
                replace(txin, script_sig=Script(), sequence=sequence)
            )

    if base == SigHashType.NONE:
        vout: list[TxOut] = []
    elif base == SigHashType.SINGLE:
        # Keep only outputs up to the signed index; earlier ones are
        # blanked (value -1, empty script) so they can change freely.
        vout = [
            TxOut(-1, Script()) for _ in range(input_index)
        ] + [tx.vout[input_index]]
    else:
        vout = list(tx.vout)

    preimage = Transaction(
        vin, vout, version=tx.version, locktime=tx.locktime
    ).serialize() + hash_type.to_bytes(4, "little")
    return sha256d(preimage)


class SighashCache:
    """Per-transaction midstate cache for SIGHASH digests.

    Build one per transaction being validated and call :meth:`digest` for
    every (input, script code, hash type) combination; the blanked-input
    templates and serialized-output segments are computed once and shared
    across all of them.  Digests are byte-identical to
    :func:`signature_hash` by construction (and by test).
    """

    __slots__ = (
        "tx",
        "_head",
        "_tail",
        "_pieces_keep",
        "_pieces_zero",
        "_vout_all",
        "_vout_single",
        "_digests",
    )

    def __init__(self, tx: Transaction):
        self.tx = tx
        self._head = tx.version.to_bytes(4, "little")
        self._tail = tx.locktime.to_bytes(4, "little")
        # Per-input serializations with a blanked scriptSig; ALL keeps the
        # original sequence numbers, NONE/SINGLE zero the unsigned ones.
        self._pieces_keep: list[bytes] | None = None
        self._pieces_zero: list[bytes] | None = None
        self._vout_all: bytes | None = None
        self._vout_single: dict[int, bytes] = {}
        self._digests: dict[tuple[int, int, Script], bytes] = {}

    def _blanked_pieces(self, zero_sequence: bool) -> list[bytes]:
        if zero_sequence:
            if self._pieces_zero is None:
                self._pieces_zero = [
                    txin.prevout.serialize() + b"\x00" + b"\x00\x00\x00\x00"
                    for txin in self.tx.vin
                ]
            return self._pieces_zero
        if self._pieces_keep is None:
            self._pieces_keep = [
                txin.prevout.serialize()
                + b"\x00"
                + txin.sequence.to_bytes(4, "little")
                for txin in self.tx.vin
            ]
        return self._pieces_keep

    def _signed_piece(self, input_index: int, script_code: Script) -> bytes:
        txin = self.tx.vin[input_index]
        code = script_code.serialize()
        return (
            txin.prevout.serialize()
            + varint(len(code))
            + code
            + txin.sequence.to_bytes(4, "little")
        )

    def _outputs_segment(self, base: SigHashType, input_index: int) -> bytes:
        if base == SigHashType.NONE:
            return b"\x00"
        if base == SigHashType.SINGLE:
            segment = self._vout_single.get(input_index)
            if segment is None:
                segment = (
                    varint(input_index + 1)
                    + _BLANKED_TXOUT * input_index
                    + self.tx.vout[input_index].serialize()
                )
                self._vout_single[input_index] = segment
            return segment
        if self._vout_all is None:
            out = bytearray(varint(len(self.tx.vout)))
            for txout in self.tx.vout:
                out += txout.serialize()
            self._vout_all = bytes(out)
        return self._vout_all

    def digest(
        self, input_index: int, script_code: Script, hash_type: int
    ) -> bytes:
        """Same contract (and bytes) as :func:`signature_hash`."""
        tx = self.tx
        if input_index < 0 or input_index >= len(tx.vin):
            raise ValueError(
                f"sighash input index {input_index} out of range for"
                f" transaction with {len(tx.vin)} inputs"
            )
        key = (input_index, hash_type, script_code)
        cached = self._digests.get(key)
        if cached is not None:
            if obs.ENABLED:
                obs.inc("sighash.cache_hits_total")
            return cached
        if obs.ENABLED:
            obs.inc("sighash.cache_misses_total")
        base = SigHashType.base(hash_type)
        if base == SigHashType.SINGLE and input_index >= len(tx.vout):
            self._digests[key] = _SINGLE_BUG_DIGEST
            return _SINGLE_BUG_DIGEST

        signed = self._signed_piece(input_index, script_code)
        if SigHashType.anyone_can_pay(hash_type):
            vin_segment = b"\x01" + signed
        else:
            pieces = list(
                self._blanked_pieces(
                    base in (SigHashType.NONE, SigHashType.SINGLE)
                )
            )
            pieces[input_index] = signed
            vin_segment = varint(len(pieces)) + b"".join(pieces)

        preimage = (
            self._head
            + vin_segment
            + self._outputs_segment(base, input_index)
            + self._tail
            + hash_type.to_bytes(4, "little")
        )
        digest = sha256d(preimage)
        self._digests[key] = digest
        return digest
