"""Typecoin transactions: (Σ, C, ι⃗, ω⃗, M) (paper §4, Figure 1).

* Σ — the local basis, declaring ``this.*`` constants;
* C — the affine grant, a proposition created from nothing (it must pass
  the freshness check, so it can only mention local vocabulary);
* ι⃗ — inputs ``txid.n ↦ A/a``: resources typed A plus a satoshis taken in
  from output n of the carrier transaction txid;
* ω⃗ — outputs ``B/b ↠ K``: resources typed B plus b satoshis sent to
  principal K;
* M — the proof that the transaction balances:
  ``M : (C ⊗ A ⊗ R) ⊸ if(φ, B)``.

Transaction identity: a Typecoin transaction is identified by the txid of
its Bitcoin *carrier* — the transaction its hash is embedded into — so
``this``-resolution and input references both speak Bitcoin txids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.bitcoin.transaction import OutPoint
from repro.crypto.hashing import hash160, sha256d
from repro.lf.basis import Basis, Declaration
from repro.lf.syntax import ConstRef, PrincipalLit, declare_shape
from repro.lf.walk import nodes_of_type, substitute_this
from repro.logic.codec import Cursor, decode, encode, write_ref, write_uint
from repro.logic.propositions import (
    One,
    Proposition,
    Receipt,
    Tensor,
    tensor_all,
)
from repro.logic.proofterms import ProofTerm

_MAGIC = b"typecoin-txn:"


class TxnError(Exception):
    """Malformed Typecoin transaction structure."""


@dataclass(frozen=True)
class TypecoinInput:
    """ι = txid.n ↦ A/a — spend output ``index`` of carrier ``txid``."""

    txid: bytes
    index: int
    prop: Proposition
    amount: int  # satoshis carried by the txout

    def __post_init__(self) -> None:
        if len(self.txid) != 32:
            raise TxnError("input txid must be 32 bytes")
        if self.index < 0:
            raise TxnError("input index must be non-negative")
        if self.amount < 0:
            raise TxnError("input amount must be non-negative")


@dataclass(frozen=True)
class TypecoinOutput:
    """ω = B/b ↠ K — send resources B and b satoshis to principal K.

    ``recipient_pubkey`` is K's full public key: principals are key hashes
    (§4 fn. 6) but the Bitcoin-level 1-of-2 multisig lock needs the key
    itself, so outputs carry it and derive the principal.
    """

    prop: Proposition
    amount: int
    recipient_pubkey: bytes

    def __post_init__(self) -> None:
        if self.amount < 0:
            raise TxnError("output amount must be non-negative")
        if len(self.recipient_pubkey) != 33:
            raise TxnError("recipient public keys are 33-byte compressed SEC1")

    @cached_property
    def principal(self) -> bytes:
        """hash160(K), hashed once: the receipt and ``resolve`` both ask."""
        return hash160(self.recipient_pubkey)

    @property
    def principal_term(self) -> PrincipalLit:
        return PrincipalLit(self.principal)

    def receipt(self) -> Receipt:
        """receipt(ω): the receipt resource this output generates (§4)."""
        return Receipt(self.prop, self.amount, self.principal_term)


@dataclass(frozen=True)
class TypecoinTransaction:
    """T = (Σ, C, ι⃗, ω⃗, M)."""

    basis: Basis
    grant: Proposition
    inputs: tuple[TypecoinInput, ...]
    outputs: tuple[TypecoinOutput, ...]
    proof: ProofTerm

    def __init__(self, basis, grant, inputs, outputs, proof):
        # A private copy: the encoding and hash below are computed once, so
        # a caller that keeps declaring into its own Basis must not reach
        # what they pin.
        object.__setattr__(self, "basis", Basis().extended(basis))
        object.__setattr__(self, "grant", grant)
        object.__setattr__(self, "inputs", tuple(inputs))
        object.__setattr__(self, "outputs", tuple(outputs))
        object.__setattr__(self, "proof", proof)
        if not self.outputs:
            raise TxnError("transaction needs at least one output")

    # -- the proof obligation ------------------------------------------

    def obligation_antecedent(self) -> Proposition:
        """C ⊗ A ⊗ R: the grant, the inputs tensor, the receipts tensor."""
        a = tensor_all([inp.prop for inp in self.inputs])
        r = tensor_all([out.receipt() for out in self.outputs])
        return Tensor(self.grant, Tensor(a, r))

    def outputs_tensor(self) -> Proposition:
        """B = B₁ ⊗ … ⊗ B_β."""
        return tensor_all([out.prop for out in self.outputs])

    # -- hashing and signing payloads ------------------------------------
    #
    # The envelope, written here once each way: the magic, then Σ as
    # (ref, declaration) pairs, C, ι⃗ and ω⃗, each list behind its count,
    # and M last.  Every part is one node of the wire format
    # (repro.logic.codec); inputs and outputs have untagged layouts.

    def signing_payload(self) -> bytes:
        """What affine asserts sign: Σ, C, ι⃗, ω⃗ — everything except the
        proof term M, which "need not be signed, and indeed cannot be,
        since it contains the signatures" (§4 fn. 7)."""
        return self._payload

    @cached_property
    def _payload(self) -> bytes:
        """The signing payload, built once like ``hash``: every field is
        immutable (the basis is this transaction's own copy)."""
        parts = [_MAGIC, write_uint(len(self.basis))]
        for ref, decl in self.basis:
            parts += (write_ref(ref), encode(decl))
        parts += (encode(self.grant), write_uint(len(self.inputs)))
        parts += map(encode, self.inputs)
        parts.append(write_uint(len(self.outputs)))
        parts += map(encode, self.outputs)
        return b"".join(parts)

    @classmethod
    def read(cls, cursor: Cursor) -> "TypecoinTransaction":
        """The transaction whose :meth:`serialize` bytes start at the
        cursor; raises the wire's ``DecodingError``, or ``TxnError`` /
        ``BasisError`` for a field the constructors refuse.

        The decoder returns only values whose encoding is the bytes it
        read, so those bytes are pinned as the transaction's payload and
        encoding: its ``hash`` costs one sha256d and no re-encode.  Every
        reference it holds was read by ``cursor.ref``, so what the cursor
        recorded, with the input txids, is pinned as :attr:`references`."""
        start, mark = cursor.pos, len(cursor.txids)
        cursor.expect(_MAGIC, "transaction")
        basis = Basis()
        for _ in range(cursor.uint()):
            basis.declare(cursor.name(), decode(cursor, Declaration))
        grant = decode(cursor, Proposition)
        inputs = [decode(cursor, TypecoinInput) for _ in range(cursor.uint())]
        outputs = [decode(cursor, TypecoinOutput) for _ in range(cursor.uint())]
        signed = cursor.pos
        txn = cls(basis, grant, inputs, outputs, decode(cursor, ProofTerm))
        txn.__dict__["_payload"] = bytes(cursor.data[start:signed])
        txn.__dict__["_encoding"] = bytes(cursor.data[start : cursor.pos])
        txn.__dict__["references"] = frozenset(cursor.txids[mark:]).union(
            inp.txid for inp in inputs
        )
        return txn

    def serialize(self) -> bytes:
        """The full transaction, proof term included."""
        return self._encoding

    @cached_property
    def _encoding(self) -> bytes:
        return self._payload + encode(self.proof)

    @cached_property
    def hash(self) -> bytes:
        """The hash embedded into the Bitcoin carrier (§3)."""
        return sha256d(self.serialize())

    @cached_property
    def references(self) -> frozenset[bytes]:
        """Every carrier txid this transaction depends on, found once.

        Two kinds of upstream edges: the outputs it spends, and the
        transactions whose bases declared the constants it mentions
        (anywhere — basis bodies, grant, input/output propositions, or the
        proof term; a name its own basis declares is none).  The
        verifier's "set of all Typecoin transactions upstream" (§3) is the
        closure of both.  :meth:`read` pins what the decoder met; a
        constructed transaction pays this one walk.
        """
        found = {inp.txid for inp in self.inputs}
        for ref in nodes_of_type(self, ConstRef):
            if isinstance(ref.space, bytes):
                found.add(ref.space)
        return frozenset(found)

    # -- resolution ---------------------------------------------------------

    def output_prop_resolved(self, index: int, carrier_txid: bytes) -> Proposition:
        """Output ``index``'s proposition with ``this`` → the carrier txid.

        Appendix A: "output nᵢ of txidᵢ in 𝔗 is Aᵢ′ and
        Aᵢ = [txidᵢ/this]Aᵢ′".
        """
        if not 0 <= index < len(self.outputs):
            raise TxnError(f"no output {index}")
        return substitute_this(self.outputs[index].prop, carrier_txid)


# What ``nodes_of_type`` descends through: basis, grant, input and output
# propositions and the proof term.  An input's and an output's rows are
# also their wire layouts, untagged.
declare_shape(TypecoinInput, data=("txid", "index", "amount"))
declare_shape(TypecoinOutput, data=("amount", "recipient_pubkey"))
declare_shape(TypecoinTransaction)


@dataclass
class ClaimBundle:
    """What a prover hands a verifier: the claimed txout and type, plus
    T_I and all Typecoin transactions upstream of it, keyed by carrier
    txid."""

    outpoint: OutPoint
    prop: Proposition
    transactions: dict[bytes, TypecoinTransaction] = field(default_factory=dict)


def trivial_output(recipient_pubkey: bytes, amount: int) -> TypecoinOutput:
    """A type-1 output: plain bitcoins escaping the Typecoin level (§3.1)."""
    return TypecoinOutput(One(), amount, recipient_pubkey)

