"""Typed rejection and canonical bytes at the logic and transaction decoders.

Wire bytes come from whoever sends a claim bundle.  Each decoder must
either raise ``DecodingError`` or return a value whose encoding is exactly
the bytes it read: no raw ``ValueError`` / ``UnicodeDecodeError`` out of a
constructor, and nothing accepted that the encoder could not have written.
The named cases below each escaped or slipped through before; the property
mutates the encodings of the benchmark's working set (every kind, family,
proposition and proof term a real history carries) and checks both halves.
"""

import pytest
from hypothesis import given, settings, strategies as st

from bench.workloads.claims import build_working_set
from repro.core.builder import simple_transfer
from repro.core.transaction import TypecoinOutput
from repro.core.wire import (
    _BUNDLE_MAGIC,
    decode_bundle,
    decode_transaction,
    encode_transaction,
)
from repro.lf.basis import KindDecl, PropDecl, TypeDecl
from repro.logic.decoding import (
    Cursor,
    DecodingError,
    decode_cond,
    decode_family,
    decode_kind,
    decode_proof,
    decode_prop,
    decode_term,
)
from repro.logic.encoding import (
    _blob,
    _uint,
    encode_family,
    encode_kind,
    encode_proof,
    encode_prop,
)
from repro.logic.propositions import One

PUBKEY = b"\x02" + b"\x33" * 32


def test_a_principal_literal_of_the_wrong_length_is_a_decoding_error():
    """Raised the literal's own ``ValueError``."""
    with pytest.raises(DecodingError, match="20-byte"):
        decode_term(Cursor(b"\x14\x03abc"))


def test_a_spent_txid_of_the_wrong_length_is_a_decoding_error():
    """Raised the condition's own ``ValueError``."""
    with pytest.raises(DecodingError, match="32-byte"):
        decode_cond(Cursor(b"\x44\x01\xaa\x00"))


def test_a_constant_name_that_is_not_utf8_is_a_decoding_error():
    """Raised ``UnicodeDecodeError``."""
    with pytest.raises(DecodingError, match="UTF-8"):
        decode_term(Cursor(b"\x11\x01\x01\x01\xff"))


def test_an_unknown_kind_sort_is_a_decoding_error():
    """Any sort byte but 0 decoded as ``prop``, which re-encodes as 1."""
    assert encode_kind(decode_kind(Cursor(b"\x30\x01"))) == b"\x30\x01"
    with pytest.raises(DecodingError, match="kind sort"):
        decode_kind(Cursor(b"\x30\x02"))


def test_a_non_minimal_leb128_is_a_decoding_error():
    """``80 00`` decoded as ``NatLit(0)``, which re-encodes as ``00``."""
    with pytest.raises(DecodingError, match="non-minimal"):
        decode_term(Cursor(b"\x15\x80\x00"))
    with pytest.raises(DecodingError, match="non-minimal"):
        decode_term(Cursor(b"\x15\xff\x80\x00"))
    assert decode_term(Cursor(b"\x15\x80\x01")).value == 128


@pytest.mark.parametrize(
    "claimed",
    [
        b"\x5a\x14\x03abc\x56",  # ⟨K⟩1 with a 3-byte principal
        b"\x5c\x44\x01\xaa\x00\x56",  # if(spent(aa.0), 1)
        b"\x5a\x11\x01\x01\x01\xff\x56",  # ⟨c⟩1 with a non-UTF-8 name
    ],
    ids=["principal", "spent", "name"],
)
def test_no_raw_exception_escapes_decode_bundle(claimed):
    data = (
        _BUNDLE_MAGIC + _blob(b"\x11" * 32) + _uint(0) + _blob(claimed) + _uint(0)
    )
    with pytest.raises(DecodingError):
        decode_bundle(data)


def test_a_refused_transaction_field_is_a_decoding_error():
    """A 32-byte recipient key raised the output's own ``TxnError``."""
    data = bytearray(encode_transaction(
        simple_transfer([], [TypecoinOutput(One(), 600, PUBKEY)])
    ))
    at = data.index(PUBKEY)
    data[at - 1] = 32
    del data[at + 32]
    with pytest.raises(DecodingError, match="33-byte"):
        decode_transaction(bytes(data))


def _whole_transaction(cursor):
    """``decode_transaction`` in the cursor shape the property uses."""
    txn = decode_transaction(cursor.data)
    cursor.pos = len(cursor.data)
    return txn


@pytest.fixture(scope="module")
def encodings():
    """(decoder, encoder, bytes) for every transaction of the working set,
    and every declaration, grant, input and output proposition and proof
    term in it."""
    codecs = {
        KindDecl: (decode_kind, encode_kind, "kind"),
        TypeDecl: (decode_family, encode_family, "family"),
        PropDecl: (decode_prop, encode_prop, "prop"),
    }
    transactions = {}
    for claim in build_working_set(7, 1).claims:
        transactions.update(claim.bundle.transactions)
    samples = set()
    for txn in transactions.values():
        samples.add((_whole_transaction, encode_transaction, txn.serialize()))
        for _ref, decl in txn.basis:
            decode, encode, field = codecs[type(decl)]
            samples.add((decode, encode, encode(getattr(decl, field))))
        props = [txn.grant]
        props += [inp.prop for inp in txn.inputs]
        props += [out.prop for out in txn.outputs]
        samples.update((decode_prop, encode_prop, encode_prop(p)) for p in props)
        samples.add((decode_proof, encode_proof, encode_proof(txn.proof)))
    return sorted(samples, key=lambda sample: (sample[0].__name__, sample[2]))


_MUTATION = st.tuples(
    st.sampled_from(["flip", "set", "insert", "delete", "truncate"]),
    st.integers(min_value=0),
    st.integers(0, 255),
)


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_mutated_bytes_decode_canonically_or_not_at_all(encodings, data):
    decode, encode, original = data.draw(st.sampled_from(encodings))
    mutated = bytearray(original)
    for kind, where, byte in data.draw(st.lists(_MUTATION, min_size=1, max_size=4)):
        at = where % (len(mutated) + 1)
        if kind == "flip" and at < len(mutated):
            mutated[at] ^= 1 << (byte % 8)
        elif kind == "set" and at < len(mutated):
            mutated[at] = byte
        elif kind == "insert":
            mutated.insert(at, byte)
        elif kind == "delete" and at < len(mutated):
            del mutated[at]
        elif kind == "truncate":
            del mutated[at:]
    cursor = Cursor(bytes(mutated))
    try:
        decoded = decode(cursor)
    except DecodingError:
        return
    # What the caller does with trailing bytes is its own business; the
    # bytes this decoder read must be the decoded value's encoding.
    assert encode(decoded) == bytes(mutated[: cursor.pos])
