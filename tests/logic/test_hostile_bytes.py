"""Typed rejection and canonical bytes at the logic and transaction decoders.

Wire bytes come from whoever sends a claim bundle.  The decoder must
either raise ``DecodingError`` or return a value whose encoding is exactly
the bytes it read: no raw ``ValueError`` / ``UnicodeDecodeError`` out of a
constructor, and nothing accepted that the encoder could not have written.
The named cases below each escaped or slipped through before; the property
mutates the encodings of the benchmark's working set (every kind, family,
proposition and proof term a real history carries) and checks both halves.
A bundle that survives mutation and decodes goes on to the verification
service, which must answer it with a verdict.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.builder import simple_transfer
from repro.core.transaction import TypecoinOutput
from repro.core.verifier import verify_claim
from repro.core.wire import (
    _BUNDLE_MAGIC,
    decode_bundle,
    decode_transaction,
    encode_bundle,
    encode_transaction,
)
from repro.lf.basis import KindDecl, PropDecl, TypeDecl
from repro.lf.syntax import KindT, Term, TypeFamily
from repro.logic.codec import (
    Cursor,
    DecodingError,
    decode,
    encode,
    write_blob,
    write_uint,
)
from repro.logic.conditions import Condition
from repro.logic.proofterms import ProofTerm
from repro.logic.propositions import One, Proposition
from repro.service import VerificationService

from tests.oracles import rebuilt

PUBKEY = b"\x02" + b"\x33" * 32


def test_a_principal_literal_of_the_wrong_length_is_a_decoding_error():
    """Raised the literal's own ``ValueError``."""
    with pytest.raises(DecodingError, match="20-byte"):
        decode(Cursor(b"\x14\x03abc"), Term)


def test_a_spent_txid_of_the_wrong_length_is_a_decoding_error():
    """Raised the condition's own ``ValueError``."""
    with pytest.raises(DecodingError, match="32-byte"):
        decode(Cursor(b"\x44\x01\xaa\x00"), Condition)


def test_a_constant_name_that_is_not_utf8_is_a_decoding_error():
    """Raised ``UnicodeDecodeError``."""
    with pytest.raises(DecodingError, match="UTF-8"):
        decode(Cursor(b"\x11\x01\x01\x01\xff"), Term)


def test_an_unknown_kind_sort_is_a_decoding_error():
    """Any sort byte but 0 decoded as ``prop``, which re-encodes as 1."""
    assert encode(decode(Cursor(b"\x30\x01"), KindT)) == b"\x30\x01"
    with pytest.raises(DecodingError, match="kind sort"):
        decode(Cursor(b"\x30\x02"), KindT)


def test_a_non_minimal_leb128_is_a_decoding_error():
    """``80 00`` decoded as ``NatLit(0)``, which re-encodes as ``00``."""
    with pytest.raises(DecodingError, match="non-minimal"):
        decode(Cursor(b"\x15\x80\x00"), Term)
    with pytest.raises(DecodingError, match="non-minimal"):
        decode(Cursor(b"\x15\xff\x80\x00"), Term)
    assert decode(Cursor(b"\x15\x80\x01"), Term).value == 128


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
        _BUNDLE_MAGIC + write_blob(b"\x11" * 32) + write_uint(0)
        + write_blob(claimed) + write_uint(0)
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


def _pinned_and_computed(txn):
    fresh = rebuilt(txn)
    return (
        (txn.serialize(), txn.signing_payload(), txn.hash),
        (fresh.serialize(), fresh.signing_payload(), fresh.hash),
    )


# what a sample is: how to read it from a cursor, and how to write it back
_CODECS = {
    "transaction": (
        _whole_transaction, lambda txn: encode_transaction(rebuilt(txn))
    ),
    "kind": (lambda cursor: decode(cursor, KindT), encode),
    "family": (lambda cursor: decode(cursor, TypeFamily), encode),
    "prop": (lambda cursor: decode(cursor, Proposition), encode),
    "proof": (lambda cursor: decode(cursor, ProofTerm), encode),
}


@pytest.fixture(scope="module")
def encodings(working_set):
    """(what, bytes) for every transaction of the working set, and every
    declaration, grant, input and output proposition and proof term in
    it."""
    declared = {KindDecl: "kind", TypeDecl: "family", PropDecl: "prop"}
    transactions = {}
    for claim in working_set.claims:
        transactions.update(claim.bundle.transactions)
    samples = set()
    for txn in transactions.values():
        samples.add(("transaction", txn.serialize()))
        for _ref, decl in txn.basis:
            what = declared[type(decl)]  # also the field that holds it
            samples.add((what, encode(getattr(decl, what))))
        props = [txn.grant]
        props += [inp.prop for inp in txn.inputs]
        props += [out.prop for out in txn.outputs]
        samples.update(("prop", encode(p)) for p in props)
        samples.add(("proof", encode(txn.proof)))
    return sorted(samples)


_MUTATION = st.tuples(
    st.sampled_from(["flip", "set", "insert", "delete", "truncate"]),
    st.integers(min_value=0),
    st.integers(0, 255),
)


def _mutated(data, original):
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
    return bytes(mutated)


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_mutated_bytes_decode_canonically_or_not_at_all(encodings, data):
    what, original = data.draw(st.sampled_from(encodings))
    read, write = _CODECS[what]
    mutated = _mutated(data, original)
    cursor = Cursor(mutated)
    try:
        decoded = read(cursor)
    except DecodingError:
        return
    # What the caller does with trailing bytes is its own business; the
    # bytes this decoder read must be the decoded value's encoding.
    assert write(decoded) == mutated[: cursor.pos]


def test_a_decoded_transaction_pins_the_encoding_of_its_fields(encodings):
    """``read`` keeps the bytes it consumed as the encoding and payload
    (``hash`` is then one sha256d); over the working set they are what
    the decoded fields encode to."""
    transactions = [raw for what, raw in encodings if what == "transaction"]
    assert transactions
    for raw in transactions:
        txn = decode_transaction(raw)
        assert txn.__dict__["_encoding"] == raw
        pinned, computed = _pinned_and_computed(txn)
        assert pinned == computed
        assert pinned[0] == raw


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_a_pinned_encoding_is_the_encoding_of_the_decoded_fields(
    encodings, data
):
    """Hostile bytes that decode pin an encoding, a payload and so a hash
    their fields would give too — the verifier's memo keys on that hash."""
    original = data.draw(st.sampled_from(
        [raw for what, raw in encodings if what == "transaction"]
    ))
    try:
        txn = decode_transaction(_mutated(data, original))
    except DecodingError:
        return
    pinned, computed = _pinned_and_computed(txn)
    assert pinned == computed


@pytest.fixture(scope="module")
def service(working_set):
    service = VerificationService(working_set.chain)
    yield service
    service.close()


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_a_mutated_bundle_that_decodes_gets_a_verdict(working_set, service, data):
    """Past the decoder, hostile bytes are the verifier's to refuse: the
    service answers ``ok`` or ``invalid`` — never ``error`` or
    ``timeout`` — and ``ok`` only where the library accepts too."""
    claim = data.draw(st.sampled_from(working_set.claims))
    try:
        bundle = decode_bundle(_mutated(data, encode_bundle(claim.bundle)))
    except DecodingError:
        return
    verdict = service.verify(bundle)
    assert verdict.status in ("ok", "invalid"), verdict
    if verdict.status == "ok":
        verify_claim(working_set.chain, bundle)
