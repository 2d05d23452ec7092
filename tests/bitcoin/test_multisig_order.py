"""A 1-of-n lock tries its keys in push order; the verdict is consensus's.

``OP_CHECKMULTISIG`` matches signatures to keys from the last pushed key
down, so a carrier's 1-of-2 lock (owner key, then the metadata pseudo-key
of §3.3) used to offer its doomed pseudo-key first.  With one signature
the engine now tries the owner first.  These tests hold the engine to
``tests.oracles.consensus_checkmultisig`` over the real signature checker:
the same verdict, or the same exception, for every lock and signature
list, and ``m ≥ 2`` keeps its order.
"""

import hashlib

from hypothesis import given, settings, strategies as st

from repro.bitcoin.script import Op, Script, execute_script
from repro.bitcoin.sighash import signature_hash
from repro.bitcoin.transaction import OutPoint, Transaction, TxIn, TxOut
from repro.bitcoin.validation import ValidationError, make_sig_checker
from repro.core.overlay import metadata_pubkey
from repro.crypto.keys import PrivateKey
from tests.bitcoin.test_sigcache import _decodes
from tests.oracles import consensus_checkmultisig

_SIGNERS = [PrivateKey.from_seed(b"msig-%d" % i) for i in range(4)]
_UNLISTED = 3  # signs, but its key is in no lock


def _pseudo_keys(on_curve: bool, count: int) -> list[bytes]:
    candidates = (
        metadata_pubkey(hashlib.sha256(b"msig-pseudo-%d" % i).digest())
        for i in range(256)
    )
    keys = [key for key in candidates if _decodes(key) == on_curve]
    return keys[:count]


_KEY_POOL = (
    [signer.public.encoded for signer in _SIGNERS[:_UNLISTED]]
    + _pseudo_keys(on_curve=True, count=2)
    + _pseudo_keys(on_curve=False, count=2)
    + [
        b"",
        b"\x05" + _SIGNERS[0].public.encoded[1:],  # no SEC1 prefix
        _SIGNERS[1].public.encoded[:20],  # short
        b"\x02" + b"\xff" * 32,  # x ≥ p
    ]
)
_TX = Transaction([TxIn(OutPoint(b"\x33" * 32, 0))], [TxOut(1000, Script([Op.OP_1]))])
_SIGHASH_RAISES = (0x00, 0x04)  # no such base type: the digest refuses


def _lock(m: int, keys: list[bytes]) -> Script:
    return Script([Op(0x50 + m) if m else Op.OP_0, *keys, Op(0x50 + len(keys)),
                   Op.OP_CHECKMULTISIG])


_OWNER = {signer.public.encoded: i for i, signer in enumerate(_SIGNERS)}


def _signature(spec, lock: Script, keys: list[bytes]) -> bytes:
    """``("valid", i)`` is signer i's signature for the lock under
    SIGHASH_ALL, ``("listed", j)`` the one of whoever owns the lock's j-th
    key (the unlisted signer if nobody does); ``("raise", i, t)`` is signer
    i's with a hash type ``t`` the digest refuses."""
    if spec[0] == "empty":
        return b""
    signer = spec[1]
    if spec[0] == "listed":
        signer = _OWNER.get(keys[spec[1] % len(keys)], _UNLISTED)
    digest = signature_hash(_TX, 0, lock, 0x01)
    body = _SIGNERS[signer].sign_digest(digest).encode()
    return body + bytes([spec[2] if spec[0] == "raise" else 0x01])


def _outcome(run):
    try:
        return run()
    except ValidationError as exc:
        return type(exc)


def _engine_and_oracle(m, keys, sigs, lock):
    script_sig = Script([Op.OP_0, *sigs])
    engine = _outcome(lambda: execute_script(
        script_sig, lock, make_sig_checker(_TX, 0, lock, sig_cache=None)
    ))
    oracle = _outcome(lambda: consensus_checkmultisig(
        sigs, keys, make_sig_checker(_TX, 0, lock, sig_cache=None)
    ))
    return engine, oracle


_SIG_SPECS = st.one_of(
    st.tuples(st.just("valid"), st.integers(0, len(_SIGNERS) - 1)),
    st.tuples(st.just("listed"), st.integers(0, 2)),
    st.tuples(st.just("empty")),
    st.tuples(
        st.just("raise"),
        st.integers(0, len(_SIGNERS) - 1),
        st.sampled_from(_SIGHASH_RAISES),
    ),
)


@st.composite
def _multisig_cases(draw):
    keys = draw(st.lists(st.sampled_from(_KEY_POOL), min_size=1, max_size=3))
    m = draw(st.one_of(st.just(1), st.integers(0, len(keys))))
    specs = draw(st.lists(_SIG_SPECS, min_size=m, max_size=m))
    return m, keys, specs


@given(_multisig_cases())
@settings(max_examples=150, deadline=None)
def test_checkmultisig_matches_consensus_order(case):
    m, keys, specs = case
    lock = _lock(m, keys)
    sigs = [_signature(spec, lock, keys) for spec in specs]
    engine, oracle = _engine_and_oracle(m, keys, sigs, lock)
    assert engine == oracle


def _case(m, keys, specs):
    lock = _lock(m, keys)
    sigs = [_signature(spec, lock, keys) for spec in specs]
    return _engine_and_oracle(m, keys, sigs, lock)


def test_the_differential_reaches_every_outcome():
    """The strategy above is not vacuous: one pinned example per outcome,
    each on a lock the engine now walks in the other order."""
    owner, other = (signer.public.encoded for signer in _SIGNERS[:2])
    on_curve = _pseudo_keys(on_curve=True, count=1)[0]
    off_curve = _pseudo_keys(on_curve=False, count=1)[0]
    for pseudo in (on_curve, off_curve):
        carrier = [owner, pseudo]
        assert _case(1, carrier, [("valid", 0)]) == (True, True)
        assert _case(1, carrier, [("valid", 1)]) == (False, False)
        assert _case(1, carrier, [("valid", _UNLISTED)]) == (False, False)
        assert _case(1, carrier, [("empty",)]) == (False, False)
        raised = _case(1, carrier, [("raise", 0, 0x04)])
        assert raised == (ValidationError, ValidationError)
    # The raise needs a decodable key, in whichever place the walk meets it.
    assert _case(1, [off_curve, b"\x05" + owner[1:]], [("raise", 0, 0x00)]) == (
        False, False
    )
    assert _case(1, [off_curve, owner], [("raise", 1, 0x00)]) == (
        ValidationError, ValidationError
    )
    assert _case(1, [owner, other, on_curve], [("valid", 1)]) == (True, True)


def test_an_out_of_order_two_of_three_still_fails():
    keys = [signer.public.encoded for signer in _SIGNERS[:3]]
    assert _case(2, keys, [("valid", 0), ("valid", 1)]) == (True, True)
    assert _case(2, keys, [("valid", 0), ("valid", 2)]) == (True, True)
    assert _case(2, keys, [("valid", 1), ("valid", 0)]) == (False, False)
    assert _case(2, keys, [("valid", 2), ("valid", 0)]) == (False, False)
