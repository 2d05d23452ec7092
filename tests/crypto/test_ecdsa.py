"""Tests for secp256k1 point arithmetic and ECDSA."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.ecdsa import Signature, deterministic_nonce, sign, verify
from repro.crypto.keys import PrivateKey, PublicKey, new_private_key
from repro.crypto.secp256k1 import (
    CURVE_ORDER,
    FIELD_PRIME,
    GENERATOR,
    INFINITY,
    Point,
    _decompress,
    lift_x,
    point_add,
    scalar_mult,
)


def test_generator_on_curve():
    # Construction validates the curve equation.
    Point(GENERATOR.x, GENERATOR.y)


def test_known_multiples_of_g():
    # Standard vectors for 2G and 3G.
    p2 = scalar_mult(2)
    assert p2.x == 0xC6047F9441ED7D6D3045406E95C07CD85C778E4B8CEF3CA7ABAC09B95C709EE5
    p3 = scalar_mult(3)
    assert p3.x == 0xF9308A019258C31049344F85F89D5229B531C845836F99B08601F113BCE036F9


def test_order_annihilates():
    assert scalar_mult(CURVE_ORDER).is_infinity


def test_point_add_identity():
    assert point_add(INFINITY, GENERATOR) == GENERATOR
    assert point_add(GENERATOR, INFINITY) == GENERATOR


def test_point_add_inverse():
    assert GENERATOR.y is not None
    neg = Point(GENERATOR.x, FIELD_PRIME - GENERATOR.y)
    assert point_add(GENERATOR, neg).is_infinity


@given(st.integers(min_value=1, max_value=2**64))
@settings(max_examples=20, deadline=None)
def test_scalar_mult_distributes(k):
    # (k+1)G == kG + G
    assert scalar_mult(k + 1) == point_add(scalar_mult(k), GENERATOR)


def test_off_curve_point_rejected():
    with pytest.raises(ValueError):
        Point(1, 1)


@given(st.integers(min_value=1, max_value=CURVE_ORDER - 1))
@settings(max_examples=25, deadline=None)
def test_sec1_roundtrip_compressed_and_uncompressed(k):
    p = scalar_mult(k)
    for _ in range(2):  # computed, then answered by the decompression memo
        assert Point.decode(p.encode(compressed=True)) == p
        assert Point.decode(p.encode(compressed=False)) == p


def test_decode_rejects_garbage():
    with pytest.raises(ValueError):
        Point.decode(b"\x05" + b"\x00" * 32)


def test_decompression_memo_hits_and_clears():
    encoded = scalar_mult(777).encode()
    _decompress.cache_clear()
    assert Point.decode(encoded) == Point.decode(encoded) == scalar_mult(777)
    info = _decompress.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    _decompress.cache_clear()  # the cold path again
    assert Point.decode(encoded) == scalar_mult(777)
    assert _decompress.cache_info().misses == 1


def test_decompression_memo_remembers_failures_with_their_message():
    no_root = next(x for x in range(1, 64) if lift_x(x, odd=False) is None)
    cases = {
        b"\x02" + no_root.to_bytes(32, "big"): (
            "x coordinate has no square root (not on curve)"
        ),
        b"\x03" + FIELD_PRIME.to_bytes(32, "big"): "x coordinate out of range",
    }
    _decompress.cache_clear()
    for encoded, message in cases.items():
        for _ in range(2):
            with pytest.raises(ValueError) as caught:
                Point.decode(encoded)
            assert str(caught.value) == message
    info = _decompress.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_decompression_memo_is_bounded():
    bound = _decompress.cache_info().maxsize
    assert bound is not None and bound <= 4096
    for x in range(1, bound + 50):
        try:
            Point.decode(b"\x02" + x.to_bytes(32, "big"))
        except ValueError:
            pass  # failures take a slot too
    assert _decompress.cache_info().currsize == bound


def test_sign_verify_roundtrip():
    key = PrivateKey.from_seed(b"test")
    digest = b"\xab" * 32
    sig = sign(key.secret, digest)
    assert verify(key.public.point, digest, sig)


def test_verify_rejects_wrong_digest():
    key = PrivateKey.from_seed(b"test")
    sig = sign(key.secret, b"\xab" * 32)
    assert not verify(key.public.point, b"\xac" * 32, sig)


def test_verify_rejects_wrong_key():
    key = PrivateKey.from_seed(b"test")
    other = PrivateKey.from_seed(b"other")
    sig = sign(key.secret, b"\xab" * 32)
    assert not verify(other.public.point, b"\xab" * 32, sig)


def test_signatures_deterministic():
    key = PrivateKey.from_seed(b"det")
    assert sign(key.secret, b"\x01" * 32) == sign(key.secret, b"\x01" * 32)


def test_low_s_normalization():
    key = PrivateKey.from_seed(b"lows")
    for i in range(8):
        sig = sign(key.secret, bytes([i]) * 32)
        assert sig.s <= CURVE_ORDER // 2


def test_nonce_depends_on_message_and_key():
    k1 = deterministic_nonce(5, b"\x01" * 32)
    k2 = deterministic_nonce(5, b"\x02" * 32)
    k3 = deterministic_nonce(6, b"\x01" * 32)
    assert len({k1, k2, k3}) == 3


def test_signature_compact_roundtrip():
    sig = Signature(r=123456789, s=987654321)
    assert Signature.decode(sig.encode()) == sig


def test_signature_decode_length_check():
    with pytest.raises(ValueError):
        Signature.decode(b"\x00" * 63)


def test_reject_degenerate_signatures():
    key = PrivateKey.from_seed(b"degenerate")
    assert not verify(key.public.point, b"\x01" * 32, Signature(0, 1))
    assert not verify(key.public.point, b"\x01" * 32, Signature(1, 0))
    assert not verify(key.public.point, b"\x01" * 32, Signature(CURVE_ORDER, 1))


@given(st.binary(min_size=1, max_size=64))
@settings(max_examples=15, deadline=None)
def test_message_level_api(message):
    key = PrivateKey.from_seed(b"api")
    sig = key.sign(message)
    assert key.public.verify(message, sig)


def test_private_key_range_validation():
    with pytest.raises(ValueError):
        PrivateKey(0)
    with pytest.raises(ValueError):
        PrivateKey(CURVE_ORDER)


def test_new_private_key_unique():
    assert new_private_key().secret != new_private_key().secret


def test_principal_is_key_hash():
    key = PrivateKey.from_seed(b"principal")
    assert key.public.principal == key.public.key_hash
    assert len(key.public.principal) == 20


def test_address_roundtrip():
    key = PrivateKey.from_seed(b"addr")
    assert PublicKey.hash_from_address(key.public.address) == key.public.key_hash
