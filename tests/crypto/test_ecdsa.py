"""Tests for secp256k1 point arithmetic and ECDSA."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import secp256k1
from repro.crypto.ecdsa import Signature, deterministic_nonce, sign, verify
from repro.crypto.keys import PrivateKey
from repro.crypto.secp256k1 import (
    CURVE_ORDER,
    FIELD_PRIME,
    GENERATOR,
    INFINITY,
    Point,
    lift_x,
    scalar_mult,
)
from repro.lru import LRU
from tests.oracles import point_add


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


def _one_on_curve() -> tuple[int, int]:
    point = lift_x(1, odd=False)  # x = 1 is on the curve
    assert point is not None and point.y is not None
    return 1, point.y


@pytest.mark.parametrize(
    "dx,dy",
    [(FIELD_PRIME, 0), (0, FIELD_PRIME), (0, -FIELD_PRIME)],
    ids=["x+p", "y+p", "y-p"],
)
def test_unreduced_coordinates_are_not_a_point(dx, dy):
    """x + p satisfies the curve equation whenever x does, but it is a
    second name for the same point — unequal to the first and encoded as
    bytes no decoder accepts — so the range is checked before the equation."""
    x, y = _one_on_curve()
    assert Point(x, y) == Point.decode(b"\x02" + x.to_bytes(32, "big"))
    with pytest.raises(ValueError, match="out of range"):
        Point(x + dx, y + dy)


def test_uncompressed_decoder_refuses_what_the_compressed_one_refuses():
    x, y = _one_on_curve()
    good = b"\x04" + x.to_bytes(32, "big") + y.to_bytes(32, "big")
    assert Point.decode(good) == Point(x, y)
    alias = b"\x04" + (x + FIELD_PRIME).to_bytes(32, "big") + y.to_bytes(32, "big")
    with pytest.raises(ValueError, match="out of range"):
        Point.decode(alias)
    with pytest.raises(ValueError, match="out of range"):
        Point.decode(b"\x02" + (x + FIELD_PRIME).to_bytes(32, "big"))
    top = b"\x04" + b"\xff" * 32 + y.to_bytes(32, "big")
    with pytest.raises(ValueError, match="out of range"):
        Point.decode(top)


def test_decode_rejects_garbage():
    with pytest.raises(ValueError):
        Point.decode(b"\x05" + b"\x00" * 32)


def fresh_memo(monkeypatch) -> LRU:
    """An empty ``Point.decode`` memo of the same bound, counters at 0."""
    memo = LRU(secp256k1._DECOMPRESSED.capacity)
    monkeypatch.setattr(secp256k1, "_DECOMPRESSED", memo)
    return memo


def test_decompression_memo_hits_and_clears(monkeypatch):
    encoded = scalar_mult(777).encode()
    memo = fresh_memo(monkeypatch)
    assert Point.decode(encoded) == Point.decode(encoded) == scalar_mult(777)
    assert (memo.misses, memo.hits, len(memo)) == (1, 1, 1)
    memo = fresh_memo(monkeypatch)  # the cold path again
    assert Point.decode(encoded) == scalar_mult(777)
    assert memo.misses == 1


def test_decompression_memo_remembers_failures_with_their_message(monkeypatch):
    no_root = next(x for x in range(1, 64) if lift_x(x, odd=False) is None)
    cases = {
        b"\x02" + no_root.to_bytes(32, "big"): (
            "x coordinate has no square root (not on curve)"
        ),
        b"\x03" + FIELD_PRIME.to_bytes(32, "big"): "x coordinate out of range",
    }
    memo = fresh_memo(monkeypatch)
    for encoded, message in cases.items():
        for _ in range(2):
            with pytest.raises(ValueError) as caught:
                Point.decode(encoded)
            assert str(caught.value) == message
    assert (memo.misses, memo.hits) == (2, 2)


def test_decompression_memo_is_bounded():
    bound = secp256k1._DECOMPRESSED.capacity
    assert bound is not None and bound <= 4096
    for x in range(1, bound + 50):
        try:
            Point.decode(b"\x02" + x.to_bytes(32, "big"))
        except ValueError:
            pass  # failures take a slot too
    assert len(secp256k1._DECOMPRESSED) == bound


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


# RFC 6979 known answers, low-s normalised: (secret, message, r, s, whether
# the raw s was in the upper half).  The first is the vector every secp256k1
# library carries; all were recorded before the kernel was rewritten, and a
# deterministic nonce means no faster multiplication may move any of them —
# a signature is inside a txid, and the txid inside every receipt.
_N = CURVE_ORDER
_RFC6979_VECTORS = [
    (1, b"Satoshi Nakamoto",
     0x934B1EA10A4B3C1757E2B0C017D0B6143CE3C9A7E6A4A49860D7A6AB210EE3D8,
     0x2442CE9D2B916064108014783E923EC36B49743E2FFA1C4496F01A512AAFD9E5, True),
    (1, b"All those moments will be lost in time, like tears in rain. "
        b"Time to die...",
     0x8600DBD41E348FE5C9465AB92D23E3DB8B98B873BEECD930736488696438CB6B,
     0x547FE64427496DB33BF66019DACBF0039C04199ABB0122918601DB38A72CFC21, True),
    (_N - 1, b"Satoshi Nakamoto",
     0xFD567D121DB66E382991534ADA77A6BD3106F0A1098C231E47993447CD6AF2D0,
     0x6B39CD0EB1BC8603E159EF5C20A5C8AD685A45B06CE9BEBED3F153D10D93BED5, True),
    (0xF8B8AF8CE3C7CCA5E300D33939540C10D45CE001B8F252BFBC57BA0342904181,
     b"Alan Turing",
     0x7063AE83E7F62BBB171798131B4A0564B956930092B33B07B395615D9EC7E15C,
     0x58DFCC1E00A35E1572F366FFE34BA0FC47DB1E7189759B9FB233C5B05AB388EA, True),
    (0xE91671C46231F833A6406CCBEA0E3E392C76C167BAC1CB013F6F1013980455C2,
     b"There is a computer disease that anybody who works with computers "
     b"knows about. It's a very serious disease and it interferes completely "
     b"with the work. The trouble with computers is that you 'play' with them!",
     0xB552EDD27580141F3B2A5463048CB7CD3E047B97C9F98076C32DBDF85A68718B,
     0x279FA72DD19BFAE05577E06C7C0C1900C371FCD5893F7E1D56A37D30174671F6, False),
    (2, b"typecoin",
     0xDC73248C2B2A7D620744969783AE708EB3024201656A5D92A8317168E6C95491,
     0x482CC4BE1805BD6FD1B4FDFA6554259BE102F147A213B0E238BC8AC1C3713341, False),
    (3, b"affine commitment",
     0x6CE890B5A425ADF595113B05D07A044B3BAADF7050D1B7435A200839AAD76070,
     0x41AA4BBE659367B2BEB7508902344C70C5D4D0962B53E9C2FA4790D7493555F6, False),
    (0x123456789ABCDEF, b"peer-to-peer",
     0x08A71D266C65F3FC41D33D2DD29294F11C0BC9CCFF68651ACEEA8F5F79A284C1,
     0x7A34A4C0CF61A0407C90284253C0A0D1F0F59772EE81C763A07969D7E52BA017, True),
]


@pytest.mark.parametrize("secret,message,r,s,raw_s_was_high", _RFC6979_VECTORS)
def test_rfc6979_known_answers(secret, message, r, s, raw_s_was_high):
    digest = hashlib.sha256(message).digest()
    signature = sign(secret, digest)
    assert (signature.r, signature.s) == (r, s)
    assert verify(scalar_mult(secret), digest, signature)
    # The s the signing equation gives before normalisation, from the nonce.
    k = deterministic_nonce(secret, digest)
    raw_s = pow(k, -1, _N) * (int.from_bytes(digest, "big") + r * secret) % _N
    assert (raw_s > _N // 2) == raw_s_was_high
    assert s == (_N - raw_s if raw_s_was_high else raw_s)


@pytest.mark.parametrize(
    "k,encoded",
    [
        (1, "0279be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"),
        (2, "02c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5"),
        (3, "02f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9"),
        (_N - 1,
         "0379be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"),
    ],
)
def test_known_public_keys(k, encoded):
    assert scalar_mult(k).encode().hex() == encoded
    assert PrivateKey(k).public.encoded.hex() == encoded


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


def test_principal_is_key_hash():
    key = PrivateKey.from_seed(b"principal")
    assert key.public.principal == key.public.key_hash
    assert len(key.public.principal) == 20
