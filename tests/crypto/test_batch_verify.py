"""Batch ECDSA verification must be verdict-identical to serial.

The batch path (parity-hinted R reconstruction, random-coefficient
aggregation into one multi-scalar multiplication, bisection on failure)
is an accelerator only: every test here pins its verdicts against the
serial :func:`repro.crypto.ecdsa.verify` on the same triples — valid,
corrupted, structurally broken, hint-free, and adversarially mis-hinted.
"""

import random

import pytest

from repro.crypto import ecdsa
from repro.crypto.ecdsa import (
    Signature,
    batch_verify,
    clear_parity_hints,
    sign,
    verify,
)
from repro.crypto.secp256k1 import (
    CURVE_ORDER,
    GENERATOR,
    INFINITY,
    Point,
    lift_x,
    multi_scalar_mult,
    point_add,
    scalar_mult,
)
from repro.lru import LRU
from tests.oracles import scalar_mult_naive


@pytest.fixture(autouse=True)
def _fresh_hints():
    """Each test controls its own parity-hint state."""
    clear_parity_hints()
    yield
    clear_parity_hints()


def _make_triples(seed: int, count: int):
    """``count`` seeded triples, roughly half corrupted in varied ways.

    Returns ``(triples, kinds)`` where kinds records how each was built —
    useful for failure messages only; the expected verdict always comes
    from serial ``verify``.
    """
    rng = random.Random(seed)
    triples = []
    kinds = []
    for i in range(count):
        secret = rng.randrange(1, CURVE_ORDER)
        public = scalar_mult(secret)
        digest = rng.randbytes(32)
        sig = sign(secret, digest)
        kind = rng.choice(
            ["valid", "valid", "valid", "bad_s", "bad_digest", "bad_pubkey",
             "range_r", "range_s", "infinity"]
        )
        if kind == "bad_s":
            sig = Signature(sig.r, (sig.s + 1) % CURVE_ORDER or 1)
        elif kind == "bad_digest":
            digest = rng.randbytes(32)
        elif kind == "bad_pubkey":
            public = scalar_mult(rng.randrange(1, CURVE_ORDER))
        elif kind == "range_r":
            sig = Signature(0, sig.s)
        elif kind == "range_s":
            sig = Signature(sig.r, CURVE_ORDER)
        elif kind == "infinity":
            public = INFINITY
        triples.append((public, digest, sig))
        kinds.append(kind)
    return triples, kinds


def test_seeded_verdicts_match_serial_warm_and_cold():
    # ~200 triples; signing warmed the hint table, so the warm run
    # aggregates the valid ones and bisects around the corrupted ones.
    triples, kinds = _make_triples(0xBA7C4, 200)
    expected = [verify(p, d, s) for p, d, s in triples]
    got_warm = batch_verify(triples)
    assert got_warm == expected, [
        (i, k) for i, (k, a, b) in enumerate(zip(kinds, expected, got_warm))
        if a != b
    ]
    # Cold (no hints): everything routes through the serial leaf inside
    # batch_verify — verdicts must still be identical.
    clear_parity_hints()
    got_cold = batch_verify(triples)
    assert got_cold == expected


def test_seed_changes_coefficients_not_verdicts():
    triples, _ = _make_triples(0x5EED, 40)
    expected = [verify(p, d, s) for p, d, s in triples]
    for seed in (0, 1, 2, 0xFFFF_FFFF):
        assert batch_verify(triples, seed=seed) == expected


def test_empty_and_single_item_batches():
    assert batch_verify([]) == []
    secret = 0xA11CE
    digest = b"\x42" * 32
    sig = sign(secret, digest)
    assert batch_verify([(scalar_mult(secret), digest, sig)]) == [True]
    bad = Signature(sig.r, (sig.s + 1) % CURVE_ORDER)
    assert batch_verify([(scalar_mult(secret), digest, bad)]) == [False]


def test_bisection_pinpoints_single_culprit():
    # 24 valid signatures, one corrupted — with a *planted* hint so the bad
    # triple aggregates instead of taking the serial path, forcing the
    # failure to surface in the aggregate and bisect down to the culprit.
    rng = random.Random(0xC0FFEE)
    triples = []
    for i in range(24):
        secret = rng.randrange(1, CURVE_ORDER)
        digest = rng.randbytes(32)
        sig = sign(secret, digest)
        triples.append((scalar_mult(secret), digest, sig))
    culprit = 13
    public, digest, sig = triples[culprit]
    bad = Signature(sig.r, (sig.s + 1) % CURVE_ORDER)
    ecdsa._PARITY_HINTS.put((digest, bad.r, bad.s), True)  # plausible-but-wrong
    triples[culprit] = (public, digest, bad)
    verdicts = batch_verify(triples)
    assert verdicts == [i != culprit for i in range(24)]


def test_wrong_hint_on_valid_signature_still_verifies():
    # A flipped parity hint makes the aggregate fail, but bisection ends
    # in serial leaves — the verdict must survive the bad hint.
    rng = random.Random(0xF11)
    triples = []
    for i in range(8):
        secret = rng.randrange(1, CURVE_ORDER)
        digest = rng.randbytes(32)
        sig = sign(secret, digest)
        key = (digest, sig.r, sig.s)
        if i == 3:
            ecdsa._PARITY_HINTS.put(key, not ecdsa._PARITY_HINTS.get(key))
        triples.append((scalar_mult(secret), digest, sig))
    assert batch_verify(triples) == [True] * 8


def test_unhinted_triples_warm_the_table():
    secret = 0xB0B
    digest = b"\x17" * 32
    sig = sign(secret, digest)
    clear_parity_hints()
    assert batch_verify([(scalar_mult(secret), digest, sig)]) == [True]
    # The serial leaf recorded the parity it computed.
    assert (digest, sig.r, sig.s) in ecdsa._PARITY_HINTS


def test_hint_table_is_bounded(monkeypatch):
    monkeypatch.setattr(ecdsa, "_PARITY_HINTS", LRU(4))
    for i in range(10):
        sign(i + 1, bytes([i]) * 32)  # each signature records its hint
    assert len(ecdsa._PARITY_HINTS) == 4


def test_sign_records_parity_consistent_with_verify():
    # The hint sign() stores must equal the parity of the point verify()
    # computes — including through the low-s negation.
    rng = random.Random(0xD1CE)
    for _ in range(25):
        secret = rng.randrange(1, CURVE_ORDER)
        digest = rng.randbytes(32)
        sig = sign(secret, digest)
        hint = ecdsa._PARITY_HINTS.get((digest, sig.r, sig.s))
        assert hint is not None
        clear_parity_hints()
        assert verify(scalar_mult(secret), digest, sig)
        assert ecdsa._PARITY_HINTS.get((digest, sig.r, sig.s)) == hint
        r_point = lift_x(sig.r, odd=hint)
        assert r_point is not None and r_point.x == sig.r


def test_lift_x_parity_and_non_residue():
    point = scalar_mult(7)
    even = lift_x(point.x, odd=False)
    odd = lift_x(point.x, odd=True)
    assert even is not None and odd is not None
    assert even.x == odd.x == point.x
    assert even.y % 2 == 0 and odd.y % 2 == 1
    assert point in (even, odd)
    # x = 5 has no curve point (5³+7 is a quadratic non-residue mod p).
    assert lift_x(5, odd=False) is None


def _naive_sum(terms):
    acc = INFINITY
    for k, point in terms:
        k %= CURVE_ORDER
        if k == 0 or point.is_infinity:
            continue
        part = scalar_mult_naive(k) if point == GENERATOR else None
        if part is None:
            # naive double-and-add on an arbitrary point
            part = INFINITY
            addend = point
            while k:
                if k & 1:
                    part = point_add(part, addend)
                addend = point_add(addend, addend)
                k >>= 1
        acc = point_add(acc, part)
    return acc


@pytest.mark.parametrize("seed,count", [(1, 0), (2, 1), (3, 2), (4, 5), (5, 9)])
def test_multi_scalar_mult_matches_naive(seed, count):
    rng = random.Random(seed)
    terms = []
    for _ in range(count):
        k = rng.getrandbits(rng.choice([1, 64, 128, 256]))
        base = rng.choice(
            [GENERATOR, scalar_mult_naive(rng.randrange(1, 1000))]
        )
        terms.append((k, base))
    assert multi_scalar_mult(terms) == _naive_sum(terms)


def test_multi_scalar_mult_folds_repeated_points():
    p = scalar_mult_naive(12345)
    k1, k2 = 2**130 + 7, 2**90 + 3
    assert multi_scalar_mult([(k1, p), (k2, p)]) == _naive_sum([(k1 + k2, p)])


def test_multi_scalar_mult_edge_scalars():
    p = scalar_mult_naive(99)
    assert multi_scalar_mult([]) .is_infinity
    assert multi_scalar_mult([(0, p), (CURVE_ORDER, GENERATOR)]).is_infinity
    assert multi_scalar_mult([(CURVE_ORDER + 1, p)]) == p
    assert multi_scalar_mult([(1, INFINITY), (3, GENERATOR)]) == scalar_mult_naive(3)


def test_multi_scalar_mult_cancellation_to_infinity():
    # c·P + (n−c)·P must hit the identity mid-ladder without blowing up.
    p = scalar_mult_naive(4242)
    c = 2**127 + 11
    assert multi_scalar_mult([(c, p), (CURVE_ORDER - c, p)]).is_infinity
    assert multi_scalar_mult(
        [(c, GENERATOR), (CURVE_ORDER - c, GENERATOR)]
    ).is_infinity


def test_batch_width_aggregate_congruence():
    # The exact shape _batch_check builds for a 16-signature batch:
    # 33 terms (2 per sig + folded generator), 128-bit coefficients, GLV
    # splitting every scalar.  The one-pass result must equal the naive
    # term-by-term sum.
    rng = random.Random(0x61F)
    terms = []
    for _ in range(16):
        q = scalar_mult_naive(rng.randrange(1, CURVE_ORDER))
        r_pt = scalar_mult_naive(rng.randrange(1, CURVE_ORDER))
        c = rng.getrandbits(128) | 1
        u2 = rng.randrange(1, CURVE_ORDER)
        terms.append((c * u2 % CURVE_ORDER, q))
        terms.append((CURVE_ORDER - c, r_pt))
    terms.append((rng.randrange(1, CURVE_ORDER), GENERATOR))
    assert multi_scalar_mult(terms) == _naive_sum(terms)
