"""Property tests for the fast EC multiplication paths.

The fast paths (the generator's byte comb, per-point w-NAF, GLV split, the
one Strauss/Shamir ladder behind single, dual and multi multiplication,
and a held key's eight cut tables) must agree with the naive
double-and-add ladder on every scalar, including the awkward ones: 0, 1,
n−1, values at or beyond the curve order, scalars on the comb's window
boundaries, digits on either side of each cut and additions that meet the
accumulator — for a key seen for the first time and for a held one.  The
budget tests at the end count group operations instead of timing them.
"""

import multiprocessing
import os
import random
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.crypto import ecdsa, secp256k1 as ec
from repro.crypto.secp256k1 import (
    CURVE_ORDER,
    FIELD_PRIME,
    GENERATOR,
    INFINITY,
    Point,
    _glv_split,
    _sparse_wnaf,
    dual_scalar_mult,
    multi_scalar_mult,
    scalar_mult,
)
from repro.lru import LRU
from tests.oracles import point_add, scalar_mult_naive

_EDGE_SCALARS = [
    0,
    1,
    2,
    3,
    CURVE_ORDER - 1,
    CURVE_ORDER,
    CURVE_ORDER + 1,
    2 * CURVE_ORDER - 1,
    2**255,
    (1 << 256) - 1,
]


def _seeded_scalars(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        bits = rng.choice([1, 8, 64, 128, 200, 255, 256])
        out.append(rng.getrandbits(bits))
    return out


SCALARS = _EDGE_SCALARS + _seeded_scalars(0xEC0FFEE, 200)

# A few fixed non-generator base points for the arbitrary-point path.
BASE_POINTS = [scalar_mult_naive(k) for k in (7, 0xDEADBEEF, CURVE_ORDER - 2)]


@pytest.mark.parametrize("k", SCALARS)
def test_generator_mult_matches_naive(k):
    assert scalar_mult(k) == scalar_mult_naive(k)


@pytest.mark.parametrize("k", SCALARS[:60])
@pytest.mark.parametrize("base", BASE_POINTS)
def test_arbitrary_point_mult_matches_naive(k, base):
    assert dual_scalar_mult(0, k, base) == scalar_mult_naive(k, base)


def _checked_wnaf(k: int, width: int) -> list[int]:
    """The positions of ``k``'s non-zero w-NAF digits, once the pairs are
    shown to sum to ``k``, odd, below 2^(w−1) and ``width`` apart."""
    pairs = _sparse_wnaf(k, width)
    assert sum(d << i for i, d in pairs) == k
    for _, d in pairs:
        assert d % 2 == 1 and abs(d) < (1 << (width - 1))
    positions = [i for i, _ in pairs]
    for a, b in zip(positions, positions[1:]):
        assert b - a >= width  # non-adjacency
    return positions


@pytest.mark.parametrize("k", SCALARS)
def test_wnaf_recoding_reconstructs_scalar(k):
    for width in (4, 5, 6, 8):
        for signed in (k, -k):
            _checked_wnaf(signed, width)
        negated = [(i, -d) for i, d in _sparse_wnaf(-k, width)]
        assert _sparse_wnaf(k, width) == negated


@pytest.mark.parametrize("k", [k % CURVE_ORDER for k in SCALARS])
def test_glv_split_congruence(k):
    lam = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
    k1, k2 = _glv_split(k)
    assert (k1 + k2 * lam - k) % CURVE_ORDER == 0
    assert abs(k1) < 1 << 128
    assert abs(k2) < 1 << 128


def test_dual_scalar_mult_matches_naive_pairs():
    rng = random.Random(0x5A5A)
    q = scalar_mult_naive(rng.getrandbits(255) | 1)
    for _ in range(100):
        u1 = rng.getrandbits(rng.choice([1, 64, 255, 256]))
        u2 = rng.getrandbits(rng.choice([1, 64, 255, 256]))
        expected = point_add(scalar_mult_naive(u1), scalar_mult_naive(u2, q))
        assert dual_scalar_mult(u1, u2, q) == expected


@pytest.mark.parametrize(
    "u1,u2",
    [
        (0, 0),
        (0, 1),
        (1, 0),
        (CURVE_ORDER, CURVE_ORDER),
        (CURVE_ORDER - 1, CURVE_ORDER - 1),
        (CURVE_ORDER + 5, 3),
    ],
)
def test_dual_scalar_mult_edge_scalars(u1, u2):
    q = scalar_mult_naive(12345)
    expected = point_add(scalar_mult_naive(u1), scalar_mult_naive(u2, q))
    assert dual_scalar_mult(u1, u2, q) == expected


def test_dual_scalar_mult_infinity_q():
    assert dual_scalar_mult(5, 7, INFINITY) == scalar_mult_naive(5)
    assert dual_scalar_mult(0, 7, INFINITY) == INFINITY


def test_dual_scalar_mult_cancellation_to_infinity():
    # u1·G + u2·Q with Q = -G and u1 == u2 cancels to the identity.
    g = GENERATOR
    assert g.y is not None
    neg_g = Point(g.x, (-g.y) % (2**256 - 2**32 - 977))
    assert dual_scalar_mult(9, 9, neg_g).is_infinity


def test_point_table_cache_bounded(monkeypatch):
    monkeypatch.setattr(ec, "_POINT_TABLE_CACHE", LRU(8))
    rng = random.Random(77)
    points = [scalar_mult_naive(rng.getrandbits(200) | 1) for _ in range(12)]
    for p in points:
        assert dual_scalar_mult(0, 3, p) == scalar_mult_naive(3, p)
    assert len(ec._POINT_TABLE_CACHE) <= 8
    # Cached and uncached paths agree.
    for p in points:
        assert dual_scalar_mult(0, 99, p) == scalar_mult_naive(99, p)


# ----------------------------------------------------------------------
# The generator comb: one row per byte of a GLV half
# ----------------------------------------------------------------------

_N = CURVE_ORDER


def _glv_corners() -> list[int]:
    """Scalars whose halves sit at the edge of what Babai rounding leaves:
    ±(a1 ± a2)/2 and ±(|b1| ± b2)/2, every sign pattern, a step inside."""
    out = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            k1 = (s1 * ec._GLV_A1 + s2 * ec._GLV_A2) // 2
            k2 = (-s1 * ec._GLV_B1 + s2 * ec._GLV_A1) // 2
            for nudge in (-3, 0, 3):
                out.append((k1 + nudge + (k2 - nudge) * ec._LAMBDA) % _N)
    return out


_WINDOW_SCALARS = sorted(
    {(1 << (8 * i)) + e for i in range(33) for e in (-1, 0, 1)}
    | {(1 << (8 * i)) - 1 for i in range(1, 33)}  # i bytes of 0xFF
    | {b << (8 * i) for i in range(32) for b in (0x01, 0x80, 0xFF)}
    | {_N - 1, _N - 2, (_N - 1) // 2, (_N + 1) // 2}
    | {ec._LAMBDA, _N - ec._LAMBDA, ec._LAMBDA + 1, (ec._LAMBDA << 8) % _N}
    | set(_glv_corners())
)


@pytest.mark.parametrize("k", _WINDOW_SCALARS)
def test_generator_comb_on_window_boundaries(k):
    assert scalar_mult(k) == scalar_mult_naive(k)


def test_window_scalars_cover_every_shape_of_half():
    """The list above is only as good as the halves it produces: negative
    and positive ones, a 128-bit one (the widest there is — the comb has
    no row for a 17th byte) and a half that is zero."""
    splits = [_glv_split(k % _N) for k in _WINDOW_SCALARS]
    halves = [h for split in splits for h in split]
    signs = {(k1 < 0, k2 < 0) for k1, k2 in splits}
    assert signs == {(False, False), (False, True), (True, False), (True, True)}
    assert max(abs(h).bit_length() for h in halves) == 128
    assert 0 in halves


def test_comb_rows_are_the_multiples_they_claim():
    comb, quarters = ec._gen_tables()
    assert len(comb) == ec._COMB_WINDOWS and {len(row) for row in comb} == {255}
    for i in (0, 1, 7, 15):
        for d in (1, 2, 128, 255):
            want = scalar_mult_naive(d << (8 * i))
            assert comb[i][d - 1] == (want.x, want.y)
    # Cut q holds the odd multiples of 2^(16q)·G: comb row 2q's own
    # entries, no λ-image beside them.
    assert len(quarters) == 8
    for q, odd in enumerate(quarters):
        assert len(odd) == 64
        for j in (0, 1, 63):
            want = scalar_mult_naive((2 * j + 1) << (16 * q))
            assert odd[j] == (want.x, want.y)
            assert odd[j] is comb[2 * q][2 * j]


# ----------------------------------------------------------------------
# The one ladder, against the naive oracle
# ----------------------------------------------------------------------

_scalars = st.one_of(
    st.integers(min_value=0, max_value=2**256 - 1),
    st.integers(min_value=0, max_value=2**16),
    st.sampled_from(_EDGE_SCALARS + _glv_corners()),
)
_points = st.integers(min_value=1, max_value=_N - 1).map(scalar_mult_naive)


@given(_scalars, _points)
@settings(max_examples=40, deadline=None)
def test_ladder_single_matches_naive(k, base):
    assert dual_scalar_mult(0, k, base) == scalar_mult_naive(k, base)


@given(_scalars, _scalars, _points)
@settings(max_examples=40, deadline=None)
def test_ladder_dual_matches_naive(u1, u2, q):
    want = point_add(scalar_mult_naive(u1), scalar_mult_naive(u2, q))
    assert dual_scalar_mult(u1, u2, q) == want


@given(st.lists(st.tuples(_scalars, st.one_of(_points, st.just(GENERATOR))),
                max_size=5))
@settings(max_examples=30, deadline=None)
def test_ladder_multi_matches_naive(terms):
    want = INFINITY
    for k, point in terms:
        want = point_add(want, scalar_mult_naive(k, point))
    ec._POINT_TABLE_CACHE.clear()  # the uncached, jointly normalised tables
    assert multi_scalar_mult(terms) == want
    for _, point in terms[:2]:  # …beside cached ones
        if point != GENERATOR:
            dual_scalar_mult(0, 3, point)
    assert multi_scalar_mult(terms) == want
    for _, point in terms:  # …and all held
        if point != GENERATOR:
            _hold(point)
    assert multi_scalar_mult(terms) == want


def _neg(point: Point) -> Point:
    return Point(point.x, FIELD_PRIME - point.y)


_LAMBDA_G = scalar_mult_naive(ec._LAMBDA)


@pytest.mark.parametrize(
    "u1,u2,q,want",
    [
        # The inlined addition meets its own accumulator: same x, same y.
        (1, 1, GENERATOR, scalar_mult_naive(2)),
        (5, 5, GENERATOR, scalar_mult_naive(10)),
        (ec._LAMBDA, 1, _LAMBDA_G, scalar_mult_naive(2 * ec._LAMBDA)),
        # …and its negation: same x, opposite y.
        (1, 1, _neg(GENERATOR), INFINITY),
        (ec._LAMBDA, 1, _neg(_LAMBDA_G), INFINITY),
        (ec._LAMBDA, _N - 1, _LAMBDA_G, INFINITY),
        # u1·G = −u2·Q with nothing special about the digits.
        (_N - 77 * 1234567, 77, scalar_mult_naive(1234567), INFINITY),
        # The accumulator cancels at the top digit and the ladder goes on.
        ((1 << 40) + 1, 1 << 40, _neg(GENERATOR), GENERATOR),
        ((1 << 100) + 9, 1 << 100, _neg(GENERATOR), scalar_mult_naive(9)),
    ],
)
def test_ladder_edges_where_addend_meets_accumulator(
    u1, u2, q, want, monkeypatch
):
    rare = []
    madd = ec._jacobian_madd
    monkeypatch.setattr(
        ec, "_jacobian_madd", lambda acc, pt: rare.append(pt) or madd(acc, pt)
    )
    assert dual_scalar_mult(u1, u2, q) == want
    assert rare, "the ladder's equal-x branch was not reached"
    assert multi_scalar_mult([(u2, q), (u1, GENERATOR)]) == want


def test_ladder_passes_through_infinity_mid_way():
    """Driven directly: +G and −G in the top bucket, then more addends."""
    g, three_g = (ec._GX, ec._GY), ec._gen_tables()[1][0][1]
    minus_g = (ec._GX, FIELD_PRIME - ec._GY)
    buckets = [[three_g], [], [], [], [], [], [g, minus_g]]
    assert ec._from_jacobian(ec._ladder(buckets)) == scalar_mult_naive(3)
    assert ec._ladder([]) == (0, 0, 0)
    assert ec._ladder([[], [], []])[2] == 0


# ----------------------------------------------------------------------
# Held keys: eight cut tables from a key's second sight on
# ----------------------------------------------------------------------


def _forget(point: Point) -> Point:
    """Drop ``point``'s tables: its next use is its first sight."""
    ec._POINT_TABLE_CACHE.pop((point.x, point.y))
    return point


def _hold(point: Point) -> Point:
    """Show ``point`` twice, so that its tables are all eight cuts."""
    _forget(point)
    ec._point_wnaf_tables(point)
    ec._point_wnaf_tables(point)
    assert len(ec._POINT_TABLE_CACHE.get((point.x, point.y))) == ec._QUARTERS
    return point


_SIGHT = {"first-sight": _forget, "held": _hold}


def _naive_verify(public: Point, digest: bytes, sig: ecdsa.Signature) -> bool:
    """The ECDSA equation x(u1·G + u2·Q) ≡ r (mod n) on the naive ladder."""
    r, s = sig.r, sig.s
    if not (1 <= r < _N and 1 <= s < _N) or public.is_infinity:
        return False
    z = int.from_bytes(digest, "big") % _N
    w = pow(s, -1, _N)
    point = point_add(
        scalar_mult_naive(z * w), scalar_mult_naive(r * w, public)
    )
    return not point.is_infinity and point.x % _N == r


@pytest.mark.parametrize("sight", list(_SIGHT))
@given(_scalars, _scalars, _points)
@settings(max_examples=20, deadline=None)
def test_quarters_dual_and_single_match_naive(sight, u1, u2, q):
    want = point_add(scalar_mult_naive(u1), scalar_mult_naive(u2, q))
    assert dual_scalar_mult(u1, u2, _SIGHT[sight](q)) == want
    assert dual_scalar_mult(0, u2, _SIGHT[sight](q)) == scalar_mult_naive(u2, q)


@pytest.mark.parametrize("sight", list(_SIGHT))
@given(
    st.integers(min_value=1, max_value=_N - 1),
    st.binary(min_size=32, max_size=32),
    st.sampled_from(["intact", "r", "s", "key"]),
)
@settings(max_examples=15, deadline=None)
def test_quarters_verify_matches_naive(sight, secret, digest, tamper):
    sig = ecdsa.sign(secret, digest)
    public = scalar_mult_naive(secret)
    if tamper == "r":
        sig = ecdsa.Signature(sig.r % (_N - 1) + 1, sig.s)
    elif tamper == "s":
        sig = ecdsa.Signature(sig.r, sig.s % (_N - 1) + 1)
    elif tamper == "key":
        public = scalar_mult_naive(secret % (_N - 1) + 1)
    want = _naive_verify(public, digest, sig)
    assert want == (tamper == "intact")
    ecdsa.clear_parity_hints()
    assert ecdsa.verify(_SIGHT[sight](public), digest, sig) is want


# Scalars whose GLV halves put a non-zero w-NAF digit on either side of
# each cut (15/16, 31/32, …, 111/112) and on position 128, the one the
# last cut takes beyond its 16: 33·2¹²² recodes at width 6 to
# −31·2¹²² + 2¹²⁸, 129·2¹²⁰ at width 8 to −127·2¹²⁰ + 2¹²⁸.  The last
# three sets are the scalars of the four 32-bit quarters at width 5, kept.
_CUT_POSITIONS = tuple(
    p for cut in range(16, 128, 16) for p in (cut - 1, cut)
) + (128,)
_CUT_SCALARS = sorted(
    {sign * (1 << p) % _N for p in _CUT_POSITIONS[:-1] for sign in (1, -1)}
    | {(1 << p) * ec._LAMBDA % _N for p in _CUT_POSITIONS[:-1]}
    | {sign * (33 << 122) % _N for sign in (1, -1)}
    | {sign * (129 << 120) % _N for sign in (1, -1)}
    | {sum(1 << p for p in _CUT_POSITIONS[:-1:2]) % _N}  # 15, 31, … at once
    | {sum(1 << p for p in range(16, 128, 16)) + (33 << 122)}
    | {sign * (17 << 123) % _N for sign in (1, -1)}
    | {sum(1 << p for p in (31, 63, 95)) % _N}
    | {(1 << 32) + (1 << 64) + (1 << 96) + (17 << 123)}
)


def test_cut_scalars_put_digits_on_every_cut():
    for width in (ec._WNAF_WIDTH, ec._GEN_WNAF_WIDTH):
        reached = set()
        for k in _CUT_SCALARS:
            for half in ec._glv_split(k):
                positions = _checked_wnaf(half, width)
                reached |= set(positions) & set(_CUT_POSITIONS)
        assert reached == set(_CUT_POSITIONS), width


@pytest.mark.parametrize("sight", list(_SIGHT))
@pytest.mark.parametrize("k", _CUT_SCALARS)
def test_digits_on_the_cuts(k, sight):
    q = BASE_POINTS[1]
    want = scalar_mult_naive(k, q)
    assert dual_scalar_mult(0, k, _SIGHT[sight](q)) == want
    assert dual_scalar_mult(k, k, _SIGHT[sight](q)) == point_add(
        scalar_mult_naive(k), want
    )
    assert dual_scalar_mult(k, 0, q) == scalar_mult_naive(k)


_SPECIAL = [0, 1, _N - 1, ec._LAMBDA, 1 << 32, (1 << 64) - 1, (1 << 128) - 1]


@pytest.mark.parametrize("sight", list(_SIGHT))
def test_special_scalar_pairs(sight):
    q = BASE_POINTS[2]
    naive_q = {u: scalar_mult_naive(u, q) for u in _SPECIAL}
    for u1 in _SPECIAL:
        for u2 in _SPECIAL:
            want = point_add(scalar_mult_naive(u1), naive_q[u2])
            assert dual_scalar_mult(u1, u2, _SIGHT[sight](q)) == want, (u1, u2)


@pytest.mark.parametrize("sight", list(_SIGHT))
@pytest.mark.parametrize(
    "u1,u2,q,want",
    [
        # Q = G, −G and λG, one digit in one cut of each scalar: the
        # Q stream's addend equals or negates the G stream's, which is the
        # whole accumulator, whether the key is seen once or held.
        (1, 1, GENERATOR, scalar_mult_naive(2)),
        (1 << 32, 1 << 32, GENERATOR, scalar_mult_naive(1 << 33)),
        (5 << 96, 5 << 96, GENERATOR, scalar_mult_naive(10 << 96)),
        (1 << 64, 1 << 64, _neg(GENERATOR), INFINITY),
        (ec._LAMBDA, 1, _LAMBDA_G, scalar_mult_naive(2 * ec._LAMBDA)),
        (ec._LAMBDA << 32, 1 << 32, _neg(_LAMBDA_G), INFINITY),
    ],
)
def test_quarters_where_addend_meets_accumulator(
    u1, u2, q, want, sight, monkeypatch
):
    rare = []
    madd = ec._jacobian_madd
    monkeypatch.setattr(
        ec, "_jacobian_madd", lambda acc, pt: rare.append(pt) or madd(acc, pt)
    )
    assert dual_scalar_mult(u1, u2, _SIGHT[sight](q)) == want
    assert rare, "the ladder's equal-x branch was not reached"


def test_an_evicted_key_comes_back_at_first_sight(monkeypatch):
    monkeypatch.setattr(ec, "_POINT_TABLE_CACHE", LRU(4))
    key = _hold(BASE_POINTS[0])
    for i in range(4):
        ec._point_wnaf_tables(scalar_mult(1000 + i))
    assert (key.x, key.y) not in ec._POINT_TABLE_CACHE
    assert len(ec._point_wnaf_tables(key)) == 1
    assert dual_scalar_mult(0, 77, key) == scalar_mult_naive(77, key)
    assert len(ec._POINT_TABLE_CACHE.get((key.x, key.y))) == ec._QUARTERS


def test_a_hot_key_outlives_256_single_use_keys(monkeypatch):
    """Least recently used goes first: with first-in-first-out the hot
    key, inserted before all of them, would be the one dropped."""
    capacity = ec._POINT_TABLE_CACHE.capacity
    monkeypatch.setattr(ec, "_POINT_TABLE_CACHE", LRU(capacity))
    saved = obs.set_registry(obs.Registry())
    monkeypatch.setattr(obs, "ENABLED", True)
    try:
        hot = _hold(BASE_POINTS[0])
        held = ec._POINT_TABLE_CACHE.get((hot.x, hot.y))
        for i in range(capacity):
            ec._point_wnaf_tables(scalar_mult(5000 + i))
            assert ec._point_wnaf_tables(hot) is held
        builds = obs.registry().counter("ecmult.point_table_builds_total").value
    finally:
        obs.set_registry(saved)
    assert len(ec._POINT_TABLE_CACHE) == capacity == 256
    assert builds == 2 + capacity


def test_a_promotion_is_one_table_build(monkeypatch):
    monkeypatch.setattr(ec, "_POINT_TABLE_CACHE", LRU(256))
    saved = obs.set_registry(obs.Registry())
    monkeypatch.setattr(obs, "ENABLED", True)
    key = BASE_POINTS[1]
    counts = []
    try:
        for _ in range(4):
            ec._point_wnaf_tables(key)
            counts.append(
                (
                    obs.registry().counter("ecmult.point_table_builds_total").value,
                    len(ec._POINT_TABLE_CACHE.get((key.x, key.y))),
                )
            )
    finally:
        obs.set_registry(saved)
    assert counts == [(1, 1), (2, 8), (2, 8), (2, 8)]
    # The promoted entry keeps its first cut and adds 2^(16j)·P's; the
    # λ-image of an entry is (β·x, y), taken at use.
    quarters = ec._POINT_TABLE_CACHE.get((key.x, key.y))
    for j, odd in enumerate(quarters):
        assert len(odd) == 16
        for m in (0, 15):
            want = scalar_mult_naive((2 * m + 1) << (16 * j), key)
            assert odd[m] == (want.x, want.y)
            want = scalar_mult_naive(((2 * m + 1) << (16 * j)) * ec._LAMBDA, key)
            x, y = odd[m]
            assert (ec._BETA * x % FIELD_PRIME, y) == (want.x, want.y)


# ----------------------------------------------------------------------
# Concurrency: the service's requests verify from several threads at once
# ----------------------------------------------------------------------


def _race(work, items, threads: int = 8) -> list[Exception]:
    """Run ``work`` on every item from ``threads`` threads at once, each
    starting at another offset; what they raised."""
    raised: list[Exception] = []

    def run(offset: int) -> None:
        try:
            for item in items[offset:] + items[:offset]:
                work(item)
        except Exception as exc:
            raised.append(exc)

    pool = [
        threading.Thread(target=run, args=(i * len(items) // threads,))
        for i in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in pool)
    return raised


@pytest.fixture
def fast_switching():
    """Threads switch every microsecond, so that a race shows."""
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(saved)


@pytest.mark.parametrize(
    "capacity, keys, switching",
    [(2, 16, True), (256, 300, False)],
    ids=["capacity-2", "capacity-256"],
)
def test_point_tables_under_concurrent_sights(
    capacity, keys, switching, monkeypatch, request
):
    """Eight threads showing more keys than the cache holds: nothing
    raises, the bound holds, and no point is multiplied with another
    point's table."""
    if switching:
        request.getfixturevalue("fast_switching")
    points = [scalar_mult(7000 + i) for i in range(keys)]
    want = {(p.x, p.y): scalar_mult_naive(3, p) for p in points[:16]}
    monkeypatch.setattr(ec, "_POINT_TABLE_CACHE", LRU(capacity))

    def sight(p: Point) -> None:
        ec._point_wnaf_tables(p)
        if (p.x, p.y) in want:
            assert multi_scalar_mult([(3, p)]) == want[(p.x, p.y)]

    assert _race(sight, points) == []
    assert len(ec._POINT_TABLE_CACHE) <= capacity


def test_parity_hints_under_concurrent_verifies(monkeypatch, fast_switching):
    rng = random.Random(0x5EED)
    signed = []
    for _ in range(32):
        secret = rng.randrange(1, CURVE_ORDER)
        digest = rng.randbytes(32)
        signed.append(
            (scalar_mult(secret), digest, ecdsa.sign(secret, digest))
        )
    monkeypatch.setattr(ecdsa, "_PARITY_HINTS", LRU(2))

    def check(triple) -> None:
        assert ecdsa.verify(*triple)

    assert _race(check, signed) == []
    assert len(ecdsa._PARITY_HINTS) <= 2


def _verify_and_exit(public: Point, digest: bytes, sig) -> None:
    sys.exit(0 if ecdsa.verify(public, digest, sig) else 1)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="only a forked child inherits the parent's locks",
)
def test_a_child_forked_while_a_map_is_locked_can_verify():
    """A worker forked while another thread holds a map's lock inherits
    the lock held; the child gets fresh locks, so its verify finishes."""
    secret, digest = 0xF0F0, b"\x2a" * 32
    public = _hold(scalar_mult(secret))
    sig = ecdsa.sign(secret, digest)
    with ec._POINT_TABLE_CACHE._lock, ecdsa._PARITY_HINTS._lock:
        child = multiprocessing.Process(
            target=_verify_and_exit, args=(public, digest, sig)
        )
        child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child deadlocked on an inherited lock")
    assert child.exitcode == 0


# ----------------------------------------------------------------------
# Inverses: zero has none
# ----------------------------------------------------------------------


def test_batch_to_affine_refuses_the_identity():
    """One Z = 0 zeroes the shared product: the Fermat inverse answered
    (0, 0) for every point of the table instead of failing."""
    jacs = [ec._jacobian_double((ec._GX, ec._GY, 1)), (ec._GX, ec._GY, 1)]
    two_g = scalar_mult_naive(2)
    assert ec._batch_to_affine(jacs) == [(two_g.x, two_g.y), (ec._GX, ec._GY)]
    assert ec._batch_to_affine([]) == []
    for position in range(3):
        with pytest.raises(ValueError, match="point at infinity"):
            ec._batch_to_affine(jacs[:position] + [(0, 0, 0)] + jacs[position:])


def test_point_add_special_cases_stay_exact():
    p3 = scalar_mult_naive(3)
    assert point_add(p3, _neg(p3)) is INFINITY
    assert point_add(p3, p3) == scalar_mult_naive(6)
    assert point_add(p3, INFINITY) is p3 and point_add(INFINITY, p3) is p3
    assert point_add(INFINITY, INFINITY) is INFINITY
    assert point_add(p3, GENERATOR) == scalar_mult_naive(4)
    assert ec._from_jacobian((0, 0, 0)) is INFINITY
    assert ec._from_jacobian((5, 0, 0)) is INFINITY


# ----------------------------------------------------------------------
# Budgets: group operations counted, not timed
# ----------------------------------------------------------------------


def test_importing_the_curve_builds_no_table():
    code = (
        "import repro.crypto.ecdsa, repro.crypto.keys;"
        "from repro.crypto import secp256k1 as ec;"
        "assert ec._GEN_TABLES is None and not ec._POINT_TABLE_CACHE;"
        "ec.scalar_mult(2); assert ec._GEN_TABLES is not None"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_generator_table_is_built_once_and_stays_small(monkeypatch):
    saved = obs.set_registry(obs.Registry())
    monkeypatch.setattr(obs, "ENABLED", True)
    monkeypatch.setattr(ec, "_GEN_TABLES", None)
    try:
        public = scalar_mult(99)
        for i in range(3):
            digest = bytes([i]) * 32
            assert ecdsa.verify(public, digest, ecdsa.sign(99, digest))
        multi_scalar_mult([(5, GENERATOR), (7, public)])
        builds = obs.registry().counter("ecmult.table_builds_total").value
        comb, quarters = ec._gen_tables()
    finally:
        obs.set_registry(saved)
    assert builds == 1
    # The cuts' entries are the comb's own: nothing is stored beside it.
    distinct = {id(pt) for row in comb for pt in row}
    distinct |= {id(pt) for table in quarters for pt in table}
    assert len(distinct) == 255 * 16


def _budget_scalars() -> list[int]:
    rng = random.Random(0xB0D6E7)
    return [rng.randrange(1, _N) for _ in range(1000)]


def test_generator_multiplication_addition_budget(monkeypatch):
    """At most one mixed addition per byte of the two halves, counted on
    the real code; the totals repeat exactly from run to run."""
    calls = []
    madd = ec._jacobian_madd

    def counting(acc, point):
        calls.append(point)
        return madd(acc, point)

    monkeypatch.setattr(ec, "_jacobian_madd", counting)
    worst = total = 0
    for k in _budget_scalars():
        calls.clear()
        ec._gen_mult_jacobian(k)
        worst = max(worst, len(calls))
        total += len(calls)
    assert worst == 32 <= 34
    assert total == 31_870  # 31.87 a multiplication


def _ladder_budget(monkeypatch, held: bool) -> tuple[int, int, int]:
    """Worst doublings, worst and total additions of the ladders that
    ``dual_scalar_mult`` hands its buckets to, over the seeded pairs —
    from the buckets alone: the ladder doubles once per bucket below the
    top one and adds once per addend."""
    ladders = []
    monkeypatch.setattr(
        ec, "_ladder", lambda buckets: ladders.append(buckets) or (0, 0, 0)
    )
    scalars = _budget_scalars()
    public = scalar_mult_naive(0xC0FFEE)
    worst_doublings = worst_additions = total_additions = 0
    _hold(public) if held else _forget(public)
    for u1, u2 in zip(scalars, reversed(scalars)):
        if not held:
            _forget(public)
        dual_scalar_mult(u1, u2, public)
        buckets = ladders.pop()
        additions = sum(len(bucket) for bucket in buckets)
        worst_doublings = max(worst_doublings, len(buckets) - 1)
        worst_additions = max(worst_additions, additions)
        total_additions += additions
    return worst_doublings, worst_additions, total_additions


def test_verification_ladder_budget(monkeypatch):
    """A key's first sight: one cut each side, the long ladder."""
    worst_doublings, worst_additions, total_additions = _ladder_budget(
        monkeypatch, held=False
    )
    assert worst_doublings == 128 <= 130
    assert worst_additions == 72
    assert total_additions == 66_346  # 66.3 a verification


def test_verification_ladder_budget_for_a_held_key(monkeypatch):
    """A held key: eight cuts each side, an eighth of the doublings and
    the very same additions."""
    worst_doublings, worst_additions, total_additions = _ladder_budget(
        monkeypatch, held=True
    )
    assert worst_doublings == 16
    assert worst_additions == 72
    assert total_additions == 66_346
