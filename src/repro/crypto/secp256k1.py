"""secp256k1 elliptic-curve group operations.

Bitcoin signatures live on the Koblitz curve y² = x³ + 7 over the prime field
GF(p) with p = 2²⁵⁶ − 2³² − 977.  This module implements affine point
arithmetic with a Jacobian fast path for scalar multiplication; it is pure
Python and deterministic.

Scalar multiplication is the hot path of the whole reproduction (rule 4 of
paper §2 runs two of them per signature), so three layered accelerations
live here:

* **w-NAF** — scalars are recoded into width-w non-adjacent form, cutting
  the additions per multiplication from ~128 to ~n/(w+1) against a small
  table of odd multiples of the base point;
* **fixed-window generator tables** — multiples ``d·16^i·G`` are
  precomputed once per process, so generator multiplications (signing,
  the ``u1·G`` half of verification) need no doublings at all;
* **Strauss/Shamir** — :func:`dual_scalar_mult` computes ``u1·G + u2·Q``
  in one interleaved pass that shares the doubling ladder between both
  scalars and stays in Jacobian coordinates until a single final field
  inversion.

The naive double-and-add ladder is kept as :func:`scalar_mult_naive`; the
property tests and benchmarks pin the fast paths against it.

Points are immutable; the identity (point at infinity) is represented by the
singleton :data:`INFINITY` whose ``x``/``y`` are ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro import obs

FIELD_PRIME = 2**256 - 2**32 - 977
CURVE_ORDER = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
_B = 7

_GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
_GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

# w-NAF window width for arbitrary points (table built per multiplication)
# and for the generator's shared table (built once per process).
_WNAF_WIDTH = 5
_GEN_WNAF_WIDTH = 8
# Fixed-window width for pure generator multiplications: 64 windows of 4
# bits cover a 256-bit scalar with one mixed addition each, no doublings.
_FIXED_WINDOW = 4


@dataclass(frozen=True)
class Point:
    """A point on secp256k1, or the identity when both coordinates are None."""

    x: int | None
    y: int | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __post_init__(self) -> None:
        if self.x is None:
            return
        assert self.y is not None
        if (self.y * self.y - (self.x**3 + _B)) % FIELD_PRIME != 0:
            raise ValueError("point is not on secp256k1")

    def encode(self, compressed: bool = True) -> bytes:
        """SEC1 encoding (33 bytes compressed, 65 uncompressed)."""
        if self.is_infinity:
            raise ValueError("cannot encode the point at infinity")
        assert self.x is not None and self.y is not None
        xb = self.x.to_bytes(32, "big")
        if compressed:
            prefix = b"\x03" if self.y % 2 else b"\x02"
            return prefix + xb
        return b"\x04" + xb + self.y.to_bytes(32, "big")

    @staticmethod
    def decode(data: bytes) -> "Point":
        """Decode a SEC1-encoded point."""
        if len(data) == 33 and data[0] in (2, 3):
            point = _decompress(bytes(data))
            if isinstance(point, str):
                raise ValueError(point)
            return point
        if len(data) == 65 and data[0] == 4:
            return Point(
                int.from_bytes(data[1:33], "big"), int.from_bytes(data[33:], "big")
            )
        raise ValueError("malformed SEC1 point encoding")


def _point_unchecked(x: int, y: int) -> Point:
    """Construct a Point without the on-curve assertion.

    Internal results of correct group arithmetic are on the curve by
    construction; paying a field multiplication and a cube per intermediate
    conversion was pure overhead.  Anything crossing the trust boundary
    still goes through the checked constructor (user construction,
    uncompressed ``Point.decode``) or derives ``y`` from the curve equation
    itself (compressed ``Point.decode``, via :func:`lift_x`).
    """
    point = object.__new__(Point)
    object.__setattr__(point, "x", x)
    object.__setattr__(point, "y", y)
    return point


INFINITY = Point(None, None)
GENERATOR = Point(_GX, _GY)


def _inv(a: int) -> int:
    return pow(a, FIELD_PRIME - 2, FIELD_PRIME)


def point_add(p: Point, q: Point) -> Point:
    """Affine point addition (complete: handles identity and doubling)."""
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    assert p.x is not None and p.y is not None
    assert q.x is not None and q.y is not None
    if p.x == q.x:
        if (p.y + q.y) % FIELD_PRIME == 0:
            return INFINITY
        slope = (3 * p.x * p.x) * _inv(2 * p.y) % FIELD_PRIME
    else:
        slope = (q.y - p.y) * _inv(q.x - p.x) % FIELD_PRIME
    x3 = (slope * slope - p.x - q.x) % FIELD_PRIME
    y3 = (slope * (p.x - x3) - p.y) % FIELD_PRIME
    return _point_unchecked(x3, y3)


# --- Jacobian coordinates: (X, Y, Z) with x = X/Z², y = Y/Z³.  Avoids one
# field inversion per addition, which dominates pure-Python run time. ---


def _to_jacobian(p: Point) -> tuple[int, int, int]:
    if p.is_infinity:
        return (0, 0, 0)
    assert p.x is not None and p.y is not None
    return (p.x, p.y, 1)


def _from_jacobian(j: tuple[int, int, int]) -> Point:
    x, y, z = j
    if z == 0:
        return INFINITY
    zinv = pow(z, FIELD_PRIME - 2, FIELD_PRIME)
    zinv2 = (zinv * zinv) % FIELD_PRIME
    return _point_unchecked(
        (x * zinv2) % FIELD_PRIME, (y * zinv2 * zinv) % FIELD_PRIME
    )


def _jacobian_double(j: tuple[int, int, int]) -> tuple[int, int, int]:
    x, y, z = j
    if z == 0 or y == 0:
        return (0, 0, 0)
    p = FIELD_PRIME
    yy = y * y % p
    s = 4 * x * yy % p
    m = 3 * x * x % p  # a = 0 for secp256k1
    x3 = (m * m - 2 * s) % p
    y3 = (m * (s - x3) - 8 * yy * yy) % p
    z3 = 2 * y * z % p
    return (x3, y3, z3)


def _jacobian_add(
    j: tuple[int, int, int], q: tuple[int, int, int]
) -> tuple[int, int, int]:
    if j[2] == 0:
        return q
    if q[2] == 0:
        return j
    x1, y1, z1 = j
    x2, y2, z2 = q
    z1z1 = (z1 * z1) % FIELD_PRIME
    z2z2 = (z2 * z2) % FIELD_PRIME
    u1 = (x1 * z2z2) % FIELD_PRIME
    u2 = (x2 * z1z1) % FIELD_PRIME
    s1 = (y1 * z2 * z2z2) % FIELD_PRIME
    s2 = (y2 * z1 * z1z1) % FIELD_PRIME
    if u1 == u2:
        if s1 != s2:
            return (0, 0, 0)
        return _jacobian_double(j)
    h = (u2 - u1) % FIELD_PRIME
    h2 = (h * h) % FIELD_PRIME
    h3 = (h * h2) % FIELD_PRIME
    r = (s2 - s1) % FIELD_PRIME
    x3 = (r * r - h3 - 2 * u1 * h2) % FIELD_PRIME
    y3 = (r * (u1 * h2 - x3) - s1 * h3) % FIELD_PRIME
    z3 = (h * z1 * z2) % FIELD_PRIME
    return (x3, y3, z3)


def _jacobian_madd(
    j: tuple[int, int, int], a: tuple[int, int]
) -> tuple[int, int, int]:
    """Mixed addition: Jacobian ``j`` plus an *affine* point (Z₂ = 1).

    Saves the Z₂ bookkeeping of the general formula — this is why the
    precomputed tables are batch-normalized to affine coordinates.
    """
    x1, y1, z1 = j
    if z1 == 0:
        return (a[0], a[1], 1)
    p = FIELD_PRIME
    x2, y2 = a
    z1z1 = z1 * z1 % p
    u2 = x2 * z1z1 % p
    s2 = y2 * z1 % p * z1z1 % p
    if u2 == x1:
        if s2 != y1:
            return (0, 0, 0)
        return _jacobian_double(j)
    h = (u2 - x1) % p
    h2 = h * h % p
    h3 = h * h2 % p
    r = (s2 - y1) % p
    x3 = (r * r - h3 - 2 * x1 * h2) % p
    y3 = (r * (x1 * h2 - x3) - y1 * h3) % p
    z3 = h * z1 % p
    return (x3, y3, z3)


def _batch_to_affine(jacs: list[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """Normalize many Jacobian points with ONE field inversion (Montgomery's
    trick): invert the product of the Z's, then peel per-point inverses off
    with multiplications.  Callers guarantee no point is the identity."""
    p = FIELD_PRIME
    prefix: list[int] = []
    acc = 1
    for _, _, z in jacs:
        prefix.append(acc)
        acc = acc * z % p
    inv = pow(acc, p - 2, p)
    out: list[tuple[int, int]] = [(0, 0)] * len(jacs)
    for i in range(len(jacs) - 1, -1, -1):
        x, y, z = jacs[i]
        zinv = inv * prefix[i] % p
        inv = inv * z % p
        zi2 = zinv * zinv % p
        out[i] = (x * zi2 % p, y * zi2 % p * zinv % p)
    return out


def _wnaf(k: int, width: int) -> list[int]:
    """Width-w non-adjacent form, least-significant digit first.

    Digits are zero or odd with ``|d| < 2^(w-1)``; at most one in any
    ``width`` consecutive positions is nonzero, so a 256-bit scalar costs
    ~256/(width+1) table additions.
    """
    naf: list[int] = []
    window = 1 << width
    half = window >> 1
    while k:
        if k & 1:
            d = k & (window - 1)
            if d >= half:
                d -= window
            k -= d
            naf.append(d)
        else:
            naf.append(0)
        k >>= 1
    return naf


def _odd_multiples_affine(p: Point, count: int) -> list[tuple[int, int]]:
    """Affine ``[1P, 3P, 5P, …, (2·count−1)P]`` for w-NAF table lookups."""
    jac = _to_jacobian(p)
    twice = _jacobian_double(jac)
    muls = [jac]
    for _ in range(count - 1):
        muls.append(_jacobian_add(muls[-1], twice))
    return _batch_to_affine(muls)


# Per-point w-NAF tables are cached: building one costs a field inversion
# (~250 multiplications), and real workloads verify many signatures against
# few distinct public keys (a wallet's inputs, a miner's coinbase chain).
_POINT_TABLE_CACHE: dict[tuple[int, int], list[tuple[int, int]]] = {}
_POINT_TABLE_CACHE_MAX = 256


def _point_wnaf_table(p: Point) -> list[tuple[int, int]]:
    """The (cached) odd-multiples table of an arbitrary point."""
    key = (p.x, p.y)  # type: ignore[assignment]
    table = _POINT_TABLE_CACHE.get(key)
    if table is not None:
        return table
    table = _odd_multiples_affine(p, 1 << (_WNAF_WIDTH - 2))
    if len(_POINT_TABLE_CACHE) >= _POINT_TABLE_CACHE_MAX:
        # Drop the oldest insertion (dicts preserve insertion order).
        _POINT_TABLE_CACHE.pop(next(iter(_POINT_TABLE_CACHE)))
    _POINT_TABLE_CACHE[key] = table
    if obs.ENABLED:
        obs.inc("ecmult.point_table_builds_total")
    return table


# --- GLV endomorphism: secp256k1 has an efficiently computable
# endomorphism φ(x, y) = (β·x, y) that acts as multiplication by λ
# (λ³ ≡ 1 mod n, β³ ≡ 1 mod p).  Splitting a 256-bit scalar k into
# k1 + k2·λ with |k1|, |k2| ≈ √n halves the doubling ladder: two
# half-width scalars share 128 doublings instead of one full-width
# scalar needing 256. ---

_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE

# Lattice basis for the decomposition (libsecp256k1's constants):
# both (A1, -B1) and (A2, B2) satisfy a + b·λ ≡ 0 (mod n).
_GLV_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_GLV_B1 = 0xE4437ED6010E88286F547FA90ABFE4C3  # stored negated: b1 = -_GLV_B1
_GLV_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8


def _glv_split(k: int) -> tuple[int, int]:
    """Return (k1, k2) with k ≡ k1 + k2·λ (mod n) and both ≈ 128 bits.

    Babai rounding against the lattice basis; exact bigint arithmetic, so
    the only property relied on is the congruence (asserted by the
    property tests), not any rounding subtlety.
    """
    n = CURVE_ORDER
    c1 = (_GLV_A1 * k + (n >> 1)) // n  # round(b2·k / n), b2 = a1
    c2 = (_GLV_B1 * k + (n >> 1)) // n  # round(-b1·k / n)
    k1 = k - c1 * _GLV_A1 - c2 * _GLV_A2
    k2 = c1 * _GLV_B1 - c2 * _GLV_A1  # -c1·b1 - c2·b2
    return k1, k2


# --- Generator tables, built lazily once per process. ---

_GEN_FIXED: list[list[tuple[int, int]]] | None = None
_GEN_WNAF: list[tuple[int, int]] | None = None
_GEN_LAMBDA_WNAF: list[tuple[int, int]] | None = None


def _gen_fixed_table() -> list[list[tuple[int, int]]]:
    """``table[i][d-1] = d · 16^i · G`` for d in 1..15, i in 0..63."""
    global _GEN_FIXED
    if _GEN_FIXED is None:
        windows = 256 // _FIXED_WINDOW
        digits = (1 << _FIXED_WINDOW) - 1
        flat: list[tuple[int, int, int]] = []
        base = _to_jacobian(GENERATOR)
        for _ in range(windows):
            entry = base
            for _ in range(digits):
                flat.append(entry)
                entry = _jacobian_add(entry, base)
            # base ← 16·base for the next window.
            for _ in range(_FIXED_WINDOW):
                base = _jacobian_double(base)
        affine = _batch_to_affine(flat)
        _GEN_FIXED = [
            affine[w * digits : (w + 1) * digits] for w in range(windows)
        ]
        if obs.ENABLED:
            obs.inc("ecmult.table_builds_total")
    return _GEN_FIXED


def _gen_wnaf_table() -> list[tuple[int, int]]:
    """Odd multiples of G for the Strauss/Shamir interleaved pass."""
    global _GEN_WNAF
    if _GEN_WNAF is None:
        _GEN_WNAF = _odd_multiples_affine(
            GENERATOR, 1 << (_GEN_WNAF_WIDTH - 2)
        )
        if obs.ENABLED:
            obs.inc("ecmult.table_builds_total")
    return _GEN_WNAF


def _gen_lambda_wnaf_table() -> list[tuple[int, int]]:
    """Odd multiples of λ·G: the G table mapped through the endomorphism
    (one field multiplication per entry — no group operations)."""
    global _GEN_LAMBDA_WNAF
    if _GEN_LAMBDA_WNAF is None:
        _GEN_LAMBDA_WNAF = [
            (_BETA * x % FIELD_PRIME, y) for x, y in _gen_wnaf_table()
        ]
        if obs.ENABLED:
            obs.inc("ecmult.table_builds_total")
    return _GEN_LAMBDA_WNAF


def _madd_digit(
    acc: tuple[int, int, int], table: list[tuple[int, int]], digit: int
) -> tuple[int, int, int]:
    """Add ``digit``·(table base) where ``table`` holds odd multiples."""
    if digit > 0:
        return _jacobian_madd(acc, table[digit >> 1])
    x, y = table[(-digit) >> 1]
    return _jacobian_madd(acc, (x, FIELD_PRIME - y))


def _gen_mult_jacobian(k: int) -> tuple[int, int, int]:
    """``k·G`` via the fixed-window table: one mixed add per nonzero
    4-bit window, no doublings."""
    table = _gen_fixed_table()
    acc = (0, 0, 0)
    i = 0
    while k:
        d = k & 15
        if d:
            acc = _jacobian_madd(acc, table[i][d - 1])
        k >>= 4
        i += 1
    return acc


def scalar_mult_naive(k: int, p: Point = GENERATOR) -> Point:
    """Reference double-and-add ladder (the pre-fast-path implementation).

    Kept as the differential baseline: the property tests assert the w-NAF
    and Strauss/Shamir paths agree with it, and the B1 benchmark measures
    the speedup against it.
    """
    k %= CURVE_ORDER
    if k == 0 or p.is_infinity:
        return INFINITY
    result = (0, 0, 0)
    addend = _to_jacobian(p)
    while k:
        if k & 1:
            result = _jacobian_add(result, addend)
        addend = _jacobian_double(addend)
        k >>= 1
    return _from_jacobian(result)


def scalar_mult(k: int, p: Point = GENERATOR) -> Point:
    """Compute k·P — fixed-window for the generator, w-NAF otherwise."""
    k %= CURVE_ORDER
    if k == 0 or p.is_infinity:
        return INFINITY
    prof = None
    if obs.ENABLED:
        obs.inc("ecmult.mults_total")
        prof = obs.PROFILER
        if prof is not None:
            prof.enter("ecmult")
    try:
        if p.x == _GX and p.y == _GY:
            return _from_jacobian(_gen_mult_jacobian(k))
        table = _point_wnaf_table(p)
        naf = _wnaf(k, _WNAF_WIDTH)
        acc = (0, 0, 0)
        for digit in reversed(naf):
            acc = _jacobian_double(acc)
            if digit:
                acc = _madd_digit(acc, table, digit)
        return _from_jacobian(acc)
    finally:
        if prof is not None:
            prof.exit()


def _wnaf_signed(k: int, width: int) -> list[int]:
    """w-NAF of a possibly negative scalar (digits negated for -k)."""
    if k < 0:
        return [-d for d in _wnaf(-k, width)]
    return _wnaf(k, width)


def lift_x(x: int, odd: bool) -> Point | None:
    """The curve point with x-coordinate ``x`` and the requested y-parity.

    Returns ``None`` when no such point exists (x³ + 7 is a quadratic
    non-residue — about half of all field elements).  Batch ECDSA
    verification uses this to reconstruct the full R point from the
    signature's ``r`` scalar, which only transmits ``x(R) mod n``.
    """
    if not 0 <= x < FIELD_PRIME:
        return None
    y_sq = (pow(x, 3, FIELD_PRIME) + _B) % FIELD_PRIME
    y = pow(y_sq, (FIELD_PRIME + 1) // 4, FIELD_PRIME)
    if y * y % FIELD_PRIME != y_sq:
        return None
    if bool(y & 1) != odd:
        y = FIELD_PRIME - y
    return _point_unchecked(x, y)


@lru_cache(maxsize=1024)
def _decompress(data: bytes) -> Point | str:
    """The point a compressed SEC1 encoding names, or why there is none.

    The memo behind :meth:`Point.decode`.  A node meets the same few keys
    on every input it checks (a principal *is* a key), and each meeting
    would otherwise repeat a 256-bit modular square root.  A failure is
    returned rather than raised so that it is memoised too: a Typecoin
    metadata pseudo-key is off-curve half the time and is the first key
    every carrier CHECKMULTISIG offers.  Points are immutable, so sharing
    one is safe.
    """
    prof = obs.PROFILER if obs.ENABLED else None
    if prof is not None:
        prof.enter("ecmult")
    try:
        x = int.from_bytes(data[1:], "big")
        if x >= FIELD_PRIME:
            return "x coordinate out of range"
        point = lift_x(x, odd=data[0] == 3)
        if point is None:
            return "x coordinate has no square root (not on curve)"
        return point
    finally:
        if prof is not None:
            prof.exit()


def dual_scalar_mult(u1: int, u2: int, q: Point) -> Point:
    """``u1·G + u2·Q`` by GLV-split Strauss/Shamir interleaving.

    Both scalars are split through the λ endomorphism into half-width
    halves, so four ~128-bit w-NAF streams share ONE ~128-step doubling
    ladder: the generator halves read the process-wide G / λG tables, the
    ``Q`` halves a small per-call table of odd multiples (its λQ twin
    costs one field multiplication per entry).  Everything stays in
    Jacobian coordinates until the single final inversion — this is the
    primitive ECDSA verification is built on.
    """
    u1 %= CURVE_ORDER
    u2 %= CURVE_ORDER
    if q.is_infinity:
        u2 = 0
    if not u1 and not u2:
        return INFINITY
    prof = None
    if obs.ENABLED:
        obs.inc("ecmult.dual_total")
        prof = obs.PROFILER
        if prof is not None:
            prof.enter("ecmult")
    try:
        streams: list[tuple[list[int], list[tuple[int, int]]]] = []
        if u1:
            k1, k2 = _glv_split(u1)
            if k1:
                streams.append(
                    (_wnaf_signed(k1, _GEN_WNAF_WIDTH), _gen_wnaf_table())
                )
            if k2:
                streams.append(
                    (_wnaf_signed(k2, _GEN_WNAF_WIDTH), _gen_lambda_wnaf_table())
                )
        if u2:
            k1, k2 = _glv_split(u2)
            qtab = _point_wnaf_table(q)
            if k1:
                streams.append((_wnaf_signed(k1, _WNAF_WIDTH), qtab))
            if k2:
                lqtab = [(_BETA * x % FIELD_PRIME, y) for x, y in qtab]
                streams.append((_wnaf_signed(k2, _WNAF_WIDTH), lqtab))

        top = max(len(naf) for naf, _ in streams)
        # Pad every stream to the ladder length so the hot loop is
        # branch-light.
        padded = [
            (naf + [0] * (top - len(naf)), tab) for naf, tab in streams
        ]
        p = FIELD_PRIME
        x, y, z = 0, 0, 0
        for i in range(top - 1, -1, -1):
            if z:
                if y == 0:
                    x, y, z = 0, 0, 0
                else:
                    # Inlined Jacobian doubling: the ladder's innermost step.
                    yy = y * y % p
                    s = 4 * x * yy % p
                    m = 3 * x * x % p
                    x3 = (m * m - 2 * s) % p
                    y3 = (m * (s - x3) - 8 * yy * yy) % p
                    z = 2 * y * z % p
                    x, y = x3, y3
            for naf, tab in padded:
                digit = naf[i]
                if digit:
                    x, y, z = _madd_digit((x, y, z), tab, digit)
        return _from_jacobian((x, y, z))
    finally:
        if prof is not None:
            prof.exit()


def multi_scalar_mult(terms) -> Point:
    """``Σ kᵢ·Pᵢ`` over any number of terms in ONE Strauss/Shamir pass.

    The n-scalar generalization of :func:`dual_scalar_mult`: every scalar
    is GLV-split into two ~128-bit halves, each half becomes a w-NAF
    stream over its point's odd-multiples table, and all streams share a
    single ~128-step doubling ladder.  Generator terms are folded into one
    scalar first (they share the process-wide G / λG tables); tables for
    points not already in the per-point cache are built in Jacobian form
    and normalized together with ONE batched field inversion, so the
    marginal cost of an extra term is additions, not inversions.

    ``terms`` is an iterable of ``(scalar, Point)``; scalars are reduced
    mod n.  Returns :data:`INFINITY` for an empty or all-zero batch.
    """
    gen_k = 0
    by_point: dict[Point, int] = {}
    for k, point in terms:
        k %= CURVE_ORDER
        if k == 0 or point.is_infinity:
            continue
        if point.x == _GX and point.y == _GY:
            gen_k = (gen_k + k) % CURVE_ORDER
        else:
            # Repeated points (one pubkey signing many inputs) fold into a
            # single term: k₁·P + k₂·P = (k₁+k₂)·P.
            by_point[point] = (by_point.get(point, 0) + k) % CURVE_ORDER
    others = [(k, point) for point, k in by_point.items() if k]
    if not gen_k and not others:
        return INFINITY
    prof = None
    if obs.ENABLED:
        obs.inc("ecmult.batch_total")
        obs.inc(
            "ecmult.batch_terms_total", len(others) + (1 if gen_k else 0)
        )
        prof = obs.PROFILER
        if prof is not None:
            prof.enter("ecmult")
    try:
        streams: list[tuple[list[int], list[tuple[int, int]]]] = []
        if gen_k:
            k1, k2 = _glv_split(gen_k)
            if k1:
                streams.append(
                    (_wnaf_signed(k1, _GEN_WNAF_WIDTH), _gen_wnaf_table())
                )
            if k2:
                streams.append(
                    (_wnaf_signed(k2, _GEN_WNAF_WIDTH), _gen_lambda_wnaf_table())
                )
        # Cached tables are reused as-is; tables for new points are built
        # in Jacobian coordinates and normalized together below — the
        # whole batch pays one field inversion, not one per point.
        count = 1 << (_WNAF_WIDTH - 2)
        tables: list[list[tuple[int, int]] | None] = []
        pending: list[tuple[int, int, int]] = []
        for _, point in others:
            cached = _POINT_TABLE_CACHE.get((point.x, point.y))
            if cached is not None:
                tables.append(cached)
                continue
            jac = _to_jacobian(point)
            twice = _jacobian_double(jac)
            muls = [jac]
            for _ in range(count - 1):
                muls.append(_jacobian_add(muls[-1], twice))
            pending.extend(muls)
            tables.append(None)
        if pending:
            affine = _batch_to_affine(pending)
            cursor = 0
            for slot, table in enumerate(tables):
                if table is None:
                    tables[slot] = affine[cursor : cursor + count]
                    cursor += count
        for (k, _), table in zip(others, tables):
            assert table is not None
            k1, k2 = _glv_split(k)
            if k1:
                streams.append((_wnaf_signed(k1, _WNAF_WIDTH), table))
            if k2:
                lam_table = [
                    (_BETA * x % FIELD_PRIME, y) for x, y in table
                ]
                streams.append((_wnaf_signed(k2, _WNAF_WIDTH), lam_table))
        if not streams:
            # Every GLV half reduced to zero (k ≡ 0 splits are filtered
            # above, so this is unreachable in practice — kept for safety).
            return INFINITY
        top = max(len(naf) for naf, _ in streams)
        padded = [
            (naf + [0] * (top - len(naf)), tab) for naf, tab in streams
        ]
        p = FIELD_PRIME
        x, y, z = 0, 0, 0
        for i in range(top - 1, -1, -1):
            if z:
                if y == 0:
                    x, y, z = 0, 0, 0
                else:
                    yy = y * y % p
                    s = 4 * x * yy % p
                    m = 3 * x * x % p
                    x3 = (m * m - 2 * s) % p
                    y3 = (m * (s - x3) - 8 * yy * yy) % p
                    z = 2 * y * z % p
                    x, y = x3, y3
            for naf, tab in padded:
                digit = naf[i]
                if digit:
                    x, y, z = _madd_digit((x, y, z), tab, digit)
        return _from_jacobian((x, y, z))
    finally:
        if prof is not None:
            prof.exit()
