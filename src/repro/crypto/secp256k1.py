"""secp256k1 elliptic-curve group operations.

Bitcoin signatures live on the Koblitz curve y² = x³ + 7 over the prime field
GF(p) with p = 2²⁵⁶ − 2³² − 977.  This module implements affine point
arithmetic with a Jacobian fast path for scalar multiplication; it is pure
Python and deterministic.

Scalar multiplication is the hot path of the whole reproduction (rule 4 of
paper §2 runs one per signature made and one per signature checked), so the
kernel is kept at what CPython's bignums cost:

* **Euclid inverses** — every modular inverse is ``pow(x, -1, m)`` (extended
  Euclid, ≈ 8–18 µs) instead of the Fermat power ``pow(x, m − 2, m)``
  (≈ 120–185 µs); zero has no inverse and asking for it is an error;
* **GLV** — the endomorphism φ(x, y) = (β·x, y) acts as multiplication by λ,
  so every scalar splits into two ~128-bit halves;
* **an 8-bit generator comb** — ``d·256^i·G`` for 16 windows of 255 digits
  (4 080 affine points, built once per process on first use), so ``k·G``
  (signing) is one mixed addition per non-zero byte of the two GLV halves —
  at most 32 additions, no doublings; the λ-image of an entry costs one
  ``β·x``;
* **one Strauss/Shamir ladder** — :func:`_ladder` walks any number of
  width-w NAF digit streams down ONE shared doubling chain with the
  doubling and the mixed addition inlined, and stays in Jacobian
  coordinates until a single final inversion.  :func:`scalar_mult` on an
  arbitrary point, :func:`dual_scalar_mult` (ECDSA verification) and
  :func:`multi_scalar_mult` differ only in the streams they hand it;
* **quarter tables for held keys** — a key's table is a list of one or
  four quarters, the odd multiples of 2^(32j)·Q (and their λ-images) for
  j = 0..3.  A GLV half's w-NAF is cut into one stream per quarter, so the
  chain is at most 128 doublings for a key seen once and at most 32 for a
  key seen again (the generator's four quarters are comb rows 0, 4, 8,
  12); the additions are the same digits either way.

The naive double-and-add ladder the fast paths replaced lives on in the
test suite as the differential oracle.

Points are immutable; the identity (point at infinity) is represented by the
singleton :data:`INFINITY` whose ``x``/``y`` are ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro import obs
from repro.lru import LRU

FIELD_PRIME = 2**256 - 2**32 - 977
CURVE_ORDER = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
_B = 7

_GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
_GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

# w-NAF window width for arbitrary points (one cached table per point) and
# for the generator, whose odd multiples are read out of the comb.
_WNAF_WIDTH = 5
_GEN_WNAF_WIDTH = 8
_POINT_TABLE_SIZE = 1 << (_WNAF_WIDTH - 2)  # odd multiples 1P … 15P
# A held key's table covers each 32-bit quarter of a GLV half (the last
# quarter also takes the w-NAF's possible digit at position 128).
_QUARTER_BITS = 32
_QUARTERS = 4
# Generator comb: a GLV half is below 2¹²⁸ (see _glv_split), so 16 byte-wide
# windows cover it.
_COMB_WINDOWS = 16


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
        # Range before equation: x + p satisfies the equation whenever x
        # does, but is another Point with an encoding no decoder accepts.
        if not (0 <= self.x < FIELD_PRIME and 0 <= self.y < FIELD_PRIME):
            raise ValueError("point coordinate out of range")
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
    """The inverse of ``a`` in GF(p), by extended Euclid."""
    if a % FIELD_PRIME == 0:
        raise ValueError("zero has no inverse in the field")
    return pow(a, -1, FIELD_PRIME)


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
    zinv = pow(z, -1, FIELD_PRIME)
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
    with multiplications.  The identity has no affine form, and one Z = 0
    would zero the shared product, so it is refused rather than returned
    as a table of wrong points."""
    p = FIELD_PRIME
    prefix: list[int] = []
    acc = 1
    for _, _, z in jacs:
        prefix.append(acc)
        acc = acc * z % p
    if acc == 0:
        raise ValueError("cannot normalise the point at infinity to affine")
    inv = pow(acc, -1, p)
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


def _wnaf_signed(k: int, width: int) -> list[int]:
    """w-NAF of a possibly negative scalar (digits negated for -k)."""
    if k < 0:
        return [-d for d in _wnaf(-k, width)]
    return _wnaf(k, width)


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
    """Return (k1, k2) with k ≡ k1 + k2·λ (mod n) and both below 2¹²⁸.

    Babai rounding against the lattice basis; exact bigint arithmetic, so
    the congruence holds whatever the rounding does (the property tests
    assert it).  Rounding leaves at most half of each basis vector, so
    |k1| ≤ (a1 + a2)/2 ≈ 0.64·2¹²⁸ and |k2| ≤ (|b1| + b2)/2 ≈ 0.54·2¹²⁸:
    the bound the generator comb's 16 rows rest on.
    """
    n = CURVE_ORDER
    c1 = (_GLV_A1 * k + (n >> 1)) // n  # round(b2·k / n), b2 = a1
    c2 = (_GLV_B1 * k + (n >> 1)) // n  # round(-b1·k / n)
    k1 = k - c1 * _GLV_A1 - c2 * _GLV_A2
    k2 = c1 * _GLV_B1 - c2 * _GLV_A1  # -c1·b1 - c2·b2
    return k1, k2


_Table = list[tuple[int, int]]
# One pair of tables per quarter: the odd multiples of 2^(32j)·P and of
# λ·2^(32j)·P.  One quarter (j = 0) or all four.
_Quarters = list[tuple[_Table, _Table]]


def _with_lambda(table: _Table) -> tuple[_Table, _Table]:
    """``table`` beside the same multiples of λ·P: the endomorphism costs
    one field multiplication per entry and no group operation."""
    return table, [(_BETA * x % FIELD_PRIME, y) for x, y in table]


def _odd_multiples(jac: tuple[int, int, int]) -> list[tuple[int, int, int]]:
    """Jacobian ``[1P, 3P, 5P, …, 15P]``, the digits of a width-5 NAF."""
    twice = _jacobian_double(jac)
    muls = [jac]
    for _ in range(_POINT_TABLE_SIZE - 1):
        muls.append(_jacobian_add(muls[-1], twice))
    return muls


def _quarter_tables(affine: list[tuple[int, int]]) -> _Quarters:
    """Cut consecutive runs of odd multiples into per-quarter table pairs."""
    return [
        _with_lambda(affine[i : i + _POINT_TABLE_SIZE])
        for i in range(0, len(affine), _POINT_TABLE_SIZE)
    ]


def _upper_quarters(p: Point) -> _Quarters:
    """Quarters 1–3 of ``p``: the odd multiples of 2³²·P, 2⁶⁴·P and 2⁹⁶·P,
    normalised together with one inversion."""
    base = _to_jacobian(p)
    jacs: list[tuple[int, int, int]] = []
    for _ in range(_QUARTERS - 1):
        for _ in range(_QUARTER_BITS):
            base = _jacobian_double(base)
        jacs += _odd_multiples(base)
    return _quarter_tables(_batch_to_affine(jacs))


# Per-point w-NAF tables are cached, least recently used evicted first:
# real workloads verify many signatures against few distinct public keys
# (a wallet's inputs, a miner's coinbase chain).  A key's first sight
# builds quarter 0 alone (eight group operations and an inversion), so a
# key used once pays no more than that; its second sight adds quarters
# 1–3 (96 doublings, 24 group operations, one inversion), which the
# 96 doublings every later verification skips repay.
_POINT_TABLE_CACHE = LRU(256)


def _point_wnaf_tables(p: Point) -> _Quarters:
    """The (cached) quarter tables of an arbitrary point: one on its first
    sight, all four from its second on."""
    key = (p.x, p.y)
    quarters = _POINT_TABLE_CACHE.get(key)
    if quarters is not None and len(quarters) == _QUARTERS:
        return quarters
    if quarters is None:
        jacs = _odd_multiples(_to_jacobian(p))
        quarters = _quarter_tables(_batch_to_affine(jacs))
    else:
        quarters = quarters + _upper_quarters(p)
    _POINT_TABLE_CACHE.put(key, quarters)
    if obs.ENABLED:
        obs.inc("ecmult.point_table_builds_total")
    return quarters


# --- The generator's table, built lazily once per process. ---

_GEN_TABLES: tuple[list[_Table], _Quarters] | None = None


def _gen_tables() -> tuple[list[_Table], _Quarters]:
    """``(comb, quarters)`` for the generator.

    ``comb[i][d-1] = d·256^i·G`` for d in 1..255 and i in 0..15: one row per
    byte of a GLV half.  ``quarters`` are the ladder's four quarter tables:
    quarter j's odd multiples of 2^(32j)·G are read out of row 4j, beside
    their λ-images.
    """
    global _GEN_TABLES
    if _GEN_TABLES is None:
        flat: list[tuple[int, int, int]] = []
        base = _to_jacobian(GENERATOR)
        for _ in range(_COMB_WINDOWS):
            entry = base
            for _ in range(255):
                flat.append(entry)
                entry = _jacobian_add(entry, base)
            base = entry  # 256·base, the next row's unit
        affine = _batch_to_affine(flat)
        comb = [affine[i : i + 255] for i in range(0, len(affine), 255)]
        odd = slice(0, 1 << (_GEN_WNAF_WIDTH - 1), 2)  # d = 1, 3, …, 127
        rows = range(0, _COMB_WINDOWS, _QUARTER_BITS // 8)  # 0, 4, 8, 12
        quarters = [_with_lambda(comb[i][odd]) for i in rows]
        _GEN_TABLES = comb, quarters
        if obs.ENABLED:
            obs.inc("ecmult.table_builds_total")
    return _GEN_TABLES


def _gen_mult_jacobian(k: int) -> tuple[int, int, int]:
    """``k·G`` from the comb: one mixed addition per non-zero byte of the
    two GLV halves of ``k`` and no doublings."""
    comb = _gen_tables()[0]
    p = FIELD_PRIME
    acc = (0, 0, 0)
    for half, beta in zip(_glv_split(k), (1, _BETA)):
        digits = abs(half).to_bytes(_COMB_WINDOWS, "little")
        for row, d in zip(comb, digits):
            if d:
                x, y = row[d - 1]
                acc = _jacobian_madd(
                    acc, (x * beta % p, p - y if half < 0 else y)
                )
    return acc


def _glv_streams(
    k: int, quarters: _Quarters, width: int
) -> list[tuple[list[int], _Table]]:
    """The ladder streams of ``k·P``: the w-NAF of each non-zero GLV half
    of ``k``, cut into one stream per quarter table (digits 32j … 32j + 31
    over the odd multiples of 2^(32j)·P or of λ·2^(32j)·P; the last quarter
    takes every digit above)."""
    streams = []
    last = len(quarters) - 1
    for lam, half in enumerate(_glv_split(k)):
        if not half:
            continue
        digits = _wnaf_signed(half, width)
        for j, tables in enumerate(quarters):
            start = j * _QUARTER_BITS
            end = None if j == last else start + _QUARTER_BITS
            part = digits[start:end]
            if part:
                streams.append((part, tables[lam]))
    return streams


def _ladder(streams: list[tuple[list[int], _Table]]) -> tuple[int, int, int]:
    """``Σ (Σᵢ dᵢ·2^i)·P`` over ``(digits, table)`` streams, in Jacobian form.

    The one Strauss/Shamir loop: every stream's digits (least significant
    first, odd or zero) ride the same doubling chain, and a non-zero digit
    ``d`` adds ``table[|d| >> 1]`` — an affine odd multiple of the stream's
    point — negated for ``d < 0``.  Doubling and mixed addition are written
    out because this loop is where a verification's time goes; the
    additions a signature never meets in practice (accumulator equal or
    opposite to the addend) go to :func:`_jacobian_madd`.
    """
    p = FIELD_PRIME
    top = max((len(digits) for digits, _ in streams), default=0)
    padded = [
        (digits + [0] * (top - len(digits)), table) for digits, table in streams
    ]
    x = y = z = 0
    for i in range(top - 1, -1, -1):
        if z:
            z = 2 * y * z % p
            yy = y * y % p
            s = 4 * x * yy % p
            m = 3 * x * x % p  # a = 0 for secp256k1
            x = (m * m - 2 * s) % p
            y = (m * (s - x) - 8 * yy * yy) % p
        for digits, table in padded:
            d = digits[i]
            if not d:
                continue
            if d > 0:
                x2, y2 = table[d >> 1]
            else:
                x2, y2 = table[-d >> 1]
                y2 = p - y2
            if not z:
                x, y, z = x2, y2, 1
                continue
            zz = z * z % p
            h = x2 * zz % p - x
            if not h:
                x, y, z = _jacobian_madd((x, y, z), (x2, y2))
                continue
            r = y2 * z % p * zz % p - y
            h2 = h * h % p
            h3 = h * h2 % p
            v = x * h2 % p
            x = (r * r - h3 - 2 * v) % p
            y = (r * (v - x) - y * h3) % p
            z = h * z % p
    return x, y, z


def scalar_mult(k: int, p: Point = GENERATOR) -> Point:
    """Compute k·P — the comb for the generator, the ladder otherwise."""
    k %= CURVE_ORDER
    if k == 0 or p.is_infinity:
        return INFINITY
    if obs.ENABLED:
        obs.inc("ecmult.mults_total")
    if p.x == _GX and p.y == _GY:
        return _from_jacobian(_gen_mult_jacobian(k))
    streams = _glv_streams(k, _point_wnaf_tables(p), _WNAF_WIDTH)
    return _from_jacobian(_ladder(streams))


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
    x = int.from_bytes(data[1:], "big")
    if x >= FIELD_PRIME:
        return "x coordinate out of range"
    point = lift_x(x, odd=data[0] == 3)
    if point is None:
        return "x coordinate has no square root (not on curve)"
    return point


def dual_scalar_mult(u1: int, u2: int, q: Point) -> Point:
    """``u1·G + u2·Q`` by GLV-split Strauss/Shamir interleaving.

    Both scalars are split through the λ endomorphism into half-width
    halves, and every half's w-NAF rides ONE shared doubling ladder: the
    generator halves read the process-wide G / λG quarters, the ``Q``
    halves the cached quarters of Q and λQ.  The generator is cut into as
    many quarters as ``Q`` has, so a key seen once walks a ~128-step
    ladder with four streams and a held key a ~32-step one with sixteen.
    Everything stays in Jacobian coordinates until the single final
    inversion — this is the primitive ECDSA verification is built on.
    """
    u1 %= CURVE_ORDER
    u2 %= CURVE_ORDER
    if q.is_infinity:
        u2 = 0
    if not u1 and not u2:
        return INFINITY
    if obs.ENABLED:
        obs.inc("ecmult.dual_total")
    quarters = _point_wnaf_tables(q) if u2 else []
    streams: list[tuple[list[int], _Table]] = []
    if u1:
        gen = _gen_tables()[1][: len(quarters) or _QUARTERS]
        streams += _glv_streams(u1, gen, _GEN_WNAF_WIDTH)
    if u2:
        streams += _glv_streams(u2, quarters, _WNAF_WIDTH)
    return _from_jacobian(_ladder(streams))


def multi_scalar_mult(terms) -> Point:
    """``Σ kᵢ·Pᵢ`` over any number of terms in ONE Strauss/Shamir pass.

    The n-scalar generalization of :func:`dual_scalar_mult`: every scalar
    is GLV-split into two ~128-bit halves, each half becomes a w-NAF
    stream over its point's odd-multiples table, and all streams share a
    single doubling ladder.  Generator terms are folded into one scalar
    first (they share the process-wide G / λG tables); tables for points
    not already in the per-point cache are built in Jacobian form (quarter
    0 only) and normalized together with ONE batched field inversion, so
    the marginal cost of an extra term is additions, not inversions.  Every
    term is cut into as many quarters as the term with fewest has: the
    ladder is as long as its longest stream, so cutting the others finer
    would only add streams.

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
    if obs.ENABLED:
        obs.inc("ecmult.batch_total")
        obs.inc(
            "ecmult.batch_terms_total", len(others) + (1 if gen_k else 0)
        )
    # Cached tables are reused as-is; tables for new points are built
    # in Jacobian coordinates and normalized together — the whole batch
    # pays one field inversion, not one per point.
    # Each entry is read once: another thread may evict between two reads.
    held = [_POINT_TABLE_CACHE.get((point.x, point.y)) for _, point in others]
    pending: list[tuple[int, int, int]] = []
    for (_, point), quarters in zip(others, held):
        if quarters is None:
            pending.extend(_odd_multiples(_to_jacobian(point)))
    fresh = iter(_quarter_tables(_batch_to_affine(pending)))
    tabled = [
        (k, quarters or [next(fresh)])
        for (k, _), quarters in zip(others, held)
    ]
    cut = min((len(quarters) for _, quarters in tabled), default=_QUARTERS)
    streams: list[tuple[list[int], _Table]] = []
    if gen_k:
        gen = _gen_tables()[1][:cut]
        streams += _glv_streams(gen_k, gen, _GEN_WNAF_WIDTH)
    for k, quarters in tabled:
        streams += _glv_streams(k, quarters[:cut], _WNAF_WIDTH)
    return _from_jacobian(_ladder(streams))
