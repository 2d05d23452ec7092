"""ECDSA over secp256k1 with deterministic (RFC-6979) nonces.

Deterministic nonces matter twice over here: they remove the catastrophic
failure mode of nonce reuse, and they make every simulation in this
repository reproducible bit-for-bit.  Signatures are normalized to low-s form
(as Bitcoin requires post-BIP-62) so that a third party cannot malleate a
transaction id by negating s.

Batch verification
------------------

:func:`batch_verify` checks many ``(pubkey, digest, signature)`` triples
with one multi-scalar equation instead of one dual-scalar multiplication
each.  A signature ``(r, s)`` is valid iff ``x(u1·G + u2·Q) ≡ r (mod n)``;
summing ``cᵢ·(u1ᵢ·G + u2ᵢ·Qᵢ − Rᵢ)`` over the batch with random
coefficients ``cᵢ`` collapses all of those checks into one "is the result
the identity" test.  The catch is that ECDSA transmits only ``r = x(R)``,
not R itself — the y-parity is lost (this is why Schnorr/BIP-340 sends the
full nonce point).  We recover it from a **parity-hint table** warmed by
the in-process signer and by every successful serial verification; a
triple with no hint simply takes the serial path (and warms the table for
next time), so batching is never slower than serial for unhinted inputs
and never changes a verdict: any aggregate failure bisects with fresh
coefficients down to per-signature :func:`verify` leaves, which are the
same code path the serial verifier runs.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from repro import obs
from repro.lru import LRU
from repro.crypto.secp256k1 import (
    CURVE_ORDER,
    FIELD_PRIME,
    GENERATOR,
    Point,
    dual_scalar_mult,
    lift_x,
    multi_scalar_mult,
    scalar_mult,
)


@dataclass(frozen=True)
class Signature:
    """An ECDSA signature (r, s) in compact 64-byte form."""

    r: int
    s: int

    def encode(self) -> bytes:
        return self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big")

    @staticmethod
    def decode(data: bytes) -> "Signature":
        if len(data) != 64:
            raise ValueError("compact signature must be 64 bytes")
        return Signature(int.from_bytes(data[:32], "big"), int.from_bytes(data[32:], "big"))


def deterministic_nonce(secret: int, digest: bytes) -> int:
    """RFC-6979 nonce derivation (HMAC-SHA256 variant, no extra entropy)."""
    qlen = 32
    key = b"\x00" * 32
    v = b"\x01" * 32
    x = secret.to_bytes(qlen, "big")
    key = hmac.new(key, v + b"\x00" + x + digest, hashlib.sha256).digest()
    v = hmac.new(key, v, hashlib.sha256).digest()
    key = hmac.new(key, v + b"\x01" + x + digest, hashlib.sha256).digest()
    v = hmac.new(key, v, hashlib.sha256).digest()
    while True:
        v = hmac.new(key, v, hashlib.sha256).digest()
        k = int.from_bytes(v, "big")
        if 1 <= k < CURVE_ORDER:
            return k
        key = hmac.new(key, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(key, v, hashlib.sha256).digest()


def _digest_to_int(digest: bytes) -> int:
    return int.from_bytes(digest, "big") % CURVE_ORDER


# R-point parity hints for batch verification, keyed by (digest, r, s).
# The signer computes R = k·G in full and the serial verifier computes
# u1·G + u2·Q in full, so both know the y-parity that the wire format
# drops; recording it here lets batch_verify reconstruct R with lift_x.
# The table is purely an accelerator — a missing entry routes the triple
# to the serial path, and a wrong entry (key collision) only costs a
# bisection round that ends in the serial path — so verdicts never depend
# on it.  Bounded like the signature cache.
_PARITY_HINTS = LRU(65_536)


def clear_parity_hints() -> None:
    """Drop every recorded R-parity hint (tests exercise the cold path)."""
    _PARITY_HINTS.clear()


def sign(secret: int, digest: bytes) -> Signature:
    """Sign a 32-byte message digest with the scalar ``secret``."""
    if not 1 <= secret < CURVE_ORDER:
        raise ValueError("secret key out of range")
    original_digest = digest
    z = _digest_to_int(digest)
    while True:
        k = deterministic_nonce(secret, digest)
        point = scalar_mult(k)
        assert point.x is not None
        r = point.x % CURVE_ORDER
        if r == 0:
            digest = hashlib.sha256(digest).digest()
            continue
        k_inv = pow(k, -1, CURVE_ORDER)
        s = (k_inv * (z + r * secret)) % CURVE_ORDER
        if s == 0:
            digest = hashlib.sha256(digest).digest()
            continue
        # A verifier reconstructs R as s⁻¹(z + r·x)·G = (s₀/s)·k·G, so
        # normalizing s → n−s negates the effective R and flips its parity.
        assert point.y is not None
        odd = bool(point.y & 1)
        if s > CURVE_ORDER // 2:
            s = CURVE_ORDER - s
            odd = not odd
        _PARITY_HINTS.put((original_digest, r, s), odd)
        return Signature(r, s)


def verify(public: Point, digest: bytes, signature: Signature) -> bool:
    """Verify a signature against a public point and 32-byte digest.

    ``u1·G + u2·Q`` is computed by the Strauss/Shamir dual-scalar primitive:
    one interleaved Jacobian pass with a single final field inversion,
    instead of two independent ladders joined by an affine addition.
    """
    r, s = signature.r, signature.s
    if not (1 <= r < CURVE_ORDER and 1 <= s < CURVE_ORDER):
        return False
    if public.is_infinity:
        return False
    z = _digest_to_int(digest)
    s_inv = pow(s, -1, CURVE_ORDER)
    u1 = (z * s_inv) % CURVE_ORDER
    u2 = (r * s_inv) % CURVE_ORDER
    point = dual_scalar_mult(u1, u2, public)
    if point.is_infinity:
        return False
    assert point.x is not None
    if point.x % CURVE_ORDER != r:
        return False
    # The computed point IS the effective R: remember its parity so a
    # future batch containing this triple can aggregate it.
    assert point.y is not None
    _PARITY_HINTS.put((digest, r, s), bool(point.y & 1))
    return True


# Triples at or below this size verify serially: the aggregate equation
# costs about one dual-scalar multiplication itself, so there is nothing
# left to amortize.
_BATCH_MIN = 2


def _batch_coefficient(salt: bytes, digest: bytes, r: int, s: int) -> int:
    """A deterministic pseudo-random 128-bit odd coefficient for one triple.

    Seeded from the batch salt and the triple itself, so coefficients are
    independent across triples and across bisection levels (the salt
    carries the recursion path) — an adversary cannot craft signatures
    that cancel without solving the discrete log.
    """
    material = hashlib.sha256(
        salt + digest + r.to_bytes(32, "big") + s.to_bytes(32, "big")
    ).digest()
    return int.from_bytes(material[:16], "big") | 1


def batch_verify(
    items: list[tuple[Point, bytes, Signature]], *, seed: int = 0
) -> list[bool]:
    """Verify many ``(public, digest, signature)`` triples at once.

    Returns one verdict per triple, **bit-identical** to calling
    :func:`verify` on each: structurally invalid signatures short-circuit
    exactly as the serial path does, triples without an R-parity hint run
    serially, and any aggregate mismatch bisects (fresh coefficients per
    sub-batch) down to serial leaves — so a single bad signature in a
    block is pinpointed deterministically while the good ones still pass.
    """
    verdicts: list[bool] = [False] * len(items)
    prepared: dict[int, tuple[int, int, Point, Point]] = {}
    aggregable: list[int] = []
    if obs.ENABLED:
        obs.inc("ecmult.batch_verify_total")
        obs.inc("ecmult.batch_verify_sigs_total", len(items))
    for index, (public, digest, signature) in enumerate(items):
        r, s = signature.r, signature.s
        if not (1 <= r < CURVE_ORDER and 1 <= s < CURVE_ORDER):
            continue  # serial verify rejects before any curve work
        if public.is_infinity:
            continue
        hint = _PARITY_HINTS.get((digest, r, s))
        if hint is None or r + CURVE_ORDER < FIELD_PRIME:
            # No recorded parity (or the rare r where x(R) could also be
            # r + n): the serial path settles it and warms the hint table.
            if obs.ENABLED:
                obs.inc("ecmult.batch_unhinted_total")
            verdicts[index] = verify(public, digest, signature)
            continue
        r_point = lift_x(r, odd=hint)
        if r_point is None:
            # No curve point has x = r (and the r + n alias is excluded
            # above): the serial comparison x(P) ≡ r can never hold.
            continue
        z = _digest_to_int(digest)
        s_inv = pow(s, -1, CURVE_ORDER)
        u1 = z * s_inv % CURVE_ORDER
        u2 = r * s_inv % CURVE_ORDER
        prepared[index] = (u1, u2, public, r_point)
        aggregable.append(index)
    if aggregable:
        salt = b"repro.batch/%d" % seed
        _batch_check(items, prepared, aggregable, verdicts, salt)
    return verdicts


def _batch_check(
    items: list[tuple[Point, bytes, Signature]],
    prepared: dict[int, tuple[int, int, Point, Point]],
    indices: list[int],
    verdicts: list[bool],
    salt: bytes,
) -> None:
    """Settle ``indices`` by one aggregate equation, bisecting on failure."""
    if len(indices) < _BATCH_MIN:
        for index in indices:
            public, digest, signature = items[index]
            verdicts[index] = verify(public, digest, signature)
        return
    gen_scalar = 0
    terms: list[tuple[int, Point]] = []
    for index in indices:
        u1, u2, public, r_point = prepared[index]
        _, digest, signature = items[index]
        c = _batch_coefficient(salt, digest, signature.r, signature.s)
        gen_scalar = (gen_scalar + c * u1) % CURVE_ORDER
        terms.append((c * u2 % CURVE_ORDER, public))
        # −c·R enters as (n − c)·R: same group element, positive scalar.
        terms.append((CURVE_ORDER - c, r_point))
    terms.append((gen_scalar, GENERATOR))
    if multi_scalar_mult(terms).is_infinity:
        for index in indices:
            verdicts[index] = True
        return
    # Some triple in this range is bad (or a stale hint pointed at the
    # wrong R half): bisect with a fresh salt so coefficient reuse cannot
    # mask the culprit, ending in serial leaves.
    if obs.ENABLED:
        obs.inc("ecmult.batch_bisect_total")
    mid = len(indices) // 2
    _batch_check(items, prepared, indices[:mid], verdicts, salt + b"/l")
    _batch_check(items, prepared, indices[mid:], verdicts, salt + b"/r")
