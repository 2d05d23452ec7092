"""Key pairs.

A Typecoin *principal* is identified with the HASH160 of a public key
(paper §4: "principal literals K, which we take to be cryptographic hashes of
public keys"), so :meth:`PublicKey.principal` is the bridge between the
crypto layer and the logic layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.crypto.ecdsa import Signature, sign, verify
from repro.crypto.hashing import hash160, sha256
from repro.crypto.secp256k1 import CURVE_ORDER, Point, scalar_mult

@dataclass(frozen=True)
class PublicKey:
    """A secp256k1 public key with Bitcoin-style derived identifiers."""

    point: Point

    @cached_property
    def encoded(self) -> bytes:
        """33-byte compressed SEC1 encoding."""
        return self.point.encode(compressed=True)

    @cached_property
    def key_hash(self) -> bytes:
        """HASH160 of the compressed encoding (20 bytes)."""
        return hash160(self.encoded)

    @property
    def principal(self) -> bytes:
        """The Typecoin principal literal this key denotes (= key hash)."""
        return self.key_hash

    @staticmethod
    def from_bytes(data: bytes) -> "PublicKey":
        return PublicKey(Point.decode(data))

    def verify(self, message: bytes, signature: Signature) -> bool:
        """Verify a signature over the SHA-256 digest of ``message``."""
        return verify(self.point, sha256(message), signature)


@dataclass(frozen=True)
class PrivateKey:
    """A secp256k1 private key (scalar)."""

    secret: int

    def __post_init__(self) -> None:
        if not 1 <= self.secret < CURVE_ORDER:
            raise ValueError("private key scalar out of range")

    @cached_property
    def public(self) -> PublicKey:
        return PublicKey(scalar_mult(self.secret))

    def sign(self, message: bytes) -> Signature:
        """Sign the SHA-256 digest of ``message``."""
        return sign(self.secret, sha256(message))

    def sign_digest(self, digest: bytes) -> Signature:
        """Sign a precomputed 32-byte digest (used for sighash signing)."""
        return sign(self.secret, digest)

    @staticmethod
    def from_seed(seed: bytes) -> "PrivateKey":
        """Derive a key deterministically from a seed (for reproducible tests)."""
        scalar = int.from_bytes(sha256(seed), "big") % (CURVE_ORDER - 1) + 1
        return PrivateKey(scalar)
