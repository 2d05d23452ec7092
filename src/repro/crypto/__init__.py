"""Cryptographic substrate for the Typecoin reproduction.

This package provides everything Bitcoin-shaped systems need and nothing
more: SHA-256 (single and double), RIPEMD-160 (pure Python, with an OpenSSL
fast path), HASH160, secp256k1 ECDSA with RFC-6979 deterministic
nonces, and Bitcoin-style Merkle trees.

All functions are deterministic; nothing here reads the clock or the OS
entropy pool.
"""

from repro.crypto.hashing import sha256, sha256d, ripemd160, hash160
from repro.crypto.secp256k1 import (
    CURVE_ORDER,
    FIELD_PRIME,
    GENERATOR,
    Point,
    scalar_mult,
)
from repro.crypto.ecdsa import Signature, sign, verify, deterministic_nonce
from repro.crypto.keys import PrivateKey, PublicKey
from repro.crypto.merkle import merkle_root

__all__ = [
    "sha256",
    "sha256d",
    "ripemd160",
    "hash160",
    "CURVE_ORDER",
    "FIELD_PRIME",
    "GENERATOR",
    "Point",
    "scalar_mult",
    "Signature",
    "sign",
    "verify",
    "deterministic_nonce",
    "PrivateKey",
    "PublicKey",
    "merkle_root",
]
