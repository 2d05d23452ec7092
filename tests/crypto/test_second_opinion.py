"""The curve against OpenSSL: a second opinion from outside the repository.

Every other test of ``repro.crypto`` compares it with this repository's
own arithmetic (``tests/oracles.scalar_mult_naive`` / ``point_add``, over
the same constants), so a wrong constant shared by both would pass them
all.  Here the installed ``cryptography`` package (OpenSSL) judges, on
seeded fresh keys:

* ``ecdsa.verify``'s verdict on each key's honest signature and five
  altered ones — the high-s twin ``n − s`` (accepted by both: low-s is a
  signing rule, not a verification rule), ``s + 1``, a random ``r``, and
  ``s + n`` / ``r + n`` (the same residues, out of range).  Each key is
  asked at first sight (one cut of its table) and again held (eight cuts);
* every signature ``ecdsa.sign`` makes;
* the public key ``PrivateKey.public`` derives from a secret (the
  generator comb, ``scalar_mult(k)``).
"""

import random

import pytest

from repro.crypto import ecdsa, secp256k1 as ec
from repro.crypto.ecdsa import Signature
from repro.crypto.keys import PrivateKey
from tests.crypto.test_ecmult import _SIGHT
from tests.oracles import openssl_public, openssl_verify

N = ec.CURVE_ORDER
KEYS = 15


def _keys(seed: int):
    """``(secret, digest)`` pairs, drawn afresh from ``seed``."""
    rng = random.Random(seed)
    return [
        (rng.randrange(1, N), rng.getrandbits(256).to_bytes(32, "big"))
        for _ in range(KEYS)
    ]


def _altered(sig: Signature, rng: random.Random) -> dict[str, Signature]:
    r, s = sig.r, sig.s
    return {
        "honest": sig,
        "n - s": Signature(r, N - s),
        "s + 1": Signature(r, s + 1),
        "random r": Signature(rng.randrange(1, N), s),
        "s + n": Signature(r, s + N),
        "r + n": Signature(r + N, s),
    }


@pytest.mark.parametrize("sight", list(_SIGHT))
def test_verify_gives_openssls_verdict(sight):
    rng = random.Random(28)
    verdicts = []
    for secret, digest in _keys(20150613):
        public = PrivateKey(secret).public.point
        for what, sig in _altered(ecdsa.sign(secret, digest), rng).items():
            _SIGHT[sight](public)
            ours = ecdsa.verify(public, digest, sig)
            assert ours is openssl_verify(public, digest, sig), (secret, what)
            verdicts.append((what, ours))
    # Neither side is vacuous: both twins verify, every other change fails.
    assert {(what, ok) for what, ok in verdicts} == {
        ("honest", True), ("n - s", True), ("s + 1", False),
        ("random r", False), ("s + n", False), ("r + n", False),
    }


def test_every_signature_verifies_under_openssl():
    rng = random.Random(7)
    for secret, digest in _keys(6979):
        for message in (digest, rng.getrandbits(256).to_bytes(32, "big")):
            sig = ecdsa.sign(secret, message)
            assert sig.s <= N // 2  # low-s, as Bitcoin requires
            assert openssl_verify(openssl_public(secret), message, sig)


def test_public_key_is_openssls():
    edges = [1, 2, 3, N - 1, N - 2, 1 << 128, (1 << 128) - 1, 0xC0FFEE]
    for secret in edges + [secret for secret, _ in _keys(40)]:
        assert PrivateKey(secret).public.point == openssl_public(secret), secret
