"""Tests for Bitcoin-style Merkle trees."""

from repro.crypto.hashing import sha256d
from repro.crypto.merkle import merkle_root


def test_single_leaf_is_root():
    leaf = sha256d(b"only")
    assert merkle_root([leaf]) == leaf


def test_empty_root_is_zero():
    assert merkle_root([]) == b"\x00" * 32


def test_two_leaves():
    a, b = sha256d(b"a"), sha256d(b"b")
    assert merkle_root([a, b]) == sha256d(a + b)


def test_odd_level_duplicates_last():
    a, b, c = (sha256d(x) for x in (b"a", b"b", b"c"))
    expected = sha256d(sha256d(a + b) + sha256d(c + c))
    assert merkle_root([a, b, c]) == expected


def test_root_depends_on_order():
    a, b = sha256d(b"a"), sha256d(b"b")
    assert merkle_root([a, b]) != merkle_root([b, a])
