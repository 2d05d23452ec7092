"""Scalar multiplication has one recoder and one ladder, read off the source.

``repro.crypto.secp256k1`` recodes a GLV half once, into its non-zero
``(position, digit)`` pairs (``_sparse_wnaf``), drops them into per-position
buckets (``_glv_streams``) and walks them down one ``_ladder``.  The dense
digit lists it replaced — ``_wnaf``, ``_wnaf_signed`` and ``(digits,
table)`` streams padded with zeros to a common length — are spelt nowhere
under ``src/repro/crypto``, and each multiplication that is not the
generator comb reaches the ladder through that recoder.  The second GLV
half's addends are λ-images, ``(β·x, y)`` of a table entry taken as the
entry is read: ``_with_lambda``, which stored them beside every table, is
spelt nowhere either, and no cached table holds one.
"""

import ast

from repro.crypto import secp256k1 as ec
from repro.lru import LRU
from tests.guards import SRC, sources, spelt
from tests.oracles import point_add, scalar_mult_naive

CRYPTO = SRC / "crypto"
RETIRED = (
    r"\b_wnaf\b", r"\b_wnaf_signed\b",  # the dense recoders
    r"\.append\(0\)", r"\[0\] \*",  # a zero digit, a zero padding
    r"list\[tuple\[list\[int\]",  # a (digits, table) stream
    r"\b_with_lambda\b",  # a stored λ-table
)
MULTIPLIERS = ("dual_scalar_mult", "multi_scalar_mult")


def test_no_dense_recoding_is_spelt():
    assert spelt("|".join(RETIRED), sources(CRYPTO)) == []


def _callers() -> dict[str, set[str]]:
    """For each module-level function of secp256k1, the names it calls."""
    tree = ast.parse((CRYPTO / "secp256k1.py").read_text())
    return {
        node.name: {
            call.func.id
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        }
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }


def test_the_multipliers_share_one_recoder_and_one_ladder():
    calls = _callers()
    assert {f for f, names in calls.items() if "_ladder" in names} == set(
        MULTIPLIERS
    )
    assert {f for f, names in calls.items() if "_glv_streams" in names} == set(
        MULTIPLIERS
    )
    assert {f for f, names in calls.items() if "_sparse_wnaf" in names} == {
        "_glv_streams"
    }
    # k·G is the comb alone; k·P for another P is dual_scalar_mult(0, k, P).
    assert "_gen_mult_jacobian" in calls["scalar_mult"]
    assert "_ladder" not in calls["scalar_mult"]


def test_each_multiplier_reaches_the_ladder_through_the_recoder(monkeypatch):
    seen = []
    recode, ladder = ec._sparse_wnaf, ec._ladder
    monkeypatch.setattr(
        ec, "_sparse_wnaf", lambda k, w: seen.append("recode") or recode(k, w)
    )
    monkeypatch.setattr(
        ec, "_ladder", lambda buckets: seen.append("ladder") or ladder(buckets)
    )
    point = ec.scalar_mult(0xC0FFEE)
    for multiply in (
        lambda: ec.dual_scalar_mult(0, 12345, point),
        lambda: ec.dual_scalar_mult(777, 12345, point),
        lambda: ec.multi_scalar_mult([(777, ec.GENERATOR), (12345, point)]),
    ):
        seen.clear()
        multiply()
        assert seen[-1] == "ladder" and seen.count("ladder") == 1
        assert "recode" in seen


def test_no_cached_table_holds_a_lambda_image(monkeypatch):
    """Every entry a held key's cuts hold is an odd multiple of 2^(16j)·P
    itself, and the generator's cuts hold the comb's own entries."""
    monkeypatch.setattr(ec, "_POINT_TABLE_CACHE", LRU(4))
    key = scalar_mult_naive(0xC0FFEE)
    for _ in range(2):  # held from its second sight on
        ec.dual_scalar_mult(5, 7, key)
    cuts = ec._POINT_TABLE_CACHE.get((key.x, key.y))
    assert len(cuts) == ec._QUARTERS
    unit = key
    for cut in cuts:
        twice, entry, want = point_add(unit, unit), unit, []
        for _ in range(len(cut)):
            want.append((entry.x, entry.y))
            entry = point_add(entry, twice)
        assert cut == want
        unit = scalar_mult_naive(1 << ec._QUARTER_BITS, unit)
    comb, gen_cuts = ec._gen_tables()
    in_comb = {id(entry) for row in comb for entry in row}
    assert all(id(entry) in in_comb for cut in gen_cuts for entry in cut)
