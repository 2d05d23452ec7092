"""The builtin basis is declared once per process.

``builtin_basis()`` hands every caller a ``Basis`` of its own, since
ledgers and fixtures declare into what it returns, but the five builtin
declarations inside it are built once and shared.  Nothing else under
``src/`` declares a builtin constant.
"""

import re
from pathlib import Path

from repro.core.validate import Ledger
from repro.lf.basis import (
    ADD,
    NAT,
    NAT_T,
    PLUS,
    PLUS_REFL,
    PRINCIPAL,
    TypeDecl,
    builtin_basis,
)
from repro.lf.syntax import ConstRef

SRC = Path(__file__).resolve().parents[2] / "src"
BUILTINS = [NAT, PRINCIPAL, ADD, PLUS, PLUS_REFL]


def test_each_call_is_a_new_basis_over_the_same_declarations():
    first, second = builtin_basis(), builtin_basis()
    assert first is not second
    assert [ref for ref, _ in first] == BUILTINS
    assert [ref for ref, _ in second] == BUILTINS
    for (_, mine), (_, theirs) in zip(first, second):
        assert mine is theirs
    for ref, decl in Ledger().global_basis:
        assert decl is first.lookup(ref)


def test_a_declaration_stays_in_the_basis_it_was_made_in():
    mine, other = builtin_basis(), builtin_basis()
    extra = ConstRef(b"\x42" * 32, "extra")
    mine.declare(extra, TypeDecl(NAT_T))
    assert extra in mine
    assert extra not in other
    assert extra not in builtin_basis()
    assert extra not in Ledger().global_basis


def test_builtins_are_declared_in_one_place():
    pattern = re.compile(r"\.declare\(\s*(NAT|PRINCIPAL|ADD|PLUS|PLUS_REFL)\b")
    spelt = [
        f"{path.relative_to(SRC)}: {match.group(1)}"
        for path in sorted(SRC.rglob("*.py"))
        for match in pattern.finditer(path.read_text())
    ]
    assert spelt == [f"repro/lf/basis.py: {ref.name.upper()}" for ref in BUILTINS]
