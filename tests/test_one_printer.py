"""A node is written as text once, read off the source.

No syntax class defines its own ``__str__``: every member of the six
syntactic unions, and ``ConstRef``, share the one ``str`` that
``repro.lf.syntax.declare_shape`` installs, which is the surface printer
(``repro.surface.pretty``).  That is the only reference from ``lf``,
``logic`` or ``core`` up into ``surface``, and none of the printer's
retired helpers is spelt in ``src/``.
"""

import ast
import typing

from repro.lf.syntax import ConstRef, KindT, TConst, Term, TypeFamily
from repro.logic.conditions import Condition
from repro.logic.proofterms import ProofTerm
from repro.logic.propositions import Atom, Proposition
from repro.surface.pretty import pretty

from tests.guards import SRC, imports, sources, spelt, words

UNIONS = (KindT, TypeFamily, Term, Condition, Proposition, ProofTerm)
SYNTAX_MODULES = (
    "lf/syntax.py", "logic/conditions.py", "logic/propositions.py",
    "logic/proofterms.py",
)
RETIRED = ("_clean", "_Names", "_atom_str", "_render_atom", "_BUILTIN_NAMES")


def test_no_syntax_class_defines_str():
    defined = [
        f"{module}: {cls.name}"
        for module in SYNTAX_MODULES
        for cls in ast.walk(ast.parse((SRC / module).read_text()))
        if isinstance(cls, ast.ClassDef)
        for statement in cls.body
        if "__str__" in {
            getattr(statement, "name", None),
            *(getattr(t, "id", None) for t in getattr(statement, "targets", ())),
        }
    ]
    assert defined == []


def test_str_of_every_syntax_node_is_the_surface_printer():
    members = [cls for union in UNIONS for cls in typing.get_args(union)]
    assert len(members) == 58
    assert {cls.__str__ for cls in members} == {ConstRef.__str__}
    ref = ConstRef(b"\x11" * 32, "c")
    assert str(Atom(TConst(ref))) == pretty(Atom(TConst(ref))) == str(ref)
    assert str(ref) == f"0x{'11' * 32}.c"


def test_no_retired_printer_helper_is_spelt_in_src():
    assert spelt(words(RETIRED), sources()) == []


def test_only_str_reaches_up_into_surface():
    references = [
        f"{path.relative_to(SRC)}: {module}"
        for package in ("lf", "logic", "core")
        for path in sources(SRC / package)
        for module, _ in imports(ast.parse(path.read_text()))
        if module.startswith("repro.surface")
    ]
    assert references == ["lf/syntax.py: repro.surface.pretty.pretty"]
