"""The syntax's shape is declared once, read off the source.

Every member of the six syntactic unions has an entry in
``repro.lf.syntax.SHAPES`` — so a node class added without one fails
here, not in whichever walker meets it first — and none of the
per-syntax walkers that ``repro.lf.walk`` replaced is spelt anywhere.
"""

import typing
from pathlib import Path

from repro.lf.syntax import SHAPES, KindT, Term, TypeFamily
from repro.logic.conditions import Condition
from repro.logic.proofterms import ProofTerm
from repro.logic.propositions import Proposition
from tests.guards import ROOT, sources, spelt, words

UNIONS = {
    "KindT": KindT, "TypeFamily": TypeFamily, "Term": Term,
    "Condition": Condition, "Proposition": Proposition, "ProofTerm": ProofTerm,
}
RETIRED = (
    "free_vars_prop", "free_vars_cond", "substitute_prop", "substitute_cond",
    "substitute_this_prop", "substitute_this_cond", "normalize_prop",
    "normalize_cond", "normalize_family", "normalize_kind", "alpha_equal_prop",
    "props_equal", "conditions_equal", "terms_equal", "families_equal",
    "kinds_equal", "iter_constants", "iter_constants_prop",
    "iter_constants_cond", "_alpha_prop", "_alpha_cond", "_alpha_node",
    "_parts", "_rebuild", "_is_proof", "_child_fields", "_CHILD_FIELDS",
    "_proof_uses_affine_assert", r"repro\.lf\.normalize",
)


def test_every_node_class_has_a_shape():
    missing = [
        f"{union}.{cls.__name__}"
        for union, members in UNIONS.items()
        for cls in typing.get_args(members)
        if cls not in SHAPES
    ]
    assert missing == []
    assert sum(len(typing.get_args(members)) for members in UNIONS.values()) == 58


def test_no_retired_walker_is_spelt():
    tops = ("src", "tests", "benchmarks", "examples", "scripts")
    paths = sources(*(ROOT / top for top in tops))
    assert spelt(words(RETIRED), [p for p in paths if p != Path(__file__)]) == []
