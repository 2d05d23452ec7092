"""The wire format is declared once, read off the source.

Every member of the six syntactic unions and every declaration has one
tag byte in ``repro.lf.syntax.SHAPES``, unique and inside its category's
range, and every field of those classes has a form the one encoder and the
one decoder (``repro.logic.codec``) know — so a class added without either
fails here, not at the first bundle that carries it.  None of the
per-syntax codec functions the codec replaced is spelt anywhere.
"""

import dataclasses
import typing
from pathlib import Path

from repro.lf.basis import Declaration
from repro.lf.syntax import SHAPES, KindT, Term, TypeFamily, Var
from repro.logic.conditions import Condition
from repro.logic.proofterms import ProofTerm, PVar
from repro.logic.propositions import Proposition
from tests.guards import ROOT, sources, spelt, words

# union: the tags its members may take
RANGES = {
    Declaration: range(0x01, 0x10),
    Term: range(0x10, 0x20),
    TypeFamily: range(0x20, 0x30),
    KindT: range(0x30, 0x40),
    Condition: range(0x40, 0x50),
    Proposition: range(0x50, 0x60),
    ProofTerm: range(0x60, 0x80),
}
CHILDREN = {
    "Declaration", "Term", "TypeFamily", "KindT", "Condition", "Proposition",
    "ProofTerm",
}
DATA = {"int", "bytes", "ConstRef", "KindSort", "Affirmation"}
RETIRED = (
    r"repro\.logic\.encoding", r"repro\.logic\.decoding",
    "encode_term", "encode_family", "encode_kind", "encode_cond",
    "encode_prop", "encode_proof", "decode_term", "decode_family",
    "decode_kind", "decode_cond", "decode_prop", "decode_proof", "decode_ref",
    "_encode_prop_env", "_BINARY_TAGS", "_nested", "_lf_name", "_proof_name",
    "_read_transaction",
)


def tagged():
    return [cls for union in RANGES for cls in typing.get_args(union)]


def test_every_tagged_class_has_one_tag_in_its_range():
    misplaced = [
        f"{cls.__name__}: {SHAPES[cls].tag}"
        for union, tags in RANGES.items()
        for cls in typing.get_args(union)
        if SHAPES[cls].tag not in tags
    ]
    assert misplaced == []
    tags = [SHAPES[cls].tag for cls in tagged()]
    assert len(tags) == len(set(tags)) == 61


def test_every_field_of_a_tagged_class_has_a_wire_form():
    unknown = []
    for cls in tagged():
        shape = SHAPES[cls]
        binders = {shape.binder} | {binder for binder, _ in shape.proof_binders}
        for field in dataclasses.fields(cls):
            form = field.type.strip("'\"")
            if field.name in binders or cls in (Var, PVar):
                continue  # not on the wire, or written as an index
            if form not in CHILDREN | DATA:
                unknown.append(f"{cls.__name__}.{field.name}: {form}")
    assert unknown == []


def test_no_retired_codec_name_is_spelt():
    tops = ("src", "tests", "benchmarks", "examples", "scripts")
    paths = sources(*(ROOT / top for top in tops))
    assert spelt(words(RETIRED), [p for p in paths if p != Path(__file__)]) == []
