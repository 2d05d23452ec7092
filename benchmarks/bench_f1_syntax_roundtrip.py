"""F1 — Figure 1 syntax coverage through the surface language.

Every syntactic class of Figure 1 (kinds, type families, index terms,
propositions, conditions) is constructed, pretty-printed, re-parsed, and
compared up to α-equivalence — the executable counterpart of the figure.
The experiment also prints the corpus's parse+print round-trip rate.
"""

import time

from repro.lf.basis import NAT_T
from repro.lf.walk import alpha_equal, convertible
from repro.lf.syntax import ConstRef, THIS
from repro.surface.parser import (
    Resolver,
    parse_cond,
    parse_family,
    parse_kind,
    parse_prop,
    parse_term,
)
from repro.surface.pretty import (
    pretty_cond,
    pretty_family,
    pretty_kind,
    pretty_prop,
    pretty_term,
)

ALICE = "#" + "aa" * 20
TXID = "0x" + "11" * 32

KINDS = ["type", "prop", "pi n:nat. prop", "pi k:principal. pi t:nat. prop"]
FAMILIES = ["nat", "principal", "nat -> nat", "plus 1 2 3", "pi n:nat. plus n n 4"]
TERMS = ["42", ALICE, "\\x:nat. add x 1", "add (add 1 2) 3"]
CONDS = [
    "true",
    "before(99)",
    f"spent({TXID}.0)",
    f"~spent({TXID}.1)",
    "before(1) /\\ before(2) /\\ ~true",
]
PROPS = [
    # One sample per Figure 1 proposition form.
    "coin 5",                                   # atomic c m…
    "coin 1 -o coin 2",                         # A ⊸ A
    "coin 1 & coin 2",                          # A & A
    "coin 1 * coin 2",                          # A ⊗ A
    "coin 1 + coin 2",                          # A ⊕ A
    "0",                                        # 0
    "1",                                        # 1
    "!coin 1",                                  # !A
    "forall u:nat. coin u",                     # ∀u:τ.A
    "exists u:nat. coin u",                     # ∃u:τ.A
    f"[{ALICE}] coin 1",                        # ⟨m⟩A
    f"receipt(coin 1/600 ->> {ALICE})",         # receipt(A/n ↠ m)
    "if(before(9), coin 1)",                    # if(φ, A)  (Figure 2)
    # The paper's flagship composite forms:
    "forall N:nat. forall M:nat. forall P:nat."
    " (exists x:plus N M P. 1) -o coin N * coin M -o coin P",
    f"!([{ALICE}] (coin 1 -o forall K:principal. coin 2))",
    f"receipt(1/50000 ->> {ALICE}) -o if(~spent({TXID}.0), coin 25)",
]


def resolver():
    return Resolver(families={"coin": ConstRef(THIS, "coin")})


def roundtrip_corpus():
    res = resolver()
    count = 0
    for text in KINDS:
        kind = parse_kind(text, res)
        assert alpha_equal(parse_kind(pretty_kind(kind), res), kind)
        count += 1
    for text in FAMILIES:
        family = parse_family(text, res)
        assert convertible(parse_family(pretty_family(family), res), family)
        count += 1
    for text in TERMS:
        term = parse_term(text, res)
        assert convertible(parse_term(pretty_term(term), res), term)
        count += 1
    for text in CONDS:
        cond = parse_cond(text, res)
        assert convertible(parse_cond(pretty_cond(cond), res), cond)
        count += 1
    for text in PROPS:
        prop = parse_prop(text, res)
        assert convertible(parse_prop(pretty_prop(prop), res), prop)
        count += 1
    return count


def bench_f1_figure1_roundtrip():
    start = time.perf_counter()
    count = roundtrip_corpus()
    per_second = count / (time.perf_counter() - start)
    print(f"\nF1: {count} Figure 1 syntax samples round-trip"
          f" (~{per_second:,.0f} parse+print+compare per second)")
    assert count == len(KINDS) + len(FAMILIES) + len(TERMS) + len(CONDS) + len(PROPS)

