"""F2 — Figure 2: the conditional monad and its entailment calculus.

Checks every proof form of Figure 2 / Appendix A against the proof checker
(ifreturn, ifbind, ifweaken, if/say — and the deliberate *absence* of
discharge), and runs the classical-sequent entailment prover over a
family of condition formulas of growing size.
"""

import random
import time

from repro.lf.basis import builtin_basis, KindDecl
from repro.lf.syntax import KIND_PROP, NatLit, PrincipalLit, TConst, ConstRef, THIS
from repro.logic.checker import CheckerContext, check_proof, infer
from repro.logic.conditions import (
    Before,
    CAnd,
    CNot,
    CTrue,
    Spent,
    entails,
)
from repro.logic.proofterms import (
    IfBind,
    IfReturn,
    IfSay,
    IfWeaken,
    OneIntro,
    PVar,
    SayReturn,
    TensorIntro,
)
from repro.logic.propositions import Atom, IfProp, One, Says
from repro.lf.walk import convertible

ALICE = PrincipalLit(b"\xaa" * 20)


def check_figure2_rules():
    """Each Figure 2 / Appendix A conditional rule, as a checked instance."""
    basis = builtin_basis()
    flag = ConstRef(THIS, "flag")
    basis.declare(flag, KindDecl(KIND_PROP))
    prop = Atom(TConst(flag))
    ctx = CheckerContext(basis=basis)
    phi = Before(NatLit(100))
    stronger = CAnd(Before(NatLit(50)), CNot(Spent(b"\x01" * 32, 0)))

    checked = 0
    # ifreturn: Σ;Ψ;Γ;Δ ⊢ ifreturn_φ(M) : if(φ, A)
    inner = ctx.with_affine("x", prop)
    proved, _ = infer(inner, IfReturn(phi, PVar("x")))
    assert convertible(proved, IfProp(phi, prop))
    checked += 1
    # ifbind
    inner = ctx.with_affine("i", IfProp(phi, prop))
    proved, _ = infer(
        inner,
        IfBind("x", PVar("i"), IfReturn(phi, TensorIntro(PVar("x"), OneIntro()))),
    )
    assert convertible(proved, IfProp(phi, __import__("repro.logic.propositions", fromlist=["Tensor"]).Tensor(prop, One())))
    checked += 1
    # ifweaken (φ ⊃ φ′ premise via the sequent prover)
    inner = ctx.with_affine("i", IfProp(phi, prop))
    proved, _ = infer(inner, IfWeaken(stronger, PVar("i")))
    assert convertible(proved, IfProp(stronger, prop))
    checked += 1
    # if/say
    proved = check_proof(
        ctx, IfSay(SayReturn(ALICE, IfReturn(phi, OneIntro())))
    )
    assert convertible(proved, IfProp(phi, Says(ALICE, One())))
    checked += 1
    # No discharge form exists (§5: "we have no explicit discharge
    # operation at all").
    import repro.logic.proofterms as pt

    assert not hasattr(pt, "Discharge")
    checked += 1
    return checked


def random_condition(rng, depth):
    if depth == 0:
        return rng.choice([
            CTrue(),
            Before(NatLit(rng.randrange(100))),
            Spent(bytes([rng.randrange(4)]) * 32, rng.randrange(3)),
        ])
    left = random_condition(rng, depth - 1)
    if rng.random() < 0.3:
        return CNot(left)
    return CAnd(left, random_condition(rng, depth - 1))


def entailment_workload():
    rng = random.Random(5)
    proved = 0
    for depth in (2, 3, 4):
        for _ in range(60):
            phi = random_condition(rng, depth)
            # Reflexivity and ∧-projection must always hold.
            assert entails([phi], [phi])
            assert entails([CAnd(phi, CTrue())], [phi])
            proved += 2
    return proved


def bench_f2_conditional_rules():
    checked = check_figure2_rules()
    print(f"\nF2a: all {checked} Figure 2 conditional rules check")


def bench_f2_entailment_prover():
    start = time.perf_counter()
    proved = entailment_workload()
    rate = proved / (time.perf_counter() - start)
    print(f"\nF2b: entailment prover decided {proved} sequents per pass"
          f" (~{rate:,.0f}/s)")

