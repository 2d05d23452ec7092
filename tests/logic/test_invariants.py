"""Cross-cutting property tests: metatheoretic invariants in miniature.

These are not full metatheory proofs, but executable spot checks of the
properties the paper's design leans on: normalization idempotence,
this-resolution stability, weakening admissibility, and the §4 "Affinity"
observations about resource destruction.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lf.basis import KindDecl, NAT_T, PropDecl, builtin_basis
from repro.lf.syntax import ConstRef, KIND_PROP, KPi, THIS, NatLit, TApp, TConst
from repro.logic.checker import CheckerContext, ProofError, check_proof, infer
from repro.logic.freshness import prop_fresh
from repro.logic.proofterms import (
    LolliIntro,
    OneElim,
    OneIntro,
    PVar,
    TensorIntro,
)
from repro.logic.propositions import (
    Lolli,
    One,
    Tensor,
)
from repro.lf.walk import (
    alpha_equal,
    convertible,
    nodes_of_type,
    normalize,
    substitute_this,
)

from tests.logic.conftest import coin
from tests.surface.test_parser import props as props_strategy


class TestNormalization:
    @given(props_strategy)
    @settings(max_examples=100, deadline=None)
    def test_normalize_idempotent(self, prop):
        once = normalize(prop)
        assert alpha_equal(normalize(once), once)

    @given(props_strategy)
    @settings(max_examples=100, deadline=None)
    def test_props_equal_reflexive(self, prop):
        assert convertible(prop, prop)


class TestThisResolution:
    @given(props_strategy)
    @settings(max_examples=100, deadline=None)
    def test_resolution_idempotent(self, prop):
        txid = b"\x11" * 32
        once = substitute_this(prop, txid)
        assert alpha_equal(substitute_this(once, txid), once)

    @given(props_strategy)
    @settings(max_examples=100, deadline=None)
    def test_resolution_removes_this(self, prop):
        txid = b"\x11" * 32
        resolved = substitute_this(prop, txid)
        assert not any(ref.is_local for ref in nodes_of_type(resolved, ConstRef))

    @given(props_strategy)
    @settings(max_examples=60, deadline=None)
    def test_resolution_commutes_with_normalization(self, prop):
        txid = b"\x11" * 32
        a = normalize(substitute_this(prop, txid))
        b = substitute_this(normalize(prop), txid)
        assert alpha_equal(a, b)


class TestWeakening:
    def test_extra_affine_hypotheses_are_harmless(self, basis):
        """Admissibility of weakening: a proof stays valid (with the same
        conclusion and consumption) under extra affine hypotheses."""
        ctx = CheckerContext(basis=basis).with_affine("x", coin(1))
        term = PVar("x")
        prop1, used1 = infer(ctx, term)
        widened = ctx.with_affine("junk", coin(99)).with_affine("more", One())
        prop2, used2 = infer(widened, term)
        assert convertible(prop1, prop2)
        assert used1 == used2


class TestAffinity:
    """§4 "Affinity": why the paper embraces weakening."""

    def test_destructor_rule_is_fresh(self, basis):
        """"The easiest [way to destroy a resource] is to declare constants
        with type A ⊸ 1 in the local basis.  This is legal, since 1 is not
        a restricted form." """
        destructor = Lolli(coin(1), One())
        assert prop_fresh(destructor)

    def test_destruction_via_declared_rule(self, basis):
        ref = basis.declare_local("destroy", PropDecl(Lolli(coin(1), One())))
        from repro.logic.proofterms import LolliElim, PConst

        ctx = CheckerContext(basis=basis).with_affine("c", coin(1))
        prop, used = infer(ctx, LolliElim(PConst(ref), PVar("c")))
        assert convertible(prop, One())
        assert used == {"c"}

    def test_implicit_weakening_destroys_too(self, basis):
        """Even without a rule, simply not using a resource discards it."""
        ctx = CheckerContext(basis=basis).with_affine("c", coin(1))
        prop, used = infer(ctx, OneIntro())
        assert convertible(prop, One())
        assert used == frozenset()

    def test_contraction_still_forbidden(self, basis):
        """Affine ≠ unrestricted: duplication remains impossible."""
        ctx = CheckerContext(basis=basis).with_affine("c", coin(1))
        with pytest.raises(ProofError):
            infer(ctx, TensorIntro(PVar("c"), PVar("c")))


class TestConditionPlacement:
    """§5: "it is important that the condition appear beneath the lolli,
    not above it" — and with no discharge operation, even the incorrect
    placement cannot be laundered into an unconditional resource."""

    def test_no_way_out_of_the_monad(self, basis):
        """From if(φ, A) there is no proof of bare A: every elimination
        (ifbind) re-enters if(φ, ·)."""
        from repro.logic.conditions import Before
        from repro.lf.syntax import NatLit
        from repro.logic.proofterms import IfBind, IfReturn
        from repro.logic.propositions import IfProp

        phi = Before(NatLit(100))
        ctx = CheckerContext(basis=basis).with_affine("i", IfProp(phi, coin(1)))
        # The only thing ifbind can produce is another conditional.
        prop, _ = infer(
            ctx, IfBind("x", PVar("i"), IfReturn(phi, PVar("x")))
        )
        assert isinstance(normalize(prop), IfProp)
        # Using the body variable directly escapes the monad → rejected.
        with pytest.raises(ProofError, match="if"):
            infer(ctx, IfBind("x", PVar("i"), PVar("x")))

    def test_correct_placement_expires_with_the_offer(self, basis):
        """receipt ⊸ if(φ, A): exercising yields a conditional that the
        top-level discharge re-checks — captured by the type."""
        from repro.logic.conditions import Before
        from repro.lf.syntax import NatLit, PrincipalLit
        from repro.logic.propositions import IfProp, Receipt
        from repro.logic.proofterms import LolliElim

        alice = PrincipalLit(b"\xaa" * 20)
        phi = Before(NatLit(100))
        offer = Lolli(Receipt(One(), 5, alice), IfProp(phi, coin(1)))
        ctx = (
            CheckerContext(basis=basis)
            .with_persistent("offer", offer)
            .with_affine("r", Receipt(One(), 5, alice))
        )
        prop, _ = infer(ctx, LolliElim(PVar("offer"), PVar("r")))
        assert isinstance(normalize(prop), IfProp)
