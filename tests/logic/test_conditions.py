"""Tests for conditions: entailment (Appendix A) and evaluation (§5)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lf.syntax import NatLit, Var
from repro.logic.conditions import (
    Before,
    CAnd,
    CNot,
    CTrue,
    ConditionUndecidable,
    Spent,
    WorldView,
    entails,
    evaluate,
    implies,
)
from repro.lf.walk import convertible

TX = b"\x77" * 32
SPENT_0 = Spent(TX, 0)
SPENT_1 = Spent(TX, 1)


# Hypothesis strategy over conditions (shallow, closed).
atoms = st.sampled_from(
    [CTrue(), Before(NatLit(10)), Before(NatLit(20)), SPENT_0, SPENT_1]
)
conditions = st.recursive(
    atoms,
    lambda sub: st.one_of(
        st.builds(CAnd, sub, sub),
        st.builds(CNot, sub),
    ),
    max_leaves=6,
)


class TestEntailment:
    def test_identity(self):
        assert entails([SPENT_0], [SPENT_0])

    def test_different_atoms_fail(self):
        assert not entails([SPENT_0], [SPENT_1])

    def test_true_right(self):
        assert entails([], [CTrue()])
        assert entails([SPENT_0], [CTrue()])

    def test_true_left_discarded(self):
        assert entails([CTrue(), SPENT_0], [SPENT_0])

    def test_empty_sequent_fails(self):
        assert not entails([], [])

    def test_and_left(self):
        assert entails([CAnd(SPENT_0, SPENT_1)], [SPENT_0])
        assert entails([CAnd(SPENT_0, SPENT_1)], [SPENT_1])

    def test_and_right(self):
        assert entails([SPENT_0, SPENT_1], [CAnd(SPENT_0, SPENT_1)])
        assert not entails([SPENT_0], [CAnd(SPENT_0, SPENT_1)])

    def test_negation_swaps_sides(self):
        assert entails([CNot(SPENT_0), SPENT_0], [])  # contradiction proves all
        assert entails([], [CNot(SPENT_0), SPENT_0])  # excluded middle (classical)

    def test_double_negation(self):
        assert entails([CNot(CNot(SPENT_0))], [SPENT_0])
        assert entails([SPENT_0], [CNot(CNot(SPENT_0))])

    def test_before_axiom(self):
        """before(t) ⊃ before(t′) when t ≤ t′."""
        assert entails([Before(NatLit(10))], [Before(NatLit(20))])
        assert entails([Before(NatLit(10))], [Before(NatLit(10))])
        assert not entails([Before(NatLit(20))], [Before(NatLit(10))])

    def test_symbolic_before_by_identity(self):
        assert entails([Before(Var("t"))], [Before(Var("t"))])
        assert not entails([Before(Var("t"))], [Before(Var("u"))])

    def test_conjunction_weakening_idiom(self):
        """The ifweaken idiom of Figure 3: a conjunction entails each part."""
        combined = CAnd(CNot(SPENT_0), Before(NatLit(100)))
        assert implies(combined, CNot(SPENT_0))
        assert implies(combined, Before(NatLit(100)))
        assert implies(combined, Before(NatLit(150)))
        assert not implies(CNot(SPENT_0), combined)

    @given(conditions)
    @settings(max_examples=60, deadline=None)
    def test_reflexivity(self, cond):
        assert entails([cond], [cond])

    @given(conditions, conditions)
    @settings(max_examples=60, deadline=None)
    def test_and_projection(self, a, b):
        assert entails([CAnd(a, b)], [a])
        assert entails([CAnd(a, b)], [b])

    @given(conditions, conditions)
    @settings(max_examples=40, deadline=None)
    def test_entailment_sound_for_evaluation(self, a, b):
        """If a ⊃ b then every world satisfying a satisfies b."""
        if not entails([a], [b]):
            return
        for time in (0, 15, 100):
            for spent in (set(), {0}, {0, 1}):
                world = WorldView(
                    time, lambda _t, n, s=spent: n in s
                )
                if evaluate(a, world):
                    assert evaluate(b, world)


class TestEvaluation:
    def test_true(self):
        assert evaluate(CTrue(), WorldView.at_time(0))

    def test_before(self):
        assert evaluate(Before(NatLit(100)), WorldView.at_time(99))
        assert not evaluate(Before(NatLit(100)), WorldView.at_time(100))

    def test_spent_oracle(self):
        world = WorldView(0, lambda txid, n: txid == TX and n == 0)
        assert evaluate(SPENT_0, world)
        assert not evaluate(SPENT_1, world)

    def test_revocation_condition(self):
        """§5: ¬spent(I) — true until Alice spends I, then false."""
        offer = CNot(SPENT_0)
        before = WorldView(0, lambda _t, _n: False)
        after = WorldView(0, lambda _t, _n: True)
        assert evaluate(offer, before)
        assert not evaluate(offer, after)

    def test_and(self):
        cond = CAnd(Before(NatLit(10)), CNot(SPENT_0))
        assert evaluate(cond, WorldView.at_time(5))
        assert not evaluate(cond, WorldView.at_time(15))

    def test_open_condition_undecidable(self):
        with pytest.raises(ConditionUndecidable):
            evaluate(Before(Var("t")), WorldView.at_time(0))

    def test_evaluation_normalizes_times(self):
        from repro.lf.basis import ADD
        from repro.lf.syntax import Const, apply_term

        cond = Before(apply_term(Const(ADD), NatLit(40), NatLit(2)))
        assert evaluate(cond, WorldView.at_time(41))
        assert not evaluate(cond, WorldView.at_time(42))


class TestStructure:
    def test_spent_validation(self):
        with pytest.raises(ValueError):
            Spent(b"\x00" * 31, 0)
        with pytest.raises(ValueError):
            Spent(TX, -1)

    def test_conditions_equal_mod_normalization(self):
        from repro.lf.basis import ADD
        from repro.lf.syntax import Const, apply_term

        a = Before(apply_term(Const(ADD), NatLit(1), NatLit(2)))
        assert convertible(a, Before(NatLit(3)))
