"""Tests for the proof-building combinators in repro.core.proofs."""

import pytest

from repro.core.proofs import (
    decompose_tensor,
    obligation_lambda,
    tensor_intro_all,
)
from repro.lf.basis import builtin_basis, KindDecl
from repro.lf.syntax import ConstRef, KIND_PROP, KPi, NatLit, TApp, TConst, THIS
from repro.lf.basis import NAT_T
from repro.logic.checker import CheckerContext, ProofError, check_proof, infer
from repro.logic.proofterms import (
    LolliIntro,
    OneIntro,
    PVar,
    TensorIntro,
)
from repro.logic.propositions import (
    Atom,
    Lolli,
    One,
    Receipt,
    Tensor,
    tensor_all,
)
from repro.lf.walk import convertible
from repro.lf.syntax import PrincipalLit

ALICE = PrincipalLit(b"\xaa" * 20)


@pytest.fixture
def basis():
    b = builtin_basis()
    b.declare(ConstRef(THIS, "coin"), KindDecl(KPi("n", NAT_T, KIND_PROP)))
    return b


def coin(n):
    return Atom(TApp(TConst(ConstRef(THIS, "coin")), NatLit(n)))


class TestTensorIntroAll:
    def test_empty_is_unit(self, basis):
        prop = check_proof(CheckerContext(basis=basis), tensor_intro_all([]))
        assert convertible(prop, One())

    def test_matches_tensor_all_shape(self, basis):
        """tensor_intro_all(ps) proves exactly tensor_all(props)."""
        ctx = CheckerContext(basis=basis)
        for count in (1, 2, 3, 5):
            props = [coin(i) for i in range(count)]
            inner = ctx
            for i, prop in enumerate(props):
                inner = inner.with_affine(f"v{i}", prop)
            term = tensor_intro_all([PVar(f"v{i}") for i in range(count)])
            proved, used = infer(inner, term)
            assert convertible(proved, tensor_all(props))
            assert used == {f"v{i}" for i in range(count)}


class TestDecomposeTensor:
    def check_decompose(self, basis, count):
        """Bind a count-fold tensor and rebuild it in reverse."""
        props = [coin(i) for i in range(count)]
        ctx = CheckerContext(basis=basis).with_affine("t", tensor_all(props))
        term = decompose_tensor(
            PVar("t"), count,
            lambda vars_: tensor_intro_all(list(reversed(vars_))),
        )
        proved, used = infer(ctx, term)
        assert convertible(proved, tensor_all(list(reversed(props))))
        assert used == {"t"}

    def test_depths(self, basis):
        for count in (1, 2, 3, 4, 6):
            self.check_decompose(basis, count)

    def test_zero_drops_unit(self, basis):
        """count=0: the scrutinee proves 1 and is weakened away."""
        ctx = CheckerContext(basis=basis).with_affine("t", One())
        term = decompose_tensor(PVar("t"), 0, lambda vars_: OneIntro())
        proved, used = infer(ctx, term)
        assert convertible(proved, One())
        assert used == frozenset()  # affine weakening: t unused

    def test_components_are_single_use(self, basis):
        ctx = CheckerContext(basis=basis).with_affine(
            "t", tensor_all([coin(0), coin(1)])
        )
        term = decompose_tensor(
            PVar("t"), 2,
            lambda vars_: TensorIntro(vars_[0], vars_[0]),  # reuse!
        )
        with pytest.raises(ProofError, match="more than once"):
            infer(ctx, term)


class TestObligationLambda:
    def test_obligation_shape(self, basis):
        """The λ's annotation is exactly C ⊗ A ⊗ R."""
        grant = coin(9)
        inputs = [coin(1), coin(2)]
        receipts = [Receipt(coin(1), 5, ALICE)]
        term = obligation_lambda(
            grant, inputs, receipts,
            lambda c, ins, rs: tensor_intro_all([c, *ins]),
        )
        proved = check_proof(CheckerContext(basis=basis), term)
        expected = Lolli(
            Tensor(grant, Tensor(tensor_all(inputs), tensor_all(receipts))),
            tensor_all([grant, *inputs]),
        )
        assert convertible(proved, expected)

    def test_receipts_usable_in_body(self, basis):
        receipt = Receipt(coin(1), 5, ALICE)
        term = obligation_lambda(
            One(), [], [receipt],
            lambda c, ins, rs: rs[0],
        )
        proved = check_proof(CheckerContext(basis=basis), term)
        assert convertible(
            proved,
            Lolli(Tensor(One(), Tensor(One(), receipt)), receipt),
        )

    def test_everything_droppable(self, basis):
        """Affinity: the body may ignore grant, inputs, and receipts."""
        term = obligation_lambda(
            coin(1), [coin(2), coin(3)], [Receipt(coin(2), 1, ALICE)],
            lambda c, ins, rs: OneIntro(),
        )
        proved = check_proof(CheckerContext(basis=basis), term)
        assert isinstance(proved, Lolli)
        assert convertible(proved.consequent, One())
