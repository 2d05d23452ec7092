"""The Typecoin affine authorization logic (paper §4, §5, Appendix A).

Propositions are dual intuitionistic linear logic (minus ⊤, which "is
meaningless in affine logic") over LF index terms, extended with universal
and existential quantification, the affirmation modality ⟨K⟩A, receipts,
and the conditional monad if(φ, A).  Proof terms are checked by
:mod:`repro.logic.checker` under the thirteen judgements of Appendix A;
conditions have both an entailment relation (a classical sequent calculus)
and a world-relative evaluation used at transaction-validation time.
"""

from repro.logic.propositions import (
    Atom,
    Bang,
    Exists,
    Forall,
    IfProp,
    Lolli,
    One,
    Plus,
    Proposition,
    Receipt,
    Says,
    Tensor,
    With,
    Zero,
    tensor_all,
)
from repro.logic.conditions import (
    Before,
    CAnd,
    CNot,
    CTrue,
    Condition,
    Spent,
    WorldView,
    conjoin,
    entails,
    evaluate,
)
from repro.logic.freshness import FreshnessError, check_basis_fresh, check_prop_fresh, is_fresh
from repro.logic.proofterms import (
    Affirmation,
    Assert,
    AssertPersistent,
    BangElim,
    BangIntro,
    ExistsElim,
    ExistsIntro,
    ForallElim,
    ForallIntro,
    IfBind,
    IfReturn,
    IfSay,
    IfWeaken,
    LolliElim,
    LolliIntro,
    OneElim,
    OneIntro,
    PConst,
    PlusCase,
    PlusInl,
    PlusInr,
    ProofTerm,
    PVar,
    SayBind,
    SayReturn,
    TensorElim,
    TensorIntro,
    WithFst,
    WithIntro,
    WithSnd,
    ZeroElim,
    let_,
)
from repro.logic.checker import (
    CheckerContext,
    ProofError,
    check_condition_formation,
    check_proof,
    check_prop_formation,
    infer,
)

__all__ = [
    # propositions
    "Atom", "Bang", "Exists", "Forall", "IfProp", "Lolli", "One", "Plus",
    "Proposition", "Receipt", "Says", "Tensor", "With", "Zero", "tensor_all",
    # conditions
    "Before", "CAnd", "CNot", "CTrue", "Condition", "Spent", "WorldView",
    "conjoin", "entails", "evaluate",
    # freshness
    "FreshnessError", "check_basis_fresh", "check_prop_fresh", "is_fresh",
    # proof terms
    "Affirmation", "Assert", "AssertPersistent", "BangElim", "BangIntro",
    "ExistsElim", "ExistsIntro", "ForallElim", "ForallIntro", "IfBind",
    "IfReturn", "IfSay", "IfWeaken", "LolliElim", "LolliIntro", "OneElim",
    "OneIntro", "PConst", "PlusCase", "PlusInl", "PlusInr", "ProofTerm",
    "PVar", "SayBind", "SayReturn", "TensorElim", "TensorIntro", "WithFst",
    "WithIntro", "WithSnd", "ZeroElim", "let_",
    # checker
    "CheckerContext", "ProofError", "check_condition_formation",
    "check_proof", "check_prop_formation", "infer",
]
