"""The LF logical framework: Typecoin's index-term language (paper §4).

"For maximum generality, we follow Simmons [2012] and use LF for our index
terms.  Using LF, one can define whatever language of discourse one
requires."  This package implements the LF fragment of Figure 1: kinds,
type families (no family-level λ, following Harper–Pfenning), and index
terms, with the two special types ``principal`` and ``nat`` singled out for
their role in affirmations and timestamps.

Atomic propositions reuse the type-family machinery at the extra kind
``prop`` — "it is easy to show that the addition of a new kind does not
affect the existing LF metatheory."
"""

from repro.lf.syntax import (
    BUILTIN,
    THIS,
    App,
    Const,
    ConstRef,
    KPi,
    Kind,
    KindSort,
    Lam,
    NatLit,
    PrincipalLit,
    TApp,
    TConst,
    TPi,
    Term,
    TypeFamily,
    Var,
)
from repro.lf.walk import (
    alpha_equal,
    convertible,
    free_vars,
    nodes_of_type,
    normalize,
    substitute,
    substitute_this,
)
from repro.lf.basis import (
    Basis,
    BasisError,
    Declaration,
    KindDecl,
    PropDecl,
    TypeDecl,
    builtin_basis,
    NAT,
    PRINCIPAL,
    ADD,
    PLUS,
    PLUS_REFL,
)
from repro.lf.typecheck import LFContext, LFTypeError, check_kind, infer_kind, infer_type, check_type

__all__ = [
    "BUILTIN",
    "THIS",
    "App",
    "Const",
    "ConstRef",
    "KPi",
    "Kind",
    "KindSort",
    "Lam",
    "NatLit",
    "PrincipalLit",
    "TApp",
    "TConst",
    "TPi",
    "Term",
    "TypeFamily",
    "Var",
    "alpha_equal",
    "convertible",
    "free_vars",
    "nodes_of_type",
    "normalize",
    "substitute",
    "substitute_this",
    "Basis",
    "BasisError",
    "Declaration",
    "KindDecl",
    "PropDecl",
    "TypeDecl",
    "builtin_basis",
    "NAT",
    "PRINCIPAL",
    "ADD",
    "PLUS",
    "PLUS_REFL",
    "LFContext",
    "LFTypeError",
    "check_kind",
    "infer_kind",
    "infer_type",
    "check_type",
]
