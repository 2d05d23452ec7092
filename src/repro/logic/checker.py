"""The proof checker: judgement T;Σ;Ψ;Γ;Δ ⊢ M : A (paper Appendix A).

Affine resource accounting uses *consumed sets*: checking a proof term
synthesizes its proposition together with the set of affine hypotheses it
consumed.  Multiplicative forms (application, ⊗, the binds) require their
parts to consume disjoint sets; additive forms (&-intro, ⊕-case) let both
branches consume the same resources, because only one alternative is ever
realized; weakening is free — the logic is affine, not linear (§4
"Affinity").

The transaction T enters the judgement only through ``assert``: affine
affirmations sign the enclosing transaction "in order to prevent replay
attacks on it."
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro import cancel, obs
from repro.crypto.ecdsa import Signature, verify as ecdsa_verify
from repro.crypto.hashing import hash160, sha256
from repro.crypto.secp256k1 import Point
from repro.lf.basis import Basis, BasisError, NAT_T, PRINCIPAL_T, PropDecl
from repro.lf.syntax import (
    Kind,
    KindSort,
    PrincipalLit,
    Term,
    TypeFamily,
    Var as LFVar,
)
from repro.lf.walk import convertible, free_vars, normalize, substitute
from repro.lf.typecheck import (
    LFContext,
    LFTypeError,
    check_family_is_type,
    check_type,
    infer_kind,
)
from repro.logic.conditions import (
    Before,
    CAnd,
    CNot,
    Condition,
    CTrue,
    Spent,
    implies,
)
from repro.logic.codec import EncodingError, encode
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
)
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
)


class ProofError(Exception):
    """A proof term fails to check."""


AFFINE_ASSERT_TAG = b"typecoin:assert:"
PERSISTENT_ASSERT_TAG = b"typecoin:assert!:"


def affine_assert_payload(txn_payload: bytes, prop: Proposition) -> bytes:
    """The message an affine ``assert`` signature covers: "essentially the
    entire transaction in which it appears" plus the proposition."""
    return AFFINE_ASSERT_TAG + txn_payload + encode(normalize(prop))


def persistent_assert_payload(prop: Proposition) -> bytes:
    """The message an ``assert!`` signature covers: "only the proposition A"."""
    return PERSISTENT_ASSERT_TAG + encode(normalize(prop))


# Installed by the verification service (repro.service.cache): a bounded
# LRU over affirmation-signature verification results — the sigcache
# pattern applied to the proof checker's hottest leaf.  The result is a
# pure function of the key (principal, pubkey, payload digest, signature),
# so caching it is sound.  ``None`` (the default, and the state the whole
# non-service pipeline runs in) verifies directly.
AFFIRMATION_CACHE = None


def verify_affirmation(
    principal: PrincipalLit, payload: bytes, affirmation: Affirmation
) -> bool:
    """Check that the affirmation's key hashes to the principal and signs
    the payload."""
    cache = AFFIRMATION_CACHE
    if cache is None:
        return _verify_affirmation(principal, payload, affirmation)
    key = (
        principal.key_hash,
        affirmation.pubkey,
        sha256(payload),
        affirmation.signature,
    )
    cached = cache.get(key)
    if cached is not None:
        return cached
    result = _verify_affirmation(principal, payload, affirmation)
    cache.put(key, result)
    return result


def _verify_affirmation(
    principal: PrincipalLit, payload: bytes, affirmation: Affirmation
) -> bool:
    if hash160(affirmation.pubkey) != principal.key_hash:
        return False
    try:
        point = Point.decode(affirmation.pubkey)
        signature = Signature.decode(affirmation.signature)
    except ValueError:
        return False
    return ecdsa_verify(point, sha256(payload), signature)


@dataclass(frozen=True)
class CheckerContext:
    """Everything to the left of the turnstile: T; Σ; Ψ; Γ; Δ."""

    basis: Basis
    lf_ctx: LFContext = field(default_factory=LFContext)
    persistent: dict[str, Proposition] = field(default_factory=dict)  # Γ
    affine: dict[str, Proposition] = field(default_factory=dict)  # Δ
    txn_payload: bytes | None = None  # T (None outside a transaction)

    def with_affine(self, var: str, prop: Proposition) -> "CheckerContext":
        if var in self.affine or var in self.persistent:
            raise ProofError(f"proof variable {var} shadows an existing hypothesis")
        return replace(self, affine={**self.affine, var: prop})

    def with_persistent(self, var: str, prop: Proposition) -> "CheckerContext":
        if var in self.affine or var in self.persistent:
            raise ProofError(f"proof variable {var} shadows an existing hypothesis")
        return replace(self, persistent={**self.persistent, var: prop})

    def with_lf(self, var: str, family: TypeFamily) -> "CheckerContext":
        return replace(self, lf_ctx=self.lf_ctx.extend(var, family))


# ----------------------------------------------------------------------
# Formation judgements: Σ;Ψ ⊢ A prop and Σ;Ψ ⊢ φ cond
# ----------------------------------------------------------------------


def check_prop_formation(basis: Basis, lf_ctx: LFContext, prop: Proposition) -> None:
    """Judgement Σ;Ψ ⊢ A prop."""
    try:
        _check_prop_formation(basis, lf_ctx, prop)
    except LFTypeError as exc:
        raise ProofError(f"ill-formed proposition {prop}: {exc}") from exc


def _check_prop_formation(basis: Basis, lf_ctx: LFContext, prop: Proposition) -> None:
    if isinstance(prop, Atom):
        kind = infer_kind(basis, lf_ctx, prop.family)
        if kind != Kind(KindSort.PROP):
            raise ProofError(f"atom {prop.family} has kind {kind}, expected prop")
        return
    if isinstance(prop, Lolli):
        _check_prop_formation(basis, lf_ctx, prop.antecedent)
        _check_prop_formation(basis, lf_ctx, prop.consequent)
        return
    if isinstance(prop, (Tensor, With, Plus)):
        _check_prop_formation(basis, lf_ctx, prop.left)
        _check_prop_formation(basis, lf_ctx, prop.right)
        return
    if isinstance(prop, (Zero, One)):
        return
    if isinstance(prop, Bang):
        _check_prop_formation(basis, lf_ctx, prop.body)
        return
    if isinstance(prop, (Forall, Exists)):
        check_family_is_type(basis, lf_ctx, prop.domain)
        _check_prop_formation(basis, lf_ctx.extend(prop.var, prop.domain), prop.body)
        return
    if isinstance(prop, Says):
        check_type(basis, lf_ctx, prop.principal, PRINCIPAL_T)
        _check_prop_formation(basis, lf_ctx, prop.body)
        return
    if isinstance(prop, Receipt):
        _check_prop_formation(basis, lf_ctx, prop.prop)
        check_type(basis, lf_ctx, prop.recipient, PRINCIPAL_T)
        return
    if isinstance(prop, IfProp):
        check_condition_formation(basis, lf_ctx, prop.condition)
        _check_prop_formation(basis, lf_ctx, prop.body)
        return
    raise TypeError(f"not a proposition: {prop!r}")


def check_condition_formation(
    basis: Basis, lf_ctx: LFContext, cond: Condition
) -> None:
    """Judgement Σ;Ψ ⊢ φ cond."""
    if isinstance(cond, (CTrue, Spent)):
        return
    if isinstance(cond, CAnd):
        check_condition_formation(basis, lf_ctx, cond.left)
        check_condition_formation(basis, lf_ctx, cond.right)
        return
    if isinstance(cond, CNot):
        check_condition_formation(basis, lf_ctx, cond.body)
        return
    if isinstance(cond, Before):
        try:
            check_type(basis, lf_ctx, cond.time, NAT_T)
        except LFTypeError as exc:
            raise ProofError(f"before() index is not a nat: {exc}") from exc
        return
    raise TypeError(f"not a condition: {cond!r}")


# ----------------------------------------------------------------------
# Proof checking
# ----------------------------------------------------------------------

Used = frozenset


def check_proof(ctx: CheckerContext, term: ProofTerm) -> Proposition:
    """Synthesize the proposition a proof term proves (top-level entry).

    Affine hypotheses may be left unused (weakening), but none may be used
    twice.
    """
    prop, _used = infer(ctx, term)
    return prop


def _disjoint(*sets: Used) -> Used:
    union: set[str] = set()
    for used in sets:
        overlap = union & used
        if overlap:
            raise ProofError(
                f"affine resources used more than once: {sorted(overlap)}"
            )
        union |= used
    return frozenset(union)


def infer(ctx: CheckerContext, term: ProofTerm) -> tuple[Proposition, Used]:
    """The judgement T;Σ;Ψ;Γ;Δ ⊢ M : A, synthesizing A and the consumed set."""
    if cancel.ACTIVE:
        # Cooperative cancellation between proof nodes: an expired
        # service deadline raises DeadlineExceeded here, which is NOT a
        # ProofError — it unwinds through the validation stack as an
        # infrastructure timeout, never as a proof verdict.
        cancel.checkpoint()
    if obs.ENABLED:
        obs.inc("proof.nodes_total")
    if isinstance(term, PVar):
        if term.name in ctx.affine:
            return ctx.affine[term.name], frozenset((term.name,))
        if term.name in ctx.persistent:
            return ctx.persistent[term.name], frozenset()
        raise ProofError(f"unbound proof variable {term.name}")

    if isinstance(term, PConst):
        try:
            decl = ctx.basis.lookup(term.ref)
        except BasisError as exc:
            raise ProofError(str(exc)) from exc
        if not isinstance(decl, PropDecl):
            raise ProofError(f"{term.ref} is not a proof constant")
        return decl.prop, frozenset()

    if isinstance(term, LolliIntro):
        check_prop_formation(ctx.basis, ctx.lf_ctx, term.annotation)
        body_prop, used = infer(ctx.with_affine(term.var, term.annotation), term.body)
        return Lolli(term.annotation, body_prop), used - {term.var}

    if isinstance(term, LolliElim):
        func_prop, func_used = infer(ctx, term.func)
        func_prop = normalize(func_prop)
        if not isinstance(func_prop, Lolli):
            raise ProofError(f"applied non-implication {func_prop}")
        arg_prop, arg_used = infer(ctx, term.arg)
        if not convertible(func_prop.antecedent, arg_prop):
            raise ProofError(
                f"argument proves {normalize(arg_prop)}, function expects"
                f" {normalize(func_prop.antecedent)}"
            )
        return func_prop.consequent, _disjoint(func_used, arg_used)

    if isinstance(term, TensorIntro):
        left_prop, left_used = infer(ctx, term.left)
        right_prop, right_used = infer(ctx, term.right)
        return Tensor(left_prop, right_prop), _disjoint(left_used, right_used)

    if isinstance(term, TensorElim):
        scrut_prop, scrut_used = infer(ctx, term.scrutinee)
        scrut_prop = normalize(scrut_prop)
        if not isinstance(scrut_prop, Tensor):
            raise ProofError(f"let ⊗ scrutinee proves {scrut_prop}, not a tensor")
        inner = ctx.with_affine(term.left_var, scrut_prop.left).with_affine(
            term.right_var, scrut_prop.right
        )
        body_prop, body_used = infer(inner, term.body)
        return body_prop, _disjoint(
            scrut_used, body_used - {term.left_var, term.right_var}
        )

    if isinstance(term, WithIntro):
        left_prop, left_used = infer(ctx, term.left)
        right_prop, right_used = infer(ctx, term.right)
        # Additive: the alternatives share resources; no disjointness.
        return With(left_prop, right_prop), left_used | right_used

    if isinstance(term, (WithFst, WithSnd)):
        pair_prop, used = infer(ctx, term.body)
        pair_prop = normalize(pair_prop)
        if not isinstance(pair_prop, With):
            raise ProofError(f"projection from non-& proposition {pair_prop}")
        chosen = pair_prop.left if isinstance(term, WithFst) else pair_prop.right
        return chosen, used

    if isinstance(term, PlusInl):
        check_prop_formation(ctx.basis, ctx.lf_ctx, term.other)
        body_prop, used = infer(ctx, term.body)
        return Plus(body_prop, term.other), used

    if isinstance(term, PlusInr):
        check_prop_formation(ctx.basis, ctx.lf_ctx, term.other)
        body_prop, used = infer(ctx, term.body)
        return Plus(term.other, body_prop), used

    if isinstance(term, PlusCase):
        scrut_prop, scrut_used = infer(ctx, term.scrutinee)
        scrut_prop = normalize(scrut_prop)
        if not isinstance(scrut_prop, Plus):
            raise ProofError(f"case scrutinee proves {scrut_prop}, not a ⊕")
        left_prop, left_used = infer(
            ctx.with_affine(term.left_var, scrut_prop.left), term.left_body
        )
        right_prop, right_used = infer(
            ctx.with_affine(term.right_var, scrut_prop.right), term.right_body
        )
        if not convertible(left_prop, right_prop):
            raise ProofError(
                f"case branches prove different propositions:"
                f" {normalize(left_prop)} vs {normalize(right_prop)}"
            )
        branches_used = (left_used - {term.left_var}) | (
            right_used - {term.right_var}
        )
        return left_prop, _disjoint(scrut_used, branches_used)

    if isinstance(term, OneIntro):
        return One(), frozenset()

    if isinstance(term, OneElim):
        scrut_prop, scrut_used = infer(ctx, term.scrutinee)
        if not isinstance(normalize(scrut_prop), One):
            raise ProofError(f"let ⟨⟩ scrutinee proves {scrut_prop}, not 1")
        body_prop, body_used = infer(ctx, term.body)
        return body_prop, _disjoint(scrut_used, body_used)

    if isinstance(term, ZeroElim):
        check_prop_formation(ctx.basis, ctx.lf_ctx, term.annotation)
        scrut_prop, used = infer(ctx, term.scrutinee)
        if not isinstance(normalize(scrut_prop), Zero):
            raise ProofError(f"abort scrutinee proves {scrut_prop}, not 0")
        return term.annotation, used

    if isinstance(term, BangIntro):
        body_prop, used = infer(ctx, term.body)
        if used:
            raise ProofError(
                f"promotion !M may not consume affine resources, used"
                f" {sorted(used)}"
            )
        return Bang(body_prop), frozenset()

    if isinstance(term, BangElim):
        scrut_prop, scrut_used = infer(ctx, term.scrutinee)
        scrut_prop = normalize(scrut_prop)
        if not isinstance(scrut_prop, Bang):
            raise ProofError(f"let ! scrutinee proves {scrut_prop}, not a !")
        body_prop, body_used = infer(
            ctx.with_persistent(term.var, scrut_prop.body), term.body
        )
        return body_prop, _disjoint(scrut_used, body_used)

    if isinstance(term, ForallIntro):
        check_family_is_type(ctx.basis, ctx.lf_ctx, term.domain)
        _check_eigenvariable(ctx, term.var)
        body_prop, used = infer(ctx.with_lf(term.var, term.domain), term.body)
        return Forall(term.var, term.domain, body_prop), used

    if isinstance(term, ForallElim):
        body_prop, used = infer(ctx, term.body)
        body_prop = normalize(body_prop)
        if not isinstance(body_prop, Forall):
            raise ProofError(f"instantiating non-∀ proposition {body_prop}")
        try:
            check_type(ctx.basis, ctx.lf_ctx, term.arg, body_prop.domain)
        except LFTypeError as exc:
            raise ProofError(f"bad ∀ instantiation: {exc}") from exc
        return substitute(body_prop.body, body_prop.var, term.arg), used

    if isinstance(term, ExistsIntro):
        annotation = normalize(term.annotation)
        if not isinstance(annotation, Exists):
            raise ProofError("pack annotation must be an ∃ proposition")
        check_prop_formation(ctx.basis, ctx.lf_ctx, annotation)
        try:
            check_type(ctx.basis, ctx.lf_ctx, term.witness, annotation.domain)
        except LFTypeError as exc:
            raise ProofError(f"bad ∃ witness: {exc}") from exc
        expected = substitute(annotation.body, annotation.var, term.witness)
        body_prop, used = infer(ctx, term.body)
        if not convertible(body_prop, expected):
            raise ProofError(
                f"pack body proves {normalize(body_prop)}, annotation"
                f" requires {normalize(expected)}"
            )
        return annotation, used

    if isinstance(term, ExistsElim):
        scrut_prop, scrut_used = infer(ctx, term.scrutinee)
        scrut_prop = normalize(scrut_prop)
        if not isinstance(scrut_prop, Exists):
            raise ProofError(f"unpack scrutinee proves {scrut_prop}, not an ∃")
        _check_eigenvariable(ctx, term.type_var)
        opened = substitute(
            scrut_prop.body, scrut_prop.var, LFVar(term.type_var)
        )
        inner = ctx.with_lf(term.type_var, scrut_prop.domain).with_affine(
            term.proof_var, opened
        )
        body_prop, body_used = infer(inner, term.body)
        if term.type_var in free_vars(body_prop):
            raise ProofError(
                f"existential witness {term.type_var} escapes its scope"
            )
        return body_prop, _disjoint(scrut_used, body_used - {term.proof_var})

    if isinstance(term, SayReturn):
        _check_principal(ctx, term.principal)
        body_prop, used = infer(ctx, term.body)
        return Says(term.principal, body_prop), used

    if isinstance(term, SayBind):
        scrut_prop, scrut_used = infer(ctx, term.scrutinee)
        scrut_prop = normalize(scrut_prop)
        if not isinstance(scrut_prop, Says):
            raise ProofError(f"saybind scrutinee proves {scrut_prop}, not ⟨m⟩A")
        body_prop, body_used = infer(
            ctx.with_affine(term.var, scrut_prop.body), term.body
        )
        body_prop_n = normalize(body_prop)
        if not isinstance(body_prop_n, Says) or not convertible(
            body_prop_n.principal, scrut_prop.principal
        ):
            raise ProofError(
                "saybind body must prove an affirmation by the same principal"
            )
        return body_prop, _disjoint(scrut_used, body_used - {term.var})

    if isinstance(term, (Assert, AssertPersistent)):
        _check_principal(ctx, term.principal)
        check_prop_formation(ctx.basis, ctx.lf_ctx, term.prop)
        literal = normalize(term.principal)
        if not isinstance(literal, PrincipalLit):
            raise ProofError("assert principal must be a literal key hash")
        try:
            if isinstance(term, Assert):
                if ctx.txn_payload is None:
                    raise ProofError(
                        "affine assert outside a transaction context"
                    )
                payload = affine_assert_payload(ctx.txn_payload, term.prop)
            else:
                payload = persistent_assert_payload(term.prop)
        except EncodingError as exc:
            raise ProofError(f"cannot sign an open proposition: {exc}") from exc
        if not verify_affirmation(literal, payload, term.affirmation):
            raise ProofError(f"invalid affirmation signature for {literal}")
        return Says(term.principal, term.prop), frozenset()

    if isinstance(term, IfReturn):
        check_condition_formation(ctx.basis, ctx.lf_ctx, term.condition)
        body_prop, used = infer(ctx, term.body)
        return IfProp(term.condition, body_prop), used

    if isinstance(term, IfBind):
        scrut_prop, scrut_used = infer(ctx, term.scrutinee)
        scrut_prop = normalize(scrut_prop)
        if not isinstance(scrut_prop, IfProp):
            raise ProofError(f"ifbind scrutinee proves {scrut_prop}, not if(φ,A)")
        body_prop, body_used = infer(
            ctx.with_affine(term.var, scrut_prop.body), term.body
        )
        body_prop_n = normalize(body_prop)
        if not isinstance(body_prop_n, IfProp) or not convertible(
            body_prop_n.condition, scrut_prop.condition
        ):
            raise ProofError("ifbind body must prove if(φ,B) for the same φ")
        return body_prop, _disjoint(scrut_used, body_used - {term.var})

    if isinstance(term, IfWeaken):
        check_condition_formation(ctx.basis, ctx.lf_ctx, term.condition)
        body_prop, used = infer(ctx, term.body)
        body_prop = normalize(body_prop)
        if not isinstance(body_prop, IfProp):
            raise ProofError(f"ifweaken body proves {body_prop}, not if(φ,A)")
        if not implies(term.condition, body_prop.condition):
            raise ProofError(
                f"ifweaken: {term.condition} does not entail"
                f" {body_prop.condition}"
            )
        return IfProp(term.condition, body_prop.body), used

    if isinstance(term, IfSay):
        body_prop, used = infer(ctx, term.body)
        body_prop = normalize(body_prop)
        if not isinstance(body_prop, Says) or not isinstance(
            normalize(body_prop.body), IfProp
        ):
            raise ProofError(f"if/say body proves {body_prop}, not ⟨m⟩if(φ,A)")
        inner = normalize(body_prop.body)
        assert isinstance(inner, IfProp)
        return IfProp(inner.condition, Says(body_prop.principal, inner.body)), used

    raise TypeError(f"not a proof term: {term!r}")


def _check_principal(ctx: CheckerContext, principal: Term) -> None:
    try:
        check_type(ctx.basis, ctx.lf_ctx, principal, PRINCIPAL_T)
    except LFTypeError as exc:
        raise ProofError(f"not a principal: {exc}") from exc


def _check_eigenvariable(ctx: CheckerContext, var: str) -> None:
    """The variable a ∀-intro or ∃-elim binds must be genuinely new."""
    if var in ctx.lf_ctx:
        raise ProofError(f"eigenvariable {var} shadows an LF variable")
    for hypotheses in (ctx.persistent, ctx.affine):
        for name, prop in hypotheses.items():
            if var in free_vars(prop):
                raise ProofError(
                    f"eigenvariable {var} occurs free in hypothesis {name}"
                )
