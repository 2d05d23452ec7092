"""The surface printer: the one way a node of the syntax is written as text.

``str(node)`` of every member of the six syntactic unions is :func:`pretty`
(:func:`repro.lf.syntax.declare_shape` installs it), and ``str`` of a
``ConstRef`` is :func:`pretty_ref`; so a checker's message, a verdict's
detail and a test's round trip all read the one notation the parser reads.

The invariant the test suite enforces, over closed nodes: ``parse(str(x))``
encodes to the bytes ``x`` encodes to.  The encoding is the oracle because
it is α-invariant for LF and proof binders alike.

Printing is precedence-aware, inserting parentheses only where the grammar
demands them.  One binder-naming scope runs through every category — kinds,
families, terms, conditions, propositions and proof terms: a binder prints
as its name less any ``$`` suffix, renamed ``x_2``, ``x_3``, … away from a
keyword, a builtin's bare name, every enclosing binder and every free
variable of the node, so a printed binder never captures.  A name the
lexer would not read back as one identifier is written quoted.
"""

from __future__ import annotations

import typing
from typing import NamedTuple

from repro.lf.syntax import (
    BUILTIN,
    SHAPES,
    THIS,
    App,
    Const,
    ConstRef,
    Kind,
    KindT,
    KPi,
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
from repro.lf.walk import free_vars
from repro.logic import proofterms as pt
from repro.logic.conditions import Before, CAnd, CNot, Condition, CTrue, Spent
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
from repro.surface.lexer import KEYWORDS, is_identifier
from repro.surface.parser import BUILTIN_FAMILIES, BUILTIN_TERMS

# The parser's bare builtin names, inverted; the first name of each wins,
# so ``time`` prints as ``nat``.
_FAMILY_NAMES = {ref: name for name, ref in reversed(BUILTIN_FAMILIES.items())}
_TERM_NAMES = {ref: name for name, ref in reversed(BUILTIN_TERMS.items())}
# What no binder prints as: a keyword, or a name the parser reads as a builtin.
_RESERVED = KEYWORDS.union(BUILTIN_FAMILIES, BUILTIN_TERMS)

# Binding strength, loosest first: a binder or ⊸ extends as far right as
# it can, then ⊕, &, ⊗, the prefix forms, application, and atoms.
_LOOSE, _PLUS, _WITH, _TENSOR, _PREFIX, _APP, _ATOM = range(7)


def _word(name: str) -> str:
    """``name`` as one token: bare if it lexes as one identifier, else quoted."""
    if is_identifier(name):
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def pretty_ref(ref: ConstRef, bare: dict | None = None) -> str:
    """A constant: ``this.c``, ``0x<txid>.c`` or ``builtin.c`` — or, for a
    builtin ``bare`` names, the bare name the parser reads it by."""
    if ref.space is THIS:
        space = "this"
    elif ref.space is BUILTIN:
        if bare and ref in bare:
            return bare[ref]
        space = "builtin"
    else:
        space = f"0x{ref.space.hex()}"
    return f"{space}.{_word(ref.name)}"


def _free(node) -> frozenset:
    """The free variables of ``node``, LF and proof alike, as (class, name)."""
    cls = node.__class__
    if cls is Var or cls is pt.PVar:
        return frozenset(((cls, node.name),))
    shape = SHAPES[cls]
    found = frozenset()
    for child in shape.children:
        inner = _free(getattr(node, child))
        if not inner:
            continue
        if child == "body" and shape.binder is not None:
            inner = inner - {(Var, getattr(node, shape.binder))}
        for var, over in shape.proof_binders:
            if over == child:
                inner = inner - {(pt.PVar, getattr(node, var))}
        found = found | inner
    return found


class _Scope(NamedTuple):
    """The binders around the node being written, and the names taken."""

    names: dict  # (Var or PVar, a bound name): what it prints as
    taken: frozenset  # what a binder here may not print as

    @classmethod
    def around(cls, node) -> "_Scope":
        free = {_word(name) for _, name in _free(node)}
        return cls({}, _RESERVED.union(free))

    def show(self, kind: type, name: str) -> str:
        return self.names.get((kind, name)) or _word(name)

    def bind(self, kind: type, name: str) -> tuple[str, "_Scope"]:
        base = name.split("$", 1)[0]
        if not is_identifier(base):
            base = "x"
        printed, n = base, 1
        while printed in self.taken:
            n += 1
            printed = f"{base}_{n}"
        names = {**self.names, (kind, name): printed}
        return printed, _Scope(names, self.taken | {printed})


def _kind(kind: KindT, scope: _Scope) -> str:
    if kind.__class__ is Kind:
        return kind.sort.value
    if kind.__class__ is KPi:
        var, inner = scope.bind(Var, kind.var)
        return f"pi {var}:{_family(kind.domain, scope)}. {_kind(kind.body, inner)}"
    raise TypeError(f"not a kind: {kind!r}")


def _family(family: TypeFamily, scope: _Scope, level: int = _LOOSE) -> str:
    cls = family.__class__
    if cls is TConst:
        return pretty_ref(family.ref, _FAMILY_NAMES)
    if cls is TApp:
        head = _family(family.family, scope, _APP)
        text, prec = f"{head} {_term(family.arg, scope, _ATOM)}", _APP
    elif cls is TPi and family.var in free_vars(family.body):
        var, inner = scope.bind(Var, family.var)
        domain = _family(family.domain, scope)
        text, prec = f"pi {var}:{domain}. {_family(family.body, inner)}", _LOOSE
    elif cls is TPi:
        text = f"{_family(family.domain, scope, _APP)} -> {_family(family.body, scope)}"
        prec = _LOOSE
    else:
        raise TypeError(f"not a family: {family!r}")
    return f"({text})" if prec < level else text


def _term(term: Term, scope: _Scope, level: int = _LOOSE) -> str:
    cls = term.__class__
    if cls is Var:
        return scope.show(Var, term.name)
    if cls is Const:
        return pretty_ref(term.ref, _TERM_NAMES)
    if cls is NatLit:
        return str(term.value)
    if cls is PrincipalLit:
        return f"#{term.key_hash.hex()}"
    if cls is Lam:
        var, inner = scope.bind(Var, term.var)
        text = f"\\{var}:{_family(term.domain, scope)}. {_term(term.body, inner)}"
        prec = _LOOSE
    elif cls is App:
        text = f"{_term(term.func, scope, _APP)} {_term(term.arg, scope, _ATOM)}"
        prec = _APP
    else:
        raise TypeError(f"not a term: {term!r}")
    return f"({text})" if prec < level else text


def _cond(cond: Condition, scope: _Scope, level: int = _LOOSE) -> str:
    cls = cond.__class__
    if cls is CTrue:
        return "true"
    if cls is Before:
        return f"before({_term(cond.time, scope)})"
    if cls is Spent:
        return f"spent(0x{cond.txid.hex()}.{cond.index})"
    if cls is CNot:
        return f"~{_cond(cond.body, scope, _ATOM)}"
    if cls is CAnd:
        text = f"{_cond(cond.left, scope)} /\\ {_cond(cond.right, scope, _ATOM)}"
        return f"({text})" if level > _LOOSE else text
    raise TypeError(f"not a condition: {cond!r}")


def _prop(prop: Proposition, scope: _Scope, level: int = _LOOSE) -> str:
    cls = prop.__class__
    # The prefix forms and atoms: no context binds tighter.
    if cls is Atom:
        return _family(prop.family, scope, _APP)
    if cls is Zero:
        return "0"
    if cls is One:
        return "1"
    if cls is Bang:
        return f"!{_prop(prop.body, scope, _PREFIX)}"
    if cls is Says:
        return f"[{_term(prop.principal, scope)}] {_prop(prop.body, scope, _PREFIX)}"
    if cls is IfProp:
        return f"if({_cond(prop.condition, scope)}, {_prop(prop.body, scope)})"
    if cls is Receipt:
        body, amount = prop.prop, prop.amount
        if body.__class__ is One and amount:
            sent = str(amount)
        elif amount or body.__class__ in (One, Zero):
            # A bare 1 or 0 would read back as an amount.
            sent = f"{_prop(body, scope)}/{amount}"
        else:
            sent = _prop(body, scope)
        return f"receipt({sent} ->> {_term(prop.recipient, scope)})"
    if cls is Lolli:
        left = _prop(prop.antecedent, scope, _PLUS)
        text, prec = f"{left} -o {_prop(prop.consequent, scope)}", _LOOSE
    elif cls is Plus:
        text = f"{_prop(prop.left, scope, _PLUS)} + {_prop(prop.right, scope, _WITH)}"
        prec = _PLUS
    elif cls is With:
        text = f"{_prop(prop.left, scope, _WITH)} & {_prop(prop.right, scope, _TENSOR)}"
        prec = _WITH
    elif cls is Tensor:
        left = _prop(prop.left, scope, _TENSOR)
        text, prec = f"{left} * {_prop(prop.right, scope, _PREFIX)}", _TENSOR
    elif cls is Forall or cls is Exists:
        var, inner = scope.bind(Var, prop.var)
        quantifier = "forall" if cls is Forall else "exists"
        text = (
            f"{quantifier} {var}:{_family(prop.domain, scope)}."
            f" {_prop(prop.body, inner)}"
        )
        prec = _LOOSE
    else:
        raise TypeError(f"not a proposition: {prop!r}")
    return f"({text})" if prec < level else text


def _proof(proof: pt.ProofTerm, scope: _Scope, level: int = _LOOSE) -> str:
    cls = proof.__class__
    # Atoms: a variable, a constant, or a form that closes its own brackets.
    if cls is pt.PVar:
        return scope.show(pt.PVar, proof.name)
    if cls is pt.PConst:
        return pretty_ref(proof.ref)
    if cls is pt.OneIntro:
        return "<>"
    if cls is pt.WithIntro:
        return f"({_proof(proof.left, scope)}, {_proof(proof.right, scope)})"
    if cls is pt.ExistsIntro:
        return (
            f"pack[{_prop(proof.annotation, scope)}]"
            f"({_term(proof.witness, scope)}, {_proof(proof.body, scope)})"
        )
    if cls is pt.SayReturn:
        principal = _term(proof.principal, scope)
        return f"sayreturn[{principal}]({_proof(proof.body, scope)})"
    if cls is pt.IfReturn or cls is pt.IfWeaken:
        keyword = "ifreturn" if cls is pt.IfReturn else "ifweaken"
        condition = _cond(proof.condition, scope)
        return f"{keyword}[{condition}]({_proof(proof.body, scope)})"
    if cls is pt.IfSay:
        return f"ifsay({_proof(proof.body, scope)})"
    if cls is pt.Assert or cls is pt.AssertPersistent:
        keyword = "assert" if cls is pt.Assert else "assertp"
        signed = proof.affirmation
        return (
            f"{keyword}[{_term(proof.principal, scope)}]({_prop(proof.prop, scope)};"
            f" 0x{signed.pubkey.hex()}; 0x{signed.signature.hex()})"
        )
    # Prefix forms, over an atom.
    if cls is pt.WithFst or cls is pt.WithSnd:
        keyword = "fst" if cls is pt.WithFst else "snd"
        text, prec = f"{keyword} {_proof(proof.body, scope, _ATOM)}", _PREFIX
    elif cls is pt.PlusInl or cls is pt.PlusInr:
        keyword = "inl" if cls is pt.PlusInl else "inr"
        text = (
            f"{keyword}[{_prop(proof.other, scope)}] {_proof(proof.body, scope, _ATOM)}"
        )
        prec = _PREFIX
    elif cls is pt.ZeroElim:
        text = (
            f"abort[{_prop(proof.annotation, scope)}]"
            f" {_proof(proof.scrutinee, scope, _ATOM)}"
        )
        prec = _PREFIX
    elif cls is pt.BangIntro:
        text, prec = f"!{_proof(proof.body, scope, _ATOM)}", _PREFIX
    # Application, and ⊗.
    elif cls is pt.LolliElim:
        text = f"{_proof(proof.func, scope, _APP)} {_proof(proof.arg, scope, _ATOM)}"
        prec = _APP
    elif cls is pt.ForallElim:
        text = f"{_proof(proof.body, scope, _APP)} [{_term(proof.arg, scope)}]"
        prec = _APP
    elif cls is pt.TensorIntro:
        text = (
            f"{_proof(proof.left, scope, _TENSOR)} *"
            f" {_proof(proof.right, scope, _PREFIX)}"
        )
        prec = _TENSOR
    else:
        prec = _LOOSE  # a binder: its body extends as far right as it can
        if cls is pt.LolliIntro:
            var, inner = scope.bind(pt.PVar, proof.var)
            text = f"fn {var} : {_prop(proof.annotation, scope)}."
        elif cls is pt.ForallIntro:
            var, inner = scope.bind(Var, proof.var)
            text = f"tfn {var} : {_family(proof.domain, scope)}."
        elif cls is pt.TensorElim:
            left, inner = scope.bind(pt.PVar, proof.left_var)
            right, inner = inner.bind(pt.PVar, proof.right_var)
            text = f"let {left} * {right} = {_proof(proof.scrutinee, scope)} in"
        elif cls is pt.OneElim:
            inner = scope
            text = f"let <> = {_proof(proof.scrutinee, scope)} in"
        elif cls is pt.BangElim:
            var, inner = scope.bind(pt.PVar, proof.var)
            text = f"let !{var} = {_proof(proof.scrutinee, scope)} in"
        elif cls is pt.ExistsElim:
            type_var, inner = scope.bind(Var, proof.type_var)
            proof_var, inner = inner.bind(pt.PVar, proof.proof_var)
            text = (
                f"let ({type_var}, {proof_var}) ="
                f" unpack {_proof(proof.scrutinee, scope)} in"
            )
        elif cls is pt.SayBind or cls is pt.IfBind:
            keyword = "saybind" if cls is pt.SayBind else "ifbind"
            var, inner = scope.bind(pt.PVar, proof.var)
            text = f"{keyword} {var} <- {_proof(proof.scrutinee, scope)} in"
        elif cls is pt.PlusCase:
            left, left_scope = scope.bind(pt.PVar, proof.left_var)
            right, inner = scope.bind(pt.PVar, proof.right_var)
            text = (
                f"case {_proof(proof.scrutinee, scope)} of"
                f" inl {left} => {_proof(proof.left_body, left_scope)}"
                f" | inr {right} =>"
            )
        else:
            raise TypeError(f"not a proof term: {proof!r}")
        body = proof.right_body if cls is pt.PlusCase else proof.body
        text = f"{text} {_proof(body, inner)}"
    return f"({text})" if prec < level else text


_WRITERS = {
    cls: write
    for union, write in (
        (KindT, _kind), (TypeFamily, _family), (Term, _term), (Condition, _cond),
        (Proposition, _prop), (pt.ProofTerm, _proof),
    )
    for cls in typing.get_args(union)
}


def pretty(node) -> str:
    """``node`` — a member of any of the six syntactic unions, or a
    ``ConstRef`` — in the surface syntax: what ``str(node)`` returns."""
    if node.__class__ is ConstRef:
        return pretty_ref(node)
    return _WRITERS[node.__class__](node, _Scope.around(node))


# The one printer, under the name of each category the parser reads.
pretty_kind = pretty_family = pretty_term = pretty_cond = pretty_prop = pretty
pretty_proof = pretty
