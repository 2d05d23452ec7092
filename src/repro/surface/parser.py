"""Recursive-descent parser for the Typecoin surface syntax.

Precedence (loosest to tightest): ``-o`` (right-associative), ``+``, ``&``,
``*`` (all left-associative), then the prefix forms (``!``, ``[m]``,
quantifiers, ``if``, ``receipt``), then atoms.  Quantifier bodies extend as
far right as possible, as in the paper.

Names resolve through a :class:`Resolver`: bare identifiers look up local
(``this.x``) or imported constants; ``this.x``, ``0x<txid>.x`` and
``builtin.x`` are always available in qualified form; ``time`` aliases
``nat`` (paper fn. 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lf.basis import (
    ADD,
    Basis,
    KindDecl,
    NAT,
    PLUS,
    PLUS_REFL,
    PRINCIPAL,
    PropDecl,
    TypeDecl,
)
from repro.lf.syntax import (
    App,
    BUILTIN,
    Const,
    ConstRef,
    KIND_PROP,
    KIND_TYPE,
    KindT,
    KPi,
    Lam,
    NatLit,
    PrincipalLit,
    TApp,
    TConst,
    THIS,
    TPi,
    Term,
    TypeFamily,
    Var,
    fresh_name,
)
from repro.logic.conditions import (
    Before,
    CAnd,
    CNot,
    Condition,
    CTrue,
    Spent,
)
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
from repro.surface.lexer import Token, TokenKind, tokenize


class ParseError(Exception):
    """Raised on syntax or resolution errors, with position context."""


# The builtins read by a bare name, by position.
BUILTIN_FAMILIES = {
    "nat": NAT,
    "time": NAT,  # "The type time is actually just nat" (paper fn. 10)
    "principal": PRINCIPAL,
    "plus": PLUS,
}

BUILTIN_TERMS = {
    "add": ADD,
    "plus_refl": PLUS_REFL,
}


@dataclass
class Resolver:
    """Maps bare identifiers to fully-qualified constant references."""

    families: dict[str, ConstRef] = field(default_factory=dict)
    terms: dict[str, ConstRef] = field(default_factory=dict)
    props: dict[str, ConstRef] = field(default_factory=dict)

    def family(self, name: str) -> ConstRef | None:
        return self.families.get(name) or BUILTIN_FAMILIES.get(name)

    def term(self, name: str) -> ConstRef | None:
        return self.terms.get(name) or BUILTIN_TERMS.get(name)


class Parser:
    """One-token-lookahead recursive descent over the token list."""

    def __init__(self, source: str, resolver: Resolver | None = None):
        self.tokens = tokenize(source)
        self.pos = 0
        self.resolver = resolver or Resolver()
        self.bound: list[str] = []

    # -- token plumbing -------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def _advance(self) -> Token:
        token = self.current
        self.pos += 1
        return token

    def _check(self, kind: TokenKind, text: str | None = None) -> bool:
        token = self.current
        return token.kind is kind and (text is None or token.text == text)

    def _accept(self, kind: TokenKind, text: str | None = None) -> Token | None:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, text: str | None = None) -> Token:
        token = self._accept(kind, text)
        if token is None:
            want = text or kind.value
            got = self.current.text or self.current.kind.value
            raise ParseError(
                f"expected {want!r}, got {got!r} at line {self.current.line},"
                f" column {self.current.column}"
            )
        return token

    def _expect_eof(self) -> None:
        self._expect(TokenKind.EOF)

    def _fail(self, message: str) -> ParseError:
        return ParseError(
            f"{message} at line {self.current.line}, column"
            f" {self.current.column}"
        )

    # -- qualified names ------------------------------------------------

    def _qualified(self) -> ConstRef | None:
        """``this.x``, ``builtin.x`` or ``0x<txid>.x`` — None if not at a
        qualifier."""
        if self._accept(TokenKind.IDENT, "this"):
            space = THIS
        elif self._accept(TokenKind.IDENT, "builtin"):
            space = BUILTIN
        elif self._check(TokenKind.HEXBLOB):
            blob = self._advance()
            if len(blob.text) != 64:
                raise self._fail("transaction ids are 32 bytes (64 hex digits)")
            space = bytes.fromhex(blob.text)
        else:
            return None
        self._expect(TokenKind.DOT)
        return ConstRef(space, self._expect(TokenKind.IDENT).text)

    # -- kinds ------------------------------------------------------------

    def parse_kind(self) -> KindT:
        if self._accept(TokenKind.IDENT, "type"):
            return KIND_TYPE
        if self._accept(TokenKind.IDENT, "prop"):
            return KIND_PROP
        if self._accept(TokenKind.IDENT, "pi"):
            var = self._expect(TokenKind.IDENT).text
            self._expect(TokenKind.COLON)
            domain = self.parse_family()
            self._expect(TokenKind.DOT)
            body = self.parse_kind()
            return KPi(var, domain, body)
        raise self._fail("expected a kind (type, prop, or pi)")

    # -- type families ----------------------------------------------------

    def parse_family(self) -> TypeFamily:
        if self._accept(TokenKind.IDENT, "pi"):
            var = self._expect(TokenKind.IDENT).text
            self._expect(TokenKind.COLON)
            domain = self.parse_family()
            self._expect(TokenKind.DOT)
            self.bound.append(var)
            try:
                body = self.parse_family()
            finally:
                self.bound.pop()
            return TPi(var, domain, body)
        head = self._family_app()
        if self._accept(TokenKind.ARROW):
            body = self.parse_family()
            return TPi(fresh_name("_"), head, body)
        return head

    def _family_app(self) -> TypeFamily:
        family = self._family_atom()
        while self._at_term_atom():
            family = TApp(family, self._term_atom())
        return family

    def _family_atom(self) -> TypeFamily:
        qualified = self._qualified()
        if qualified is not None:
            return TConst(qualified)
        if self._check(TokenKind.IDENT) and not self.current.is_keyword:
            name = self.current.text
            ref = self.resolver.family(name)
            if ref is None:
                raise self._fail(f"unknown type family {name!r}")
            self._advance()
            return TConst(ref)
        if self._accept(TokenKind.LPAREN):
            family = self.parse_family()
            self._expect(TokenKind.RPAREN)
            return family
        raise self._fail("expected a type family")

    # -- index terms --------------------------------------------------------

    def parse_term(self) -> Term:
        if self._accept(TokenKind.BACKSLASH):
            var = self._expect(TokenKind.IDENT).text
            self._expect(TokenKind.COLON)
            domain = self.parse_family()
            self._expect(TokenKind.DOT)
            self.bound.append(var)
            try:
                body = self.parse_term()
            finally:
                self.bound.pop()
            return Lam(var, domain, body)
        term = self._term_atom()
        while self._at_term_atom():
            term = App(term, self._term_atom())
        return term

    def _at_term_atom(self) -> bool:
        if self._check(TokenKind.NUMBER) or self._check(TokenKind.PRINCIPAL):
            return True
        if self._check(TokenKind.LPAREN):
            return True
        if self._check(TokenKind.HEXBLOB):
            return True
        if self._check(TokenKind.IDENT) and not self.current.is_keyword:
            name = self.current.text
            return (
                name in self.bound
                or self.resolver.term(name) is not None
            )
        return self._check(TokenKind.IDENT, "this") or self._check(
            TokenKind.IDENT, "builtin"
        )

    def _term_atom(self) -> Term:
        number = self._accept(TokenKind.NUMBER)
        if number is not None:
            return NatLit(int(number.text))
        principal = self._accept(TokenKind.PRINCIPAL)
        if principal is not None:
            return PrincipalLit(bytes.fromhex(principal.text))
        qualified = self._qualified()
        if qualified is not None:
            return Const(qualified)
        if self._check(TokenKind.IDENT) and not self.current.is_keyword:
            name = self._advance().text
            if name in self.bound:
                return Var(name)
            ref = self.resolver.term(name)
            if ref is not None:
                return Const(ref)
            raise self._fail(f"unknown term {name!r}")
        if self._accept(TokenKind.LPAREN):
            term = self.parse_term()
            self._expect(TokenKind.RPAREN)
            return term
        raise self._fail("expected a term")

    # -- conditions ----------------------------------------------------------

    def parse_cond(self) -> Condition:
        cond = self._cond_prefix()
        while self._accept(TokenKind.WEDGE):
            cond = CAnd(cond, self._cond_prefix())
        return cond

    def _cond_prefix(self) -> Condition:
        if self._accept(TokenKind.TILDE):
            return CNot(self._cond_prefix())
        if self._accept(TokenKind.IDENT, "true"):
            return CTrue()
        if self._accept(TokenKind.IDENT, "before"):
            self._expect(TokenKind.LPAREN)
            time = self.parse_term()
            self._expect(TokenKind.RPAREN)
            return Before(time)
        if self._accept(TokenKind.IDENT, "spent"):
            self._expect(TokenKind.LPAREN)
            blob = self._expect(TokenKind.HEXBLOB)
            if len(blob.text) != 64:
                raise self._fail("spent() wants a 64-hex-digit txid")
            self._expect(TokenKind.DOT)
            index = self._expect(TokenKind.NUMBER)
            self._expect(TokenKind.RPAREN)
            return Spent(bytes.fromhex(blob.text), int(index.text))
        if self._accept(TokenKind.LPAREN):
            cond = self.parse_cond()
            self._expect(TokenKind.RPAREN)
            return cond
        raise self._fail("expected a condition")

    # -- propositions ----------------------------------------------------------

    def parse_prop(self) -> Proposition:
        left = self._prop_plus()
        if self._accept(TokenKind.LOLLI):
            return Lolli(left, self.parse_prop())
        return left

    def _prop_plus(self) -> Proposition:
        prop = self._prop_with()
        while self._accept(TokenKind.PLUS):
            prop = Plus(prop, self._prop_with())
        return prop

    def _prop_with(self) -> Proposition:
        prop = self._prop_tensor()
        while self._accept(TokenKind.AMP):
            prop = With(prop, self._prop_tensor())
        return prop

    def _prop_tensor(self) -> Proposition:
        prop = self._prop_prefix()
        while self._accept(TokenKind.STAR):
            prop = Tensor(prop, self._prop_prefix())
        return prop

    def _prop_prefix(self) -> Proposition:
        if self._accept(TokenKind.BANG):
            return Bang(self._prop_prefix())
        if self._accept(TokenKind.LBRACKET):
            principal = self.parse_term()
            self._expect(TokenKind.RBRACKET)
            return Says(principal, self._prop_prefix())
        if self._check(TokenKind.IDENT, "forall") or self._check(
            TokenKind.IDENT, "exists"
        ):
            keyword = self._advance().text
            var = self._expect(TokenKind.IDENT).text
            self._expect(TokenKind.COLON)
            domain = self.parse_family()
            self._expect(TokenKind.DOT)
            self.bound.append(var)
            try:
                body = self.parse_prop()
            finally:
                self.bound.pop()
            return (Forall if keyword == "forall" else Exists)(var, domain, body)
        if self._accept(TokenKind.IDENT, "if"):
            self._expect(TokenKind.LPAREN)
            cond = self.parse_cond()
            self._expect(TokenKind.COMMA)
            body = self.parse_prop()
            self._expect(TokenKind.RPAREN)
            return IfProp(cond, body)
        if self._accept(TokenKind.IDENT, "receipt"):
            self._expect(TokenKind.LPAREN)
            prop: Proposition = One()
            amount = 0
            if self._check(TokenKind.NUMBER) and self._peek_is_sends():
                amount = int(self._advance().text)
            else:
                prop = self.parse_prop()
                if self._accept(TokenKind.SLASH):
                    amount = int(self._expect(TokenKind.NUMBER).text)
            self._expect(TokenKind.SENDS)
            recipient = self.parse_term()
            self._expect(TokenKind.RPAREN)
            return Receipt(prop, amount, recipient)
        return self._prop_atom()

    def _peek_is_sends(self) -> bool:
        return self.tokens[self.pos + 1].kind is TokenKind.SENDS

    def _prop_atom(self) -> Proposition:
        if self._check(TokenKind.NUMBER):
            if self.current.text == "0":
                self._advance()
                return Zero()
            if self.current.text == "1":
                self._advance()
                return One()
            raise self._fail("only 0 and 1 are propositions")
        if self._check(TokenKind.LPAREN):
            self._advance()
            prop = self.parse_prop()
            self._expect(TokenKind.RPAREN)
            return prop
        # An atomic proposition: a family constant applied to term atoms.
        qualified = self._qualified()
        if qualified is not None:
            family: TypeFamily = TConst(qualified)
        elif self._check(TokenKind.IDENT) and not self.current.is_keyword:
            name = self.current.text
            ref = self.resolver.family(name)
            if ref is None:
                raise self._fail(f"unknown proposition family {name!r}")
            self._advance()
            family = TConst(ref)
        else:
            raise self._fail("expected a proposition")
        while self._at_term_atom():
            family = TApp(family, self._term_atom())
        return Atom(family)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def parse_kind(source: str, resolver: Resolver | None = None) -> KindT:
    parser = Parser(source, resolver)
    kind = parser.parse_kind()
    parser._expect_eof()
    return kind


def parse_family(source: str, resolver: Resolver | None = None) -> TypeFamily:
    parser = Parser(source, resolver)
    family = parser.parse_family()
    parser._expect_eof()
    return family


def parse_term(source: str, resolver: Resolver | None = None) -> Term:
    parser = Parser(source, resolver)
    term = parser.parse_term()
    parser._expect_eof()
    return term


def parse_cond(source: str, resolver: Resolver | None = None) -> Condition:
    parser = Parser(source, resolver)
    cond = parser.parse_cond()
    parser._expect_eof()
    return cond


def parse_prop(source: str, resolver: Resolver | None = None) -> Proposition:
    parser = Parser(source, resolver)
    prop = parser.parse_prop()
    parser._expect_eof()
    return prop


def parse_basis_text(
    source: str, resolver: Resolver | None = None
) -> tuple[Basis, Resolver]:
    """Parse a local-basis file into declarations.

    Three declaration forms, one per sort::

        family coin : pi n:nat. prop
        term   two  : nat
        rule   merge : forall N:nat. ... -o coin P

    Later declarations may reference earlier ones by bare name; the returned
    resolver includes every declared name (for parsing related propositions).
    """
    resolver = resolver or Resolver()
    basis = Basis()
    parser = Parser(source, resolver)
    while not parser._check(TokenKind.EOF):
        keyword = parser._expect(TokenKind.IDENT)
        if keyword.text not in ("family", "term", "rule"):
            raise ParseError(
                f"expected 'family', 'term', or 'rule' at line {keyword.line}"
            )
        name = parser._expect(TokenKind.IDENT).text
        parser._expect(TokenKind.COLON)
        ref = ConstRef(THIS, name)
        if keyword.text == "family":
            basis.declare(ref, KindDecl(parser.parse_kind()))
            resolver.families[name] = ref
        elif keyword.text == "term":
            basis.declare(ref, TypeDecl(parser.parse_family()))
            resolver.terms[name] = ref
        else:
            basis.declare(ref, PropDecl(parser.parse_prop()))
            resolver.props[name] = ref
    return basis, resolver
