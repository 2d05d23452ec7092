"""Surface syntax for proof terms: the parser (the printer is
:mod:`repro.surface.pretty`, as for every other category).

Completes the concrete language: bases, propositions, and conditions parse
already; this module adds the proof terms of Figure 1, in an ML-flavored
notation::

    fn x : coin 1 * coin 2.
      let a * b = x in (b * a)

    saybind f <- p in sayreturn[#aa…aa](f r)

    ifweaken[~spent(0x….0) /\\ before(100)](y)

Operator table:

==========================  ==========================================
surface                     proof term
==========================  ==========================================
``fn x : A. M``             λx:A.M (⊸ intro)
``tfn u : τ. M``            Λu:τ.M (∀ intro)
``M N``                     application (⊸ elim)
``M [m]``                   ∀ elim
``M * N``                   ⊗ intro
``let x * y = M in N``      ⊗ elim
``(M, N)``                  & intro
``fst M`` / ``snd M``       & elim
``inl[B] M`` / ``inr[A]``   ⊕ intro
``case M of inl x => N₁
| inr y => N₂``             ⊕ elim
``<>``                      1 intro
``let <> = M in N``         1 elim
``abort[C] M``              0 elim
``!M``                      ! intro
``let !x = M in N``         ! elim
``pack[∃u:τ.A](m, M)``      ∃ intro
``let (u, x) = unpack M
in N``                      ∃ elim
``sayreturn[m](M)``         affirmation unit
``saybind x <- M in N``     affirmation bind
``assert[K](A; pk; sig)``   affine affirmation (hex-blob key/signature)
``assertp[K](A; pk; sig)``  persistent affirmation
``ifreturn[φ](M)``          conditional unit
``ifbind x <- M in N``      conditional bind
``ifweaken[φ](M)``          conditional weakening
``ifsay(M)``                the if/say commutation
==========================  ==========================================
"""

from __future__ import annotations

from repro.logic import proofterms as pt
from repro.surface.lexer import TokenKind
from repro.surface.parser import Parser, Resolver


class ProofParser(Parser):
    """Extends the logic parser with proof terms."""

    def __init__(self, source: str, resolver: Resolver | None = None):
        super().__init__(source, resolver)
        self.proof_bound: list[str] = []

    # -- entry ------------------------------------------------------------

    def parse_proof(self) -> pt.ProofTerm:
        if self._accept(TokenKind.IDENT, "fn"):
            var = self._expect(TokenKind.IDENT).text
            self._expect(TokenKind.COLON)
            annotation = self.parse_prop()
            self._expect(TokenKind.DOT)
            body = self._in_proof_scope(var, self.parse_proof)
            return pt.LolliIntro(var, annotation, body)
        if self._accept(TokenKind.IDENT, "tfn"):
            var = self._expect(TokenKind.IDENT).text
            self._expect(TokenKind.COLON)
            domain = self.parse_family()
            self._expect(TokenKind.DOT)
            self.bound.append(var)
            try:
                body = self.parse_proof()
            finally:
                self.bound.pop()
            return pt.ForallIntro(var, domain, body)
        if self._accept(TokenKind.IDENT, "let"):
            return self._parse_let()
        if self._accept(TokenKind.IDENT, "case"):
            scrutinee = self.parse_proof()
            self._expect(TokenKind.IDENT, "of")
            self._expect(TokenKind.IDENT, "inl")
            left_var = self._expect(TokenKind.IDENT).text
            self._expect(TokenKind.FATARROW)
            left_body = self._in_proof_scope(left_var, self.parse_proof)
            self._expect(TokenKind.PIPE)
            self._expect(TokenKind.IDENT, "inr")
            right_var = self._expect(TokenKind.IDENT).text
            self._expect(TokenKind.FATARROW)
            right_body = self._in_proof_scope(right_var, self.parse_proof)
            return pt.PlusCase(scrutinee, left_var, left_body, right_var, right_body)
        if self._accept(TokenKind.IDENT, "saybind"):
            return self._parse_bind(pt.SayBind)
        if self._accept(TokenKind.IDENT, "ifbind"):
            return self._parse_bind(pt.IfBind)
        return self._parse_tensor_level()

    def _in_proof_scope(self, var: str, thunk):
        self.proof_bound.append(var)
        try:
            return thunk()
        finally:
            self.proof_bound.pop()

    def _parse_bind(self, ctor):
        var = self._expect(TokenKind.IDENT).text
        self._expect(TokenKind.LARROW)
        scrutinee = self.parse_proof()
        self._expect(TokenKind.IDENT, "in")
        body = self._in_proof_scope(var, self.parse_proof)
        return ctor(var, scrutinee, body)

    def _parse_let(self) -> pt.ProofTerm:
        if self._accept(TokenKind.DIAMOND):
            self._expect(TokenKind.EQUALS)
            scrutinee = self.parse_proof()
            self._expect(TokenKind.IDENT, "in")
            return pt.OneElim(scrutinee, self.parse_proof())
        if self._accept(TokenKind.BANG):
            var = self._expect(TokenKind.IDENT).text
            self._expect(TokenKind.EQUALS)
            scrutinee = self.parse_proof()
            self._expect(TokenKind.IDENT, "in")
            body = self._in_proof_scope(var, self.parse_proof)
            return pt.BangElim(var, scrutinee, body)
        if self._accept(TokenKind.LPAREN):
            type_var = self._expect(TokenKind.IDENT).text
            self._expect(TokenKind.COMMA)
            proof_var = self._expect(TokenKind.IDENT).text
            self._expect(TokenKind.RPAREN)
            self._expect(TokenKind.EQUALS)
            self._expect(TokenKind.IDENT, "unpack")
            scrutinee = self.parse_proof()
            self._expect(TokenKind.IDENT, "in")
            self.bound.append(type_var)
            try:
                body = self._in_proof_scope(proof_var, self.parse_proof)
            finally:
                self.bound.pop()
            return pt.ExistsElim(type_var, proof_var, scrutinee, body)
        left_var = self._expect(TokenKind.IDENT).text
        self._expect(TokenKind.STAR)
        right_var = self._expect(TokenKind.IDENT).text
        self._expect(TokenKind.EQUALS)
        scrutinee = self.parse_proof()
        self._expect(TokenKind.IDENT, "in")
        self.proof_bound.extend((left_var, right_var))
        try:
            body = self.parse_proof()
        finally:
            del self.proof_bound[-2:]
        return pt.TensorElim(left_var, right_var, scrutinee, body)

    # -- tensor / application levels -----------------------------------------

    def _parse_tensor_level(self) -> pt.ProofTerm:
        term = self._parse_app_level()
        while self._accept(TokenKind.STAR):
            term = pt.TensorIntro(term, self._parse_app_level())
        return term

    def _parse_app_level(self) -> pt.ProofTerm:
        term = self._parse_proof_atom()
        while True:
            if self._accept(TokenKind.LBRACKET):
                arg = self.parse_term()
                self._expect(TokenKind.RBRACKET)
                term = pt.ForallElim(term, arg)
            elif self._at_proof_atom():
                term = pt.LolliElim(term, self._parse_proof_atom())
            else:
                return term

    def _at_proof_atom(self) -> bool:
        if self.current.kind in (
            TokenKind.DIAMOND, TokenKind.BANG, TokenKind.LPAREN, TokenKind.HEXBLOB
        ):
            return True
        if self._check(TokenKind.IDENT):
            text = self.current.text
            if text in ("fst", "snd", "inl", "inr", "abort", "pack",
                        "sayreturn", "ifreturn", "ifweaken", "ifsay",
                        "assert", "assertp", "this", "builtin"):
                return True
            if self.current.is_keyword:
                return False
            return (
                text in self.proof_bound
                or text in self.resolver.props
            )
        return False

    def _parse_proof_atom(self) -> pt.ProofTerm:
        if self._accept(TokenKind.DIAMOND):
            return pt.OneIntro()
        if self._accept(TokenKind.BANG):
            return pt.BangIntro(self._parse_proof_atom())
        if self._accept(TokenKind.IDENT, "fst"):
            return pt.WithFst(self._parse_proof_atom())
        if self._accept(TokenKind.IDENT, "snd"):
            return pt.WithSnd(self._parse_proof_atom())
        if self._accept(TokenKind.IDENT, "inl"):
            other = self._bracketed_prop()
            return pt.PlusInl(other, self._parse_proof_atom())
        if self._accept(TokenKind.IDENT, "inr"):
            other = self._bracketed_prop()
            return pt.PlusInr(other, self._parse_proof_atom())
        if self._accept(TokenKind.IDENT, "abort"):
            annotation = self._bracketed_prop()
            return pt.ZeroElim(self._parse_proof_atom(), annotation)
        if self._accept(TokenKind.IDENT, "pack"):
            annotation = self._bracketed_prop()
            self._expect(TokenKind.LPAREN)
            witness = self.parse_term()
            self._expect(TokenKind.COMMA)
            body = self.parse_proof()
            self._expect(TokenKind.RPAREN)
            return pt.ExistsIntro(annotation, witness, body)
        if self._accept(TokenKind.IDENT, "sayreturn"):
            self._expect(TokenKind.LBRACKET)
            principal = self.parse_term()
            self._expect(TokenKind.RBRACKET)
            return pt.SayReturn(principal, self._parenthesized_proof())
        if self._accept(TokenKind.IDENT, "ifreturn"):
            self._expect(TokenKind.LBRACKET)
            condition = self.parse_cond()
            self._expect(TokenKind.RBRACKET)
            return pt.IfReturn(condition, self._parenthesized_proof())
        if self._accept(TokenKind.IDENT, "ifweaken"):
            self._expect(TokenKind.LBRACKET)
            condition = self.parse_cond()
            self._expect(TokenKind.RBRACKET)
            return pt.IfWeaken(condition, self._parenthesized_proof())
        if self._accept(TokenKind.IDENT, "ifsay"):
            return pt.IfSay(self._parenthesized_proof())
        if self._check(TokenKind.IDENT, "assert") or self._check(
            TokenKind.IDENT, "assertp"
        ):
            persistent = self._advance().text == "assertp"
            self._expect(TokenKind.LBRACKET)
            principal = self.parse_term()
            self._expect(TokenKind.RBRACKET)
            self._expect(TokenKind.LPAREN)
            prop = self.parse_prop()
            self._expect(TokenKind.SEMI)
            pubkey = bytes.fromhex(self._expect(TokenKind.HEXBLOB).text)
            self._expect(TokenKind.SEMI)
            signature = bytes.fromhex(self._expect(TokenKind.HEXBLOB).text)
            self._expect(TokenKind.RPAREN)
            ctor = pt.AssertPersistent if persistent else pt.Assert
            return ctor(principal, prop, pt.Affirmation(pubkey, signature))
        if self._accept(TokenKind.LPAREN):
            first = self.parse_proof()
            if self._accept(TokenKind.COMMA):
                second = self.parse_proof()
                self._expect(TokenKind.RPAREN)
                return pt.WithIntro(first, second)
            self._expect(TokenKind.RPAREN)
            return first
        qualified = self._qualified()
        if qualified is not None:
            return pt.PConst(qualified)
        if self._check(TokenKind.IDENT) and not self.current.is_keyword:
            name = self._advance().text
            if name in self.proof_bound:
                return pt.PVar(name)
            ref = self.resolver.props.get(name)
            if ref is not None:
                return pt.PConst(ref)
            raise self._fail(f"unknown proof identifier {name!r}")
        raise self._fail("expected a proof term")

    def _bracketed_prop(self):
        self._expect(TokenKind.LBRACKET)
        prop = self.parse_prop()
        self._expect(TokenKind.RBRACKET)
        return prop

    def _parenthesized_proof(self) -> pt.ProofTerm:
        self._expect(TokenKind.LPAREN)
        proof = self.parse_proof()
        self._expect(TokenKind.RPAREN)
        return proof


def parse_proof(source: str, resolver: Resolver | None = None) -> pt.ProofTerm:
    parser = ProofParser(source, resolver)
    proof = parser.parse_proof()
    parser._expect_eof()
    return proof

