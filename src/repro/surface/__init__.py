"""A human-writable surface syntax for the Typecoin logic.

The paper presents the logic mathematically (Figure 1); any usable client
needs a concrete syntax for writing bases, propositions, and conditions.
This package provides a lexer, a recursive-descent parser, and the one
printer — ``str`` of every syntax node — that round-trip::

    coin : pi n:nat. prop
    merge : forall N:nat. forall M:nat. forall P:nat.
            (exists x:plus N M P. 1) -o coin N * coin M -o coin P

ASCII operator table (with the paper's notation):

=========  ==============  =========================
surface    paper           meaning
=========  ==============  =========================
``-o``     ⊸               affine implication
``*``      ⊗               simultaneous conjunction
``&``      &               external choice
``+``      ⊕               internal choice
``!``      !               exponential
``[m] A``  ⟨m⟩A            affirmation
``->>``    ↠               receipt direction
``/\\``    ∧               condition conjunction
``~``      ¬               condition negation
=========  ==============  =========================
"""

from repro.surface.lexer import LexError, Token, TokenKind, tokenize
from repro.surface.parser import (
    ParseError,
    Parser,
    Resolver,
    parse_basis_text,
    parse_cond,
    parse_family,
    parse_kind,
    parse_prop,
    parse_term,
)
from repro.surface.pretty import (
    pretty,
    pretty_cond,
    pretty_family,
    pretty_kind,
    pretty_proof,
    pretty_prop,
    pretty_term,
)
from repro.surface.proofs import ProofParser, parse_proof

__all__ = [
    "LexError",
    "Token",
    "TokenKind",
    "tokenize",
    "ParseError",
    "Parser",
    "Resolver",
    "parse_basis_text",
    "parse_cond",
    "parse_family",
    "parse_kind",
    "parse_prop",
    "parse_term",
    "ProofParser",
    "parse_proof",
    "pretty",
    "pretty_proof",
    "pretty_cond",
    "pretty_family",
    "pretty_kind",
    "pretty_prop",
    "pretty_term",
]
