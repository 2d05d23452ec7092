"""Tokenizer for the Typecoin surface syntax.

Hand-rolled maximal-munch lexer with source positions for error messages.
Comments run from ``#`` to end of line — except that ``#`` immediately
followed by 40 hex digits is a principal literal, so principal literals lex
before comments.  A name that is not an identifier is written between
double quotes, with ``\\"`` and ``\\\\`` escaped (``this."option-good"``),
and lexes as one identifier token.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class LexError(Exception):
    """Raised on unrecognized input, with line/column context."""


class TokenKind(enum.Enum):
    IDENT = "ident"
    NUMBER = "number"
    PRINCIPAL = "principal"
    HEXBLOB = "hexblob"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    DOT = "."
    COMMA = ","
    COLON = ":"
    SLASH = "/"
    LOLLI = "-o"
    ARROW = "->"
    SENDS = "->>"
    STAR = "*"
    AMP = "&"
    PLUS = "+"
    BANG = "!"
    TILDE = "~"
    WEDGE = "/\\"
    BACKSLASH = "\\"
    EQUALS = "="
    FATARROW = "=>"
    LARROW = "<-"
    DIAMOND = "<>"
    SEMI = ";"
    PIPE = "|"
    EOF = "eof"


KEYWORDS = frozenset({
    "forall", "exists", "if", "receipt", "before", "spent", "true",
    "pi", "type", "prop", "this", "builtin", "family", "term", "rule",
    # proof-term keywords
    "fn", "tfn", "let", "in", "unpack", "case", "of", "inl", "inr",
    "fst", "snd", "abort", "pack", "sayreturn", "saybind", "assert",
    "assertp", "ifreturn", "ifbind", "ifweaken", "ifsay",
})


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    column: int

    @property
    def is_keyword(self) -> bool:
        return self.kind is TokenKind.IDENT and self.text in KEYWORDS


_SIMPLE = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ".": TokenKind.DOT,
    ",": TokenKind.COMMA,
    ":": TokenKind.COLON,
    "*": TokenKind.STAR,
    "&": TokenKind.AMP,
    "+": TokenKind.PLUS,
    "!": TokenKind.BANG,
    "~": TokenKind.TILDE,
    "\\": TokenKind.BACKSLASH,
    "=": TokenKind.EQUALS,
    ";": TokenKind.SEMI,
    "|": TokenKind.PIPE,
}

_HEX = set("0123456789abcdefABCDEF")


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_'"


def is_identifier(text: str) -> bool:
    """Whether ``text`` lexes as exactly one unquoted identifier."""
    return bool(text) and _is_ident_start(text[0]) and all(
        map(_is_ident_char, text[1:])
    )


def tokenize(source: str) -> list[Token]:
    """Lex ``source`` into a token list ending with EOF."""
    tokens: list[Token] = []
    i = 0
    line = 1
    line_start = 0

    def here() -> tuple[int, int]:
        return line, i - line_start + 1

    while i < len(source):
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch.isspace():
            i += 1
            continue
        ln, col = here()
        if ch == "#":
            # Principal literal (#<40 hex>) or comment.
            run = 0
            while i + 1 + run < len(source) and source[i + 1 + run] in _HEX:
                run += 1
            if run >= 40:
                text = source[i + 1 : i + 41]
                tokens.append(Token(TokenKind.PRINCIPAL, text.lower(), ln, col))
                i += 41
                continue
            while i < len(source) and source[i] != "\n":
                i += 1
            continue
        if source.startswith("->>", i):
            tokens.append(Token(TokenKind.SENDS, "->>", ln, col))
            i += 3
            continue
        if source.startswith("->", i):
            tokens.append(Token(TokenKind.ARROW, "->", ln, col))
            i += 2
            continue
        if source.startswith("-o", i):
            tokens.append(Token(TokenKind.LOLLI, "-o", ln, col))
            i += 2
            continue
        if source.startswith("/\\", i):
            tokens.append(Token(TokenKind.WEDGE, "/\\", ln, col))
            i += 2
            continue
        if source.startswith("=>", i):
            tokens.append(Token(TokenKind.FATARROW, "=>", ln, col))
            i += 2
            continue
        if source.startswith("<-", i):
            tokens.append(Token(TokenKind.LARROW, "<-", ln, col))
            i += 2
            continue
        if source.startswith("<>", i):
            tokens.append(Token(TokenKind.DIAMOND, "<>", ln, col))
            i += 2
            continue
        if ch == "/":
            tokens.append(Token(TokenKind.SLASH, "/", ln, col))
            i += 1
            continue
        if ch == "0" and source.startswith("0x", i):
            j = i + 2
            while j < len(source) and source[j] in _HEX:
                j += 1
            if j == i + 2:
                raise LexError(f"empty hex blob at line {ln}, column {col}")
            tokens.append(Token(TokenKind.HEXBLOB, source[i + 2 : j].lower(), ln, col))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < len(source) and source[j].isdigit():
                j += 1
            tokens.append(Token(TokenKind.NUMBER, source[i:j], ln, col))
            i = j
            continue
        if _is_ident_start(ch):
            j = i
            while j < len(source) and _is_ident_char(source[j]):
                j += 1
            tokens.append(Token(TokenKind.IDENT, source[i:j], ln, col))
            i = j
            continue
        if ch == '"':
            j, name = i + 1, []
            while j < len(source) and source[j] != '"':
                j += source[j] == "\\"  # the escaped character is taken as is
                name.append(source[j : j + 1])
                j += 1
            if j >= len(source):
                raise LexError(f"unterminated quoted name at line {ln}, column {col}")
            tokens.append(Token(TokenKind.IDENT, "".join(name), ln, col))
            i = j + 1
            continue
        if ch in _SIMPLE:
            tokens.append(Token(_SIMPLE[ch], ch, ln, col))
            i += 1
            continue
        raise LexError(f"unexpected character {ch!r} at line {ln}, column {col}")

    tokens.append(Token(TokenKind.EOF, "", line, len(source) - line_start + 1))
    return tokens
