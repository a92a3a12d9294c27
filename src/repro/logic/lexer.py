"""Lexer for the Jahob-flavoured specification syntax.

The surface syntax follows the paper's figures and tables: ``&``, ``|``,
``-->``, ``<->``, ``~`` (negation), ``~=`` (disequality), ``:`` and ``~:``
(set membership), ``ALL``/``EX`` quantifiers, ``s1.contents`` field access,
``s1.contains(v1)`` observer calls, and ``s2[i]`` sequence indexing.

Identifiers are interned (:func:`sys.intern`): a catalog's formulas
name the same few variables, fields and observers thousands of times,
and every parse of them shares one string per name.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass


class LexError(ValueError):
    """Raised on an unrecognized character."""


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


_SYMBOLS = [
    # Longest-match first.
    ("-->", "ARROW"),
    ("<->", "IFF"),
    ("~=", "NEQ"),
    ("~:", "NOTIN"),
    ("<=", "LE"),
    (">=", "GE"),
    ("::", "DCOLON"),
    ("(", "LPAREN"),
    (")", "RPAREN"),
    ("[", "LBRACK"),
    ("]", "RBRACK"),
    ("{", "LBRACE"),
    ("}", "RBRACE"),
    (",", "COMMA"),
    (".", "DOT"),
    ("|", "OR"),
    ("&", "AND"),
    ("~", "NOT"),
    ("=", "EQ"),
    ("<", "LT"),
    (">", "GT"),
    ("+", "PLUS"),
    ("-", "MINUS"),
    (":", "IN"),
]

_KEYWORDS = {
    "true": "TRUE",
    "false": "FALSE",
    "null": "NULL",
    "ALL": "ALL",
    "EX": "EX",
    "Un": "UN",
}


def tokenize(text: str) -> list[Token]:
    """Convert ``text`` into a token list ending with an EOF token."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = sys.intern(text[i:j])
            tokens.append(Token(_KEYWORDS.get(word, "IDENT"), word, i))
            i = j
            continue
        for sym, kind in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token(kind, sym, i))
                i += len(sym)
                break
        else:
            raise LexError(f"unexpected character {ch!r} at position {i}")
    tokens.append(Token("EOF", "", n))
    return tokens
