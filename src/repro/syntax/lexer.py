"""Lexer for the surface language.

The concrete syntax is ML-flavoured (the paper's language is "similar to
Machiavelli").  Notable tokens:

* ``:=`` for mutable record fields, ``=>`` for lambda bodies;
* ``c-query`` is lexed as a single keyword token (the paper's spelling);
* ``(* ... *)`` comments nest.

:func:`lift_literals` is a one-pass scan that mirrors :func:`tokenize`
closely enough to find every int and string literal without building
tokens; the session's statement cache keys on its output.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import LexError

__all__ = ["Token", "tokenize", "KEYWORDS", "lift_literals",
           "INT_SLOT", "STRING_SLOT"]

KEYWORDS = frozenset({
    "fn", "let", "in", "end", "val", "fun", "and", "rec", "fix",
    "if", "then", "else", "true", "false", "andalso", "orelse",
    "as", "class", "include", "includes", "where", "select", "from",
    "relation", "insert", "delete", "extract", "update", "query",
    "fuse", "relobj", "IDView", "c-query", "intersect", "objeq", "prod",
})

_PUNCT = [
    ":=", "=>", "->", "<=", ">=", "<", ">", "=", "(", ")", "[", "]",
    "{", "}", ",", ".", ";", ":", "+", "-", "*", "^",
]


@dataclass(frozen=True)
class Token:
    kind: str      # 'int' | 'string' | 'ident' | 'keyword' | 'punct' | 'eof'
    value: str
    line: int
    column: int
    # One past the token's last character (same-line tokens:
    # end_column - column == source width).  0 when unknown.
    end_line: int = 0
    end_column: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.value!r})"


def tokenize(src: str) -> list[Token]:
    """Tokenize ``src``; raises :class:`LexError` on malformed input."""
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(src)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and src[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    def emit(kind: str, value: str, s_line: int, s_col: int) -> None:
        tokens.append(Token(kind, value, s_line, s_col, line, col))

    while i < n:
        ch = src[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if src.startswith("(*", i):
            depth = 1
            start_line, start_col = line, col
            advance(2)
            while i < n and depth:
                if src.startswith("(*", i):
                    depth += 1
                    advance(2)
                elif src.startswith("*)", i):
                    depth -= 1
                    advance(2)
                else:
                    advance(1)
            if depth:
                raise LexError("unterminated comment", start_line, start_col)
            continue
        if ch == '"':
            start_line, start_col = line, col
            advance(1)
            buf: list[str] = []
            while i < n and src[i] != '"':
                if src[i] == "\\":
                    if i + 1 >= n:  # a backslash cut off by the end
                        raise LexError("unterminated string literal",
                                       start_line, start_col)
                    esc = src[i + 1]
                    mapped = {"n": "\n", "t": "\t", '"': '"',
                              "\\": "\\"}.get(esc)
                    if mapped is None:
                        raise LexError(f"bad escape '\\{esc}'", line, col)
                    buf.append(mapped)
                    advance(2)
                else:
                    buf.append(src[i])
                    advance(1)
            if i >= n:
                raise LexError("unterminated string literal",
                               start_line, start_col)
            advance(1)  # closing quote
            emit("string", "".join(buf), start_line, start_col)
            continue
        if ch.isdigit():
            start_line, start_col = line, col
            j = i
            while j < n and src[j].isdigit():
                j += 1
            text = src[i:j]
            advance(j - i)
            emit("int", text, start_line, start_col)
            continue
        if ch.isalpha() or ch == "_":
            start_line, start_col = line, col
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            word = src[i:j]
            # 'c-query' — a keyword containing a hyphen.
            if word == "c" and src.startswith("c-query", i):
                word = "c-query"
                j = i + len(word)
            kind = "keyword" if word in KEYWORDS else "ident"
            advance(j - i)
            emit(kind, word, start_line, start_col)
            continue
        matched = False
        for p in _PUNCT:
            if src.startswith(p, i):
                start_line, start_col = line, col
                advance(len(p))
                emit("punct", p, start_line, start_col)
                matched = True
                break
        if not matched:
            raise LexError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col, line, col))
    return tokens


#: The placeholders :func:`lift_literals` puts where a literal was.  Both
#: are characters :func:`tokenize` rejects outside a string, so a key that
#: holds a placeholder never equals a source text that lexes.
INT_SLOT = "#"
STRING_SLOT = "$"

# One match is a run of non-literal tokens, an int literal or a string
# literal.  Outside strings the runs admit exactly the characters
# ``tokenize`` accepts there, minus the ``(*`` that opens a comment;
# ``c-query`` is tried before identifiers, as ``tokenize`` does for the
# bare word ``c``.  An identifier swallows its digits (``e12``), so a
# digit run that starts a match is an int token.
_LIFT_SCAN = re.compile(r"""
    (?:c-query|[A-Za-z_][A-Za-z0-9_']*|[-:=<>)\[\]{},.;+*^ \t\r\n]+
       |\((?!\*))+
  | ([0-9]+)
  | "((?:[^"\\]|\\[nt"\\])*)"
""", re.VERBOSE)

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
_ESCAPE = re.compile(r"\\(.)")


def lift_literals(src: str) -> "tuple[str, list[tuple[int, int, object]]]":
    """Replace each int and string literal of ``src`` by a placeholder.

    Returns ``(key, literals)``: ``key`` is ``src`` with every int literal
    replaced by :data:`INT_SLOT` and every string literal by
    :data:`STRING_SLOT`, and ``literals`` lists ``(line, column, value)``
    per literal in source order (1-based, as :class:`Token` counts them;
    string values unescaped).  Text the scan cannot classify the way
    :func:`tokenize` would — a comment, non-ASCII text, a bad escape, an
    unterminated string, any character ``tokenize`` rejects — comes back
    unchanged, with no literals.
    """
    if not src.isascii():
        return src, []
    parts: list[str] = []
    literals: list[tuple[int, int, object]] = []
    pos = 0
    for m in _LIFT_SCAN.finditer(src):
        start = m.start()
        if start != pos:
            return src, []
        pos = m.end()
        digits, body = m.group(1, 2)
        if digits is None and body is None:
            parts.append(m.group())
            continue
        line = src.count("\n", 0, start) + 1
        column = start - src.rfind("\n", 0, start)
        if digits is not None:
            try:
                value: object = int(digits)
            except ValueError:  # past int's digit limit: the parser's error
                return src, []
            parts.append(INT_SLOT)
            literals.append((line, column, value))
        else:
            if "\\" in body:
                body = _ESCAPE.sub(lambda e: _ESCAPES[e.group(1)], body)
            parts.append(STRING_SLOT)
            literals.append((line, column, body))
    if pos != len(src):
        return src, []
    return "".join(parts), literals
