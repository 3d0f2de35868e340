"""The tokenizer and token cursor shared by the three small languages: model
files, state invariants and ontology functional syntax.

Each language supplies one regular expression of named groups; `ws` and
`comment` matches are dropped.  Tokens carry the 1-based line and column
where they start, so every parser reports errors at the same kind of place.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .diagnostics import ParseError

_ESCAPE_RE = re.compile(r"\\(.)")


class Tok(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def tokenize(pattern: re.Pattern[str], text: str, file: str,
             line: int = 1, col: int = 1) -> list[Tok]:
    """Split text into tokens, ending with an `eof` token.

    `line` and `col` give the position of the first character, so text cut
    out of a larger file keeps that file's positions: later lines restart at
    column 1 as usual.
    """
    toks: list[Tok] = []
    match = pattern.match
    pos = 0
    while pos < len(text):
        m = match(text, pos)
        if m is None:
            raise ParseError(file, line, col, f"unexpected character {text[pos]!r}")
        kind = m.lastgroup or ""
        value = m.group()
        if kind != "ws" and kind != "comment":
            toks.append(Tok(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    toks.append(Tok("eof", "", line, col))
    return toks


def unquote(text: str) -> str:
    """The body of a double-quoted token with backslash escapes removed."""
    return _ESCAPE_RE.sub(r"\1", text[1:-1])


def quote(text: str) -> str:
    """A double-quoted token whose body is text; the inverse of `unquote`."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


class TokenCursor:
    """Position in a token list, for recursive-descent parsers."""

    def __init__(self, toks: list[Tok], file: str):
        self.toks = toks
        self.file = file
        self.i = 0

    def peek(self) -> Tok:
        return self.toks[self.i]

    def next(self) -> Tok:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Tok:
        if not self.at(text):
            self.fail(f"'{text}'")
        return self.next()

    def fail(self, expected: str, tok: Tok | None = None):
        tok = tok or self.peek()
        found = "end of input" if tok.kind == "eof" else repr(tok.text)
        raise ParseError(self.file, tok.line, tok.col, f"expected {expected}, found {found}")
