"""The token step behind both text grammars (graph text and rule DSL).

A grammar supplies named groups, compiled by master(), and a function that
turns one match into a token (kind, text, pos); a plain group, named after
its kind, is its token and takes no call. Each match starts with the blanks
and line ends before its token, so a match makes one token at most (but the
graph grammar's predicate line, a list of three), and trailing blanks go
with an empty end-of-text group. step makes the token of any other group,
with the "unexpected character" fallback and the EOF token.
Some group matches any character and every group but the end consumes one
at least, so a loop over the matches always moves forward and terminates.

The graph parser (textformat.parse_raw) loops over the matches itself; the
rule DSL's parser (rules.parse_rules) pulls tokens from the scan generator.

Positions are offsets into the text, as in Go's go/token. Lines turns one
into a 1-based line:col (a line ends at LF, so CRLF works; a lone CR is a
blank). It builds its table of line starts on first use, and only
diagnostics use it, so a clean read never builds one.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Callable, Iterator, NamedTuple

from .errors import ParseDiagnostic, SEVERITY_ERROR

EOF = "eof"


class Token(NamedTuple):
    kind: str
    text: str
    pos: int  # offset of the token's first character


class Lines:
    """1-based line:col of offsets into one text."""

    def __init__(self, text: str):
        self.text = text
        self.starts: list[int] | None = None  # offset where each line starts

    def __call__(self, pos: int) -> tuple[int, int]:
        if self.starts is None:
            self.starts = [0, *(m.end() for m in re.finditer("\n", self.text))]
        line = bisect_right(self.starts, pos)
        return line, pos - self.starts[line - 1] + 1

    def diagnostic(self, pos: int, message: str,
                   severity: str = SEVERITY_ERROR) -> ParseDiagnostic:
        return ParseDiagnostic(*self(pos), severity, message)


def master(alternatives: str) -> re.Pattern:
    """Compile a grammar's token groups, each after any blanks, then any
    other single character and the end of the text. A group named `rest`
    covers text that runs to the end of its line and makes no token (a
    comment, say); an input that ends in one has its EOF where it began."""
    return re.compile(r"[ \t\r\n]*(?:" + alternatives
                      + r"|(?P<unexpected>.)|(?P<end>\Z))", re.VERBOSE)


def step(m: re.Match, kind: str, lines: Lines, build: Callable[..., "Token | list | None"],
         diagnostics: list[ParseDiagnostic], bad: str | None = None) -> Token | list | None:
    """The token of a match whose group `kind` is not plain (a list, or None),
    and its diagnostics. build(kind, match, lines, diagnostics) makes a grammar
    group's. An unexpected character is an error, and a token of kind `bad`
    if one is given. The end, or a `rest` group that runs to it, is the EOF
    token; the end can match once more after either, so only the first counts."""
    if kind == "unexpected":
        pos, char = m.start(kind), m.group(kind)
        diagnostics.append(lines.diagnostic(pos, f"unexpected character {char!r}"))
        return None if bad is None else Token(bad, char, pos)
    if kind == "end":
        return Token(EOF, "", m.end())
    token = build(kind, m, lines, diagnostics)
    if kind == "rest" and m.end() == len(lines.text):
        return Token(EOF, "", m.start(kind))
    return token


def scan(lines: Lines, pattern: re.Pattern, build: Callable[..., "Token | list | None"],
         diagnostics: list[ParseDiagnostic], bad: str | None = None,
         plain: frozenset[str] = frozenset()) -> Iterator[Token]:
    """Yield the tokens of lines.text, ending with an EOF token, and append
    its diagnostics to the given list as the scan reaches them. A match of a
    group named in `plain` is the token (kind, its text, its start); step
    makes every other one."""
    for m in pattern.finditer(lines.text):
        kind = m.lastgroup
        if kind in plain:  # a tuple, as the NamedTuple's own __new__ costs more
            yield tuple.__new__(Token, (kind, m.group(kind), m.start(kind)))
        elif type(token := step(m, kind, lines, build, diagnostics, bad)) is list:
            yield from token
        elif token is not None:
            yield token
            if token.kind == EOF:
                return
