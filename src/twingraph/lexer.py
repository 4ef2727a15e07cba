"""The one scan loop behind both text grammars (graph text and rule DSL).

The scan is a generator that the parsers pull from, each keeping one token
of lookahead (Lookahead), so no token list is built. A grammar supplies a
master pattern, an alternation of named groups built with master(), and a
function that turns one match into a token. The loop owns what the
grammars share: blanks and LF/CRLF line ends, 1-based line:col positions,
the "unexpected character" fallback, and the EOF token. Every group
consumes at least one character and some group matches any character, so a
scan always moves forward and always terminates.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, NamedTuple

from .errors import ParseDiagnostic, SEVERITY_ERROR

EOF = "eof"


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int
    prefix: str = ""  # prefix and local name of a graph-text PNAME
    local: str = ""


def master(alternatives: str) -> re.Pattern:
    """Compile a grammar's token groups between the shared ones: blanks and
    newlines first, any other single character last. A group named `rest`
    covers text that runs to the end of its line and makes no token (a
    comment, say); the EOF token's column ignores it, so an input that ends
    there reports its end where that text began."""
    return re.compile(r"(?P<blank>[ \t\r]+)|(?P<newline>\n)|" + alternatives
                      + r"|(?P<unexpected>.)", re.VERBOSE)


class Lookahead:
    """A parser's one token of lookahead over a scan."""

    def __init__(self, tokens: Iterator[Token]):
        self.tokens = tokens
        self.current = next(tokens)

    def peek(self) -> Token:
        return self.current

    def take(self) -> Token:  # the scan moves on unless it is at EOF
        token = self.current
        if token.kind != EOF:
            self.current = next(self.tokens)
        return token


def scan(text: str, pattern: re.Pattern, build: Callable[..., "Token | None"],
         diagnostics: list[ParseDiagnostic], bad: str | None = None) -> Iterator[Token]:
    """Yield the tokens of a text, ending with an EOF token, and append its
    diagnostics to the given list as the scan reaches them.

    build(kind, match, line, col, diagnostics) returns the token for one
    match of a grammar group, or None, and appends any diagnostics. An
    unexpected character is an error; it is kept as a token of kind `bad`
    when one is given, and dropped otherwise.
    """
    line, line_start, last = 1, 0, 0  # last: where the EOF column is measured
    for m in pattern.finditer(text):
        kind = m.lastgroup
        if kind == "blank":
            last = m.end()
        elif kind == "newline":
            line += 1
            line_start = last = m.end()
        else:
            pos, end = m.span()
            col = pos - line_start + 1
            if kind == "unexpected":
                char = m.group()
                diagnostics.append(ParseDiagnostic(
                    line, col, SEVERITY_ERROR, f"unexpected character {char!r}"))
                token = Token(bad, char, line, col) if bad is not None else None
            else:
                token = build(kind, m, line, col, diagnostics)
            if token is not None:
                yield token
            if kind != "rest":
                last = end
            newline = text.rfind("\n", pos, end)  # a string may span lines
            if newline >= 0:
                line += text.count("\n", pos, end)
                line_start = newline + 1
    yield Token(EOF, "", line, last - line_start + 1)
