"""The one scan loop behind both text grammars (graph text and rule DSL).

The scan is a generator that the parsers pull from, each keeping one token
of lookahead (Lookahead), so no token list is built. A grammar supplies
named groups, compiled by master(), and a function that turns one match into
a token. Each match starts with the blanks and line ends before its token,
so one loop step makes one token, and trailing blanks go with an empty
end-of-text group. The loop owns the "unexpected character" fallback and the
EOF token. Some group matches any character and every group but the end
consumes one at least, so a scan always moves forward and terminates.

Lookahead also reports a parser's diagnostics. Its reject reports an error
and raises Rejected, which ends a statement or a rule; the parser resyncs.

Positions are offsets into the text, as in Go's go/token. Lines turns one
into a 1-based line:col (a line ends at LF, so CRLF works; a lone CR is a
blank). It builds its table of line starts on first use, and only
diagnostics use it, so a clean read never builds one.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Callable, Iterator, NamedTuple, NoReturn

from .errors import ParseDiagnostic, SEVERITY_ERROR

EOF = "eof"


class Token(NamedTuple):
    kind: str
    text: str
    pos: int  # offset of the token's first character
    prefix: str = ""  # prefix and local name of a graph-text PNAME
    local: str = ""


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


class Rejected(Exception):
    """Ends a statement or a rule at its first error. took is the token the
    parser resyncs from, or None to resync from the next one."""

    def __init__(self, took: Token | None = None):
        super().__init__(took)
        self.took = took


class Lookahead:
    """A parser's one token of lookahead (current) over a scan, and its diagnostics."""

    def __init__(self, tokens: Iterator[Token], lines: Lines):
        self.tokens = tokens
        self.lines = lines
        self.diagnostics: list[ParseDiagnostic] = []
        self.current = next(tokens)

    def take(self) -> Token:  # the scan moves on unless it is at EOF
        token = self.current
        if token.kind != EOF:
            self.current = next(self.tokens)
        return token

    def error(self, token: Token, message: str, severity: str = SEVERITY_ERROR) -> None:
        self.diagnostics.append(self.lines.diagnostic(token.pos, message, severity))

    def reject(self, token: Token, message: str, took: Token | None = None) -> NoReturn:
        self.error(token, message)
        raise Rejected(took)


def scan(lines: Lines, pattern: re.Pattern, build: Callable[..., "Token | None"],
         diagnostics: list[ParseDiagnostic], bad: str | None = None) -> Iterator[Token]:
    """Yield the tokens of lines.text, ending with an EOF token, and append
    its diagnostics to the given list as the scan reaches them.

    build(kind, match, lines, diagnostics) returns the token for a match of
    the grammar group `kind` (the match's tail, after its blanks), or None,
    and appends any diagnostics. An unexpected character is an error; it is
    kept as a token of kind `bad` when one is given, and dropped otherwise.
    """
    rest = None  # the last comment's match, for EOF
    for m in pattern.finditer(lines.text):
        kind = m.lastgroup
        if kind == "unexpected":
            pos, char = m.start(kind), m.group(kind)
            diagnostics.append(lines.diagnostic(pos, f"unexpected character {char!r}"))
            if bad is not None:
                yield Token(bad, char, pos)
        elif kind == "end":  # which can match once more, empty, so return
            pos = m.end()
            yield Token(EOF, "", rest.start("rest") if rest and rest.end() == pos else pos)
            return
        else:
            if kind == "rest":
                rest = m
            token = build(kind, m, lines, diagnostics)
            if token is not None:
                yield token

