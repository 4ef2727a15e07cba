"""Threshold rule DSL for deciders.

    RULE r1 WHEN TYPE = "humidity" AND VALUE > 70 THEN ALERT wd:OPD VIA "email"
    RULE r2 WHEN TYPE = "vibration" AND VALUE >= 0.5 FOR 3 SAMPLES
        MODE EVERY THEN ACTIVATE ex:siren

A rule matches signals of one measured type. Its condition holds when the
comparator is true for each of the last `sustain` signals (default 1). The
trigger mode decides when a holding condition fires: ON_RISE (default) only
on the transition from not-holding to holding, EVERY whenever it holds.
Comparisons are exact decimal arithmetic; no binary floating point.

parse_rules keeps action targets as written (CURIE or <IRI>); a loaded scenario
holds each expanded, and check_scenario refuses one that names no declared entity.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from decimal import Decimal
from enum import Enum
from itertools import islice, repeat
from typing import NamedTuple, NoReturn

from . import namespaces as ns
from .canon import parse_decimal
from .errors import ParseDiagnostic, has_errors
from .lexer import EOF, Lines, Token, master, scan

_OPERATORS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
              ">=": operator.ge, "=": operator.eq, "!=": operator.ne}
COMPARATORS = tuple(_OPERATORS)

_KEYWORDS = {"RULE", "WHEN", "TYPE", "AND", "VALUE", "FOR", "SAMPLES",
             "MODE", "ON_RISE", "EVERY", "THEN", "ACTIVATE", "ALERT", "VIA"}


class TriggerMode(Enum):
    ON_RISE = "ON_RISE"
    EVERY = "EVERY"


class ActionKind(Enum):
    ACTIVATE = "ACTIVATE"
    ALERT = "ALERT"


class Action(NamedTuple):
    kind: ActionKind
    target: str  # as written by parse_rules; a declared entity's IRI in a checked config
    channel: str | None = None  # ALERT only


class Rule(NamedTuple):
    id: str
    measured_type: str
    comparator: str
    threshold: Decimal
    sustain: int = 1
    mode: TriggerMode = TriggerMode.ON_RISE
    actions: tuple[Action, ...] = ()


# --- evaluation ---

def evaluate_rule(rule: Rule, window: Sequence[Decimal]) -> bool:
    """Whether a rule fires on a value window, newest last.

    The window must hold only values of the rule's measured type, and at
    least the last sustain+1 values seen so far (or all of them, if fewer);
    ON_RISE needs one entry of lookback. An empty window never fires, and an
    unknown comparator raises ValueError once sustain >= 1 values are there.
    """
    n, sustain = len(window), rule.sustain
    if n == 0 or n < sustain:
        return False
    if sustain < 1:  # nothing to compare: the condition holds at every end
        return rule.mode is TriggerMode.EVERY or n == 1
    test = _OPERATORS.get(rule.comparator)
    if test is None:
        raise ValueError(f"unknown comparator {rule.comparator!r}")
    fired = all(map(test, islice(window, n - sustain, None), repeat(rule.threshold)))
    if fired and rule.mode is not TriggerMode.EVERY and n > sustain:
        # it held one entry back too unless the value before the last sustain fails
        return not test(window[n - 1 - sustain], rule.threshold)
    return fired


# --- parsing ---

WORD = "word"
STRING = "string"
NUMBER = "number"
CMP = "cmp"
COMMA = "comma"
TARGET = "target"

_TOKENS = master(rf"""
    (?P<word>[A-Za-z_]{ns.LOCAL_CHAR}*(?P<curie>:{ns.LOCAL_CHAR}*)?)  # a CURIE is a target
  | (?P<cmp><=|>=|!=|<(?![^>\s]+>)|[>=])  # '<' unless a '>' closes it before a blank
  | (?P<target><[^>\s]+>)
  | (?P<number>[+-]?[0-9][0-9.]*)
  | (?P<string>"[^"\n]*")
  | (?P<comma>,)
  | (?P<bang>!)
  | (?P<rest>\#[^\n]*|"[^"\n]*)  # a comment, or an unterminated string
""")
_PLAIN = frozenset((CMP, TARGET, NUMBER, COMMA))  # groups named after their kinds


def _token(kind, m, lines, diagnostics) -> Token | None:
    text = m.group(kind)
    pos = m.end() - len(text)
    if kind == "word":
        return Token(WORD if m.group("curie") is None else TARGET, text, pos)
    if kind == "string":
        return Token(STRING, text[1:-1], pos)
    if kind == "bang":
        message = "stray '!'"
    elif text[0] == '"':
        message = "unterminated string"
    else:
        return None  # a comment
    diagnostics.append(lines.diagnostic(pos, message))
    return None


class _Rejected(Exception):
    """Ends a rule at its first error; the parser goes on at the next RULE."""


class _RuleParser:
    """Recursive descent over a scan with one token of lookahead (current).
    Each grammar position is one expect, and a rule's first error ends it."""

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

    def at(self, word: str) -> bool:
        return self.current.kind == WORD and self.current.text == word

    def reject(self, token: Token, message: str) -> NoReturn:
        self.diagnostics.append(self.lines.diagnostic(token.pos, message))
        raise _Rejected

    def expect(self, kind: str, words: tuple[str, ...] | None = None,
               message: str | None = None) -> Token:
        """Take the next token, and reject it unless it has this kind and is
        one of the words, if given; a keyword's message names what was found."""
        token = self.take()
        if token.kind != kind or (words is not None and token.text not in words):
            self.reject(token, message or "expected %s, found %r" % (
                words[0], "end of input" if token.kind == EOF else token.text))
        return token

    def run(self) -> list[Rule]:
        rules: list[Rule] = []
        seen: set[str] = set()
        while self.current.kind != EOF:
            try:
                rules.append(self.rule(seen))
            except _Rejected:
                while self.current.kind != EOF and not self.at("RULE"):
                    self.take()
        return rules

    def rule(self, seen: set[str]) -> Rule:
        self.expect(WORD, ("RULE",))
        name = self.expect(WORD, message="expected a rule id after RULE")
        if name.text in _KEYWORDS:
            self.reject(name, "expected a rule id after RULE")
        if name.text in seen:
            self.reject(name, f"duplicate rule id {name.text!r}")
        self.expect(WORD, ("WHEN",))
        self.expect(WORD, ("TYPE",))
        self.expect(CMP, ("=",), "expected '=' after TYPE")
        measured = self.expect(STRING, message="expected a quoted measured type").text
        self.expect(WORD, ("AND",))
        self.expect(WORD, ("VALUE",))
        comparator = self.expect(CMP, message="expected a comparator after VALUE").text
        number = self.expect(NUMBER, message="expected a number threshold")
        try:
            threshold = parse_decimal(number.text)
        except ValueError as exc:
            self.reject(number, str(exc))
        sustain, mode = 1, TriggerMode.ON_RISE
        if self.at("FOR"):
            self.take()
            count = self.expect(NUMBER, message="FOR takes a positive integer sample count")
            if not count.text.isdigit() or not count.text.strip("0"):  # zero
                self.reject(count, "FOR takes a positive integer sample count")
            try:
                sustain = int(count.text)
            except ValueError:  # beyond the digits int() reads from text
                self.reject(count, "FOR sample count has too many digits")
            self.expect(WORD, ("SAMPLES",))
        if self.at("MODE"):
            self.take()
            mode = TriggerMode(self.expect(WORD, ("ON_RISE", "EVERY"),
                                           "MODE takes ON_RISE or EVERY").text)
        self.expect(WORD, ("THEN",))
        actions = [self.action()]
        while self.current.kind == COMMA:
            self.take()
            actions.append(self.action())
        seen.add(name.text)
        return Rule(name.text, measured, comparator, threshold, sustain, mode, tuple(actions))

    def action(self) -> Action:
        verb = self.expect(WORD, ("ACTIVATE", "ALERT"), "expected ACTIVATE or ALERT").text
        target = self.expect(TARGET, message=f"{verb} takes an IRI target").text
        if verb == "ACTIVATE":
            return Action(ActionKind.ACTIVATE, target)
        self.expect(WORD, ("VIA",))
        return Action(ActionKind.ALERT, target,
                      self.expect(STRING, message="VIA takes a quoted channel").text)


def parse_rules(text: str) -> tuple[list[Rule] | None, list[ParseDiagnostic]]:
    """Parse a rule block. Returns (rules, diagnostics); rules is None on error."""
    lines, diagnostics = Lines(text), []  # the scan's, then the parser's
    parser = _RuleParser(scan(lines, _TOKENS, _token, diagnostics, plain=_PLAIN), lines)
    rules = parser.run()
    diagnostics += parser.diagnostics
    if has_errors(diagnostics):
        return None, diagnostics
    return rules, diagnostics
