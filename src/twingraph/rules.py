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
from collections.abc import Sequence
from decimal import Decimal
from enum import Enum
from itertools import islice, repeat
from typing import NamedTuple

from . import namespaces as ns
from .canon import parse_decimal
from .errors import ParseDiagnostic, has_errors
from .lexer import EOF, Lines, Lookahead, Rejected, Token, master, scan

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


class _RuleParser(Lookahead):
    def expect_word(self, keyword: str) -> None:
        token = self.take()
        if token.kind != WORD or token.text != keyword:
            self.reject(token, f"expected {keyword}, found {token.text or 'end of input'!r}")

    def sync_to_rule(self) -> None:
        while True:
            token = self.current
            if token.kind == EOF or (token.kind == WORD and token.text == "RULE"):
                return
            self.take()

    def run(self) -> list[Rule]:
        rules: list[Rule] = []
        seen: dict[str, Token] = {}
        while self.current.kind != EOF:
            try:
                rules.append(self.rule(seen))
            except Rejected:  # the parser goes on at the next RULE
                self.sync_to_rule()
        return rules

    def rule(self, seen: dict[str, Token]) -> Rule:
        self.expect_word("RULE")
        id_token = self.take()
        if id_token.kind != WORD or id_token.text in _KEYWORDS:
            self.reject(id_token, "expected a rule id after RULE")
        if id_token.text in seen:
            self.reject(id_token, f"duplicate rule id {id_token.text!r}")
        self.expect_word("WHEN")
        self.expect_word("TYPE")
        eq = self.take()
        if eq.kind != CMP or eq.text != "=":
            self.reject(eq, "expected '=' after TYPE")
        type_token = self.take()
        if type_token.kind != STRING:
            self.reject(type_token, "expected a quoted measured type")
        self.expect_word("AND")
        self.expect_word("VALUE")
        cmp_token = self.take()
        if cmp_token.kind != CMP:
            self.reject(cmp_token, "expected a comparator after VALUE")
        number_token = self.take()
        if number_token.kind != NUMBER:
            self.reject(number_token, "expected a number threshold")
        try:
            threshold = parse_decimal(number_token.text)
        except ValueError as exc:
            self.reject(number_token, str(exc))

        sustain = 1
        mode = TriggerMode.ON_RISE
        token = self.current
        if token.kind == WORD and token.text == "FOR":
            self.take()
            count_token = self.take()
            if count_token.kind != NUMBER or not count_token.text.isdigit() \
                    or not count_token.text.strip("0"):  # zero
                self.reject(count_token, "FOR takes a positive integer sample count")
            try:
                sustain = int(count_token.text)
            except ValueError:  # beyond the digits int() reads from text
                self.reject(count_token, "FOR sample count has too many digits")
            self.expect_word("SAMPLES")
            token = self.current
        if token.kind == WORD and token.text == "MODE":
            self.take()
            mode_token = self.take()
            if mode_token.kind != WORD or mode_token.text not in ("ON_RISE", "EVERY"):
                self.reject(mode_token, "MODE takes ON_RISE or EVERY")
            mode = TriggerMode(mode_token.text)
        self.expect_word("THEN")

        actions = [self.action()]
        while self.current.kind == COMMA:
            self.take()
            actions.append(self.action())

        seen[id_token.text] = id_token
        return Rule(id_token.text, type_token.text, cmp_token.text, threshold,
                    sustain, mode, tuple(actions))

    def action(self) -> Action:
        verb = self.take()
        if verb.kind != WORD or verb.text not in ("ACTIVATE", "ALERT"):
            self.reject(verb, "expected ACTIVATE or ALERT")
        target = self.take()
        if target.kind != TARGET:
            self.reject(target, f"{verb.text} takes an IRI target")
        if verb.text == "ACTIVATE":
            return Action(ActionKind.ACTIVATE, target.text)
        self.expect_word("VIA")
        channel = self.take()
        if channel.kind != STRING:
            self.reject(channel, "VIA takes a quoted channel")
        return Action(ActionKind.ALERT, target.text, channel.text)


def parse_rules(text: str) -> tuple[list[Rule] | None, list[ParseDiagnostic]]:
    """Parse a rule block. Returns (rules, diagnostics); rules is None on error."""
    lines, diagnostics = Lines(text), []  # the scan's, then the parser's
    parser = _RuleParser(scan(lines, _TOKENS, _token, diagnostics, plain=_PLAIN), lines)
    rules = parser.run()
    diagnostics += parser.diagnostics
    if has_errors(diagnostics):
        return None, diagnostics
    return rules, diagnostics
