"""Both text grammars' tokenizers: positions, diagnostics, termination.

The two tables were recorded from the character-by-character tokenizers
these replaced; the scan must reproduce them exactly. One graph row differs:
those tokenizers let a bare CR inside <...> through to the graph builder,
which then raised; it is now an IRI diagnostic like a space. The
`invalid character in IRI` messages quote the IRI as a Python repr, so a CR
in it prints as `\\r` and cannot move a terminal's cursor.
"""

import json
import os
import signal
import subprocess
import sys
from collections import namedtuple
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

import twingraph
from twingraph import ParseDiagnostic, load_seed, parse_rules, rules, textformat
from twingraph.errors import has_errors
from twingraph.lexer import Lines, scan
from twingraph.ontology import load_extension
from twingraph.textformat import parse, parse_raw

# (text, tokens as (kind, text, line, col[, prefix, local]), diagnostics as
# (line, col, message))
GRAPH_TABLE = [
    ('ex:a ex:p ex:b.\n',
     [('pname', 'ex:a', 1, 1, 'ex', 'a'), ('pname', 'ex:p', 1, 6, 'ex', 'p'),
      ('pname', 'ex:b', 1, 11, 'ex', 'b'), ('punct', '.', 1, 15), ('eof', '', 2, 1)],
     []),
    ('ex:a.b. ex:.. ex:.a ex:a..b.',
     [('pname', 'ex:a.b', 1, 1, 'ex', 'a.b'), ('punct', '.', 1, 7),
      ('pname', 'ex:', 1, 9, 'ex', ''), ('punct', '.', 1, 12), ('punct', '.', 1, 13),
      ('pname', 'ex:.a', 1, 15, 'ex', '.a'), ('pname', 'ex:a..b', 1, 21, 'ex', 'a..b'),
      ('punct', '.', 1, 28), ('eof', '', 1, 29)],
     []),
    ('ex: ex:a:b',
     [('pname', 'ex:', 1, 1, 'ex', ''), ('pname', 'ex:a', 1, 5, 'ex', 'a'), ('bad', ':', 1, 9),
      ('bad', 'b', 1, 10), ('eof', '', 1, 11)],
     [(1, 9, "unexpected character ':'"), (1, 10, "unexpected word 'b'")]),
    ('+1.2.3 -5 +x 1. 1.x',
     [('number', '+1.2', 1, 1), ('punct', '.', 1, 5), ('number', '3', 1, 6),
      ('number', '-5', 1, 8), ('bad', '+', 1, 11), ('bad', 'x', 1, 12), ('number', '1', 1, 14),
      ('punct', '.', 1, 15), ('number', '1', 1, 17), ('punct', '.', 1, 18),
      ('bad', 'x', 1, 19), ('eof', '', 1, 20)],
     [(1, 11, "unexpected character '+'"), (1, 12, "unexpected word 'x'"),
      (1, 19, "unexpected word 'x'")]),
    ('<http://x\nex:a',
     [('bad', '<http://x', 1, 1), ('pname', 'ex:a', 2, 1, 'ex', 'a'), ('eof', '', 2, 5)],
     [(1, 1, 'unterminated IRI reference')]),
    ('<http://x',
     [('bad', '<http://x', 1, 1), ('eof', '', 1, 10)],
     [(1, 1, 'unterminated IRI reference')]),
    ('<http://x y> <foo> <urn:a>',
     [('bad', 'http://x y', 1, 1), ('bad', 'foo', 1, 14), ('iriref', 'urn:a', 1, 20),
      ('eof', '', 1, 27)],
     [(1, 1, "invalid character in IRI '<http://x y>'"),
      (1, 14, 'relative IRIs are not allowed: <foo>')]),
    ('<https://e.org/a\rb> a <http://www.cidoc-crm.org/cidoc-crm/E1> .\n',
     [('bad', 'https://e.org/a\rb', 1, 1), ('a', 'a', 1, 21),
      ('iriref', 'http://www.cidoc-crm.org/cidoc-crm/E1', 1, 23), ('punct', '.', 1, 63),
      ('eof', '', 2, 1)],
     [(1, 1, "invalid character in IRI '<https://e.org/a\\rb>'")]),
    ('"abc\nex:a',
     [('bad', 'abc', 1, 1), ('pname', 'ex:a', 2, 1, 'ex', 'a'), ('eof', '', 2, 5)],
     [(1, 1, 'unterminated string literal')]),
    ('"abc',
     [('bad', 'abc', 1, 1), ('eof', '', 1, 5)],
     [(1, 1, 'unterminated string literal')]),
    ('"abc\r\nex:a',
     [('bad', 'abc', 1, 1), ('pname', 'ex:a', 2, 1, 'ex', 'a'), ('eof', '', 2, 5)],
     [(1, 1, 'unterminated string literal')]),
    ('"a\\qb" "\\t\\n\\"x\\\\"',
     [('string', 'ab', 1, 1), ('string', '\t\n"x\\', 1, 8), ('eof', '', 1, 19)],
     [(1, 3, 'unknown escape sequence at column 4')]),
    ('@prefix ex: <https://e/> .\r\nex:a a ex:C .\r\n',
     [('@prefix', '@prefix', 1, 1), ('pname', 'ex:', 1, 9, 'ex', ''),
      ('iriref', 'https://e/', 1, 13), ('punct', '.', 1, 26),
      ('pname', 'ex:a', 2, 1, 'ex', 'a'), ('a', 'a', 2, 6), ('pname', 'ex:C', 2, 8, 'ex', 'C'),
      ('punct', '.', 2, 13), ('eof', '', 3, 1)],
     []),
    ('^ ^^ @foo @prefix',
     [('bad', '^', 1, 1), ('^^', '^^', 1, 3), ('bad', '@foo', 1, 6),
      ('@prefix', '@prefix', 1, 11), ('eof', '', 1, 18)],
     [(1, 1, "stray '^'"), (1, 6, 'unknown directive @foo')]),
    ('ex:a # trailing comment',
     [('pname', 'ex:a', 1, 1, 'ex', 'a'), ('eof', '', 1, 6)],
     []),
    ('a abc a-b_1 $ &',
     [('a', 'a', 1, 1), ('bad', 'abc', 1, 3), ('bad', 'a-b_1', 1, 7), ('bad', '$', 1, 13),
      ('bad', '&', 1, 15), ('eof', '', 1, 16)],
     [(1, 3, "unexpected word 'abc'"), (1, 7, "unexpected word 'a-b_1'"),
      (1, 13, "unexpected character '$'"), (1, 15, "unexpected character '&'")]),
    ('\t ex:a\r\n\r\n  ;,',
     [('pname', 'ex:a', 1, 3, 'ex', 'a'), ('punct', ';', 3, 3), ('punct', ',', 3, 4),
      ('eof', '', 3, 5)],
     []),
    # edge rows: empty, blanks only, a trailing comment with no LF, CRLF at
    # EOF, a lone CR mid-line, an unknown escape after a backslash-newline
    ('',
     [('eof', '', 1, 1)],
     []),
    (' \t\r\n  \n\t',
     [('eof', '', 3, 2)],
     []),
    ('ex:a .\n  # last line',
     [('pname', 'ex:a', 1, 1, 'ex', 'a'), ('punct', '.', 1, 6), ('eof', '', 2, 3)],
     []),
    ('ex:a .\r\n',
     [('pname', 'ex:a', 1, 1, 'ex', 'a'), ('punct', '.', 1, 6), ('eof', '', 2, 1)],
     []),
    ('ex:a # c\r\n',
     [('pname', 'ex:a', 1, 1, 'ex', 'a'), ('eof', '', 2, 1)],
     []),
    ('ex:a\rex:b .',
     [('pname', 'ex:a', 1, 1, 'ex', 'a'), ('pname', 'ex:b', 1, 6, 'ex', 'b'),
      ('punct', '.', 1, 11), ('eof', '', 1, 12)],
     []),
    ('"a\\\nb\\qc" ex:z',
     [('string', 'abc', 1, 1), ('pname', 'ex:z', 2, 7, 'ex', 'z'), ('eof', '', 2, 11)],
     [(1, 3, 'unknown escape sequence at column 4'),
      (2, 2, 'unknown escape sequence at column 3')]),
]

RULES_TABLE = [
    ('VALUE <5 <ex:x> <=5 < 5 <> <http://x/y>',
     [('word', 'VALUE', 1, 1), ('cmp', '<', 1, 7), ('number', '5', 1, 8),
      ('target', '<ex:x>', 1, 10), ('cmp', '<=', 1, 17), ('number', '5', 1, 19),
      ('cmp', '<', 1, 21), ('number', '5', 1, 23), ('cmp', '<', 1, 25), ('cmp', '>', 1, 26),
      ('target', '<http://x/y>', 1, 28), ('eof', '', 1, 40)],
     []),
    ('!= ! >= = > <',
     [('cmp', '!=', 1, 1), ('cmp', '>=', 1, 6), ('cmp', '=', 1, 9), ('cmp', '>', 1, 11),
      ('cmp', '<', 1, 13), ('eof', '', 1, 14)],
     [(1, 4, "stray '!'")]),
    ('+1.2.3 -3 1..2 +x',
     [('number', '+1.2.3', 1, 1), ('number', '-3', 1, 8), ('number', '1..2', 1, 11),
      ('word', 'x', 1, 17), ('eof', '', 1, 18)],
     [(1, 16, "unexpected character '+'")]),
    ('"abc',
     [('eof', '', 1, 1)],
     [(1, 1, 'unterminated string')]),
    ('"abc\nRULE',
     [('word', 'RULE', 2, 1), ('eof', '', 2, 5)],
     [(1, 1, 'unterminated string')]),
    ('RULE r\r\nWHEN x',
     [('word', 'RULE', 1, 1), ('word', 'r', 1, 6), ('word', 'WHEN', 2, 1), ('word', 'x', 2, 6),
      ('eof', '', 2, 7)],
     []),
    ('humidity-alert r1.5 ex:opd _x RULE: ex:a.b.',
     [('word', 'humidity-alert', 1, 1), ('word', 'r1.5', 1, 16), ('target', 'ex:opd', 1, 21),
      ('word', '_x', 1, 28), ('target', 'RULE:', 1, 31), ('target', 'ex:a.b.', 1, 37),
      ('eof', '', 1, 44)],
     []),
    ('RULE # trailing comment',
     [('word', 'RULE', 1, 1), ('eof', '', 1, 6)],
     []),
    ('$ @ , ;',
     [('comma', ',', 1, 5), ('eof', '', 1, 8)],
     [(1, 1, "unexpected character '$'"), (1, 3, "unexpected character '@'"),
      (1, 7, "unexpected character ';'")]),
    ('RULE r WHEN TYPE = "abc',
     [('word', 'RULE', 1, 1), ('word', 'r', 1, 6), ('word', 'WHEN', 1, 8),
      ('word', 'TYPE', 1, 13), ('cmp', '=', 1, 18), ('eof', '', 1, 20)],
     [(1, 20, 'unterminated string')]),
    # edge rows, as in GRAPH_TABLE; the rule DSL has no escapes
    ('',
     [('eof', '', 1, 1)],
     []),
    (' \t\r\n  \n\t',
     [('eof', '', 3, 2)],
     []),
    ('RULE r\n  # last line',
     [('word', 'RULE', 1, 1), ('word', 'r', 1, 6), ('eof', '', 2, 3)],
     []),
    ('RULE r\r\n',
     [('word', 'RULE', 1, 1), ('word', 'r', 1, 6), ('eof', '', 2, 1)],
     []),
    ('RULE # c\r\n',
     [('word', 'RULE', 1, 1), ('eof', '', 2, 1)],
     []),
    ('RULE\rr',
     [('word', 'RULE', 1, 1), ('word', 'r', 1, 6), ('eof', '', 1, 7)],
     []),
    ('"a\\\nb\\q" x',
     [('word', 'b', 2, 1), ('word', 'q', 2, 3), ('eof', '', 2, 4)],
     [(1, 1, 'unterminated string'), (2, 2, "unexpected character '\\\\'"),
      (2, 4, 'unterminated string')]),
]

Placed = namedtuple("Placed", "kind text line col prefix local")


def _tokenize(grammar, text):
    # a whole scan, each token placed at its line:col, and its diagnostics
    lines, diagnostics = Lines(text), []
    bad = getattr(grammar, "BAD", None)  # rules drop an unexpected character
    tokens = scan(lines, grammar._TOKENS, grammar._token, diagnostics, bad)
    return [Placed(t.kind, t.text, *lines(t.pos), t.prefix, t.local) for t in tokens], diagnostics


def _flatten(tokens):
    return [(t.kind, t.text, t.line, t.col) + ((t.prefix, t.local) if t.kind == "pname" else ())
            for t in tokens]


@pytest.mark.parametrize("text,tokens,diagnostics", GRAPH_TABLE)
def test_graph_tokens_match_table(text, tokens, diagnostics):
    got_tokens, got_diagnostics = _tokenize(textformat, text)
    assert _flatten(got_tokens) == tokens
    assert [(d.line, d.col, d.message) for d in got_diagnostics] == diagnostics


@pytest.mark.parametrize("text,tokens,diagnostics", RULES_TABLE)
def test_rule_tokens_match_table(text, tokens, diagnostics):
    got_tokens, got_diagnostics = _tokenize(rules, text)
    assert _flatten(got_tokens) == tokens
    assert [(d.line, d.col, d.message) for d in got_diagnostics] == diagnostics


def test_backslash_newline_keeps_later_lines():
    # the escape swallows the line end; the '^' below is still on line 4
    text = '@prefix ex: <https://e/> .\nex:a ex:p "x\\\ny" .\nex:b ^ ex:c .\n'
    assert [d.render() for d in parse_raw(text).diagnostics] == [
        "2:13 error unknown escape sequence at column 14",
        "4:6 error stray '^'",
    ]


def test_scan_diagnostics_come_before_parser_diagnostics():
    # recorded from the parser that read a whole token list before parsing;
    # the parser errors on lines 2 and 4 still follow the scan errors
    text = '@prefix ex: <https://e/> .\nex:a ex:p .\nex:b ^ ex:c .\nex:bb ex:p "\\q" , .\n'
    assert [d.render() for d in parse_raw(text).diagnostics] == [
        "3:6 error stray '^'",
        "4:13 error unknown escape sequence at column 14",
        "2:11 error expected an object, found '.'",
        "4:19 error expected an object, found '.'",
    ]


def _in_subprocess(code, *args):
    # the child imports the same twingraph sources as this process
    source_root = os.path.dirname(os.path.dirname(twingraph.__file__))
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=30, env={**os.environ, "PYTHONPATH": path})


def test_non_ascii_rule_word_is_a_diagnostic():
    proc = _in_subprocess(
        "from twingraph import parse_rules\n"
        "rules, diagnostics = parse_rules('RULE \u00e9')\n"
        "print(rules, [d.render() for d in diagnostics])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("None [\"1:6 error unexpected character 'é'\", "
                           "'1:7 error expected a rule id after RULE']\n")


def test_run_rejects_non_ascii_rule_word(tmp_path):
    with open("examples/pisano/scenario.json", encoding="utf-8") as handle:
        scenario = json.load(handle)
    scenario["decider"]["rules"] = "RULE \u00e9"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    proc = _in_subprocess("import sys; from twingraph.cli import main; "
                          "sys.exit(main(['run', sys.argv[1]]))", str(path))
    assert proc.returncode == 2
    assert "unexpected character" in proc.stderr


@contextmanager
def _time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds}s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


_FRAGMENTS = ["RULE", "WHEN", "TYPE", "VALUE", "THEN", "ALERT", "ex:a", "ex:b.", "<",
              "<=", "!", "<https://e/x>", "<rel>", '"', '"s"', "\\", "\\\n", "^^",
              "@prefix", "#", "+1.2.3", "-", ":", ".", ";", ",", " ", "\n", "\r\n", "\r", ">",
              "é", "_é", "٣", "²", "\u00a0", "中"]


_SEED = load_seed()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS) | st.text(max_size=3), max_size=30).map("".join))
def test_any_text_ends_in_diagnostics(text):
    with _time_limit(5):
        raw = parse_raw(text)
        parsed, rule_diagnostics = parse_rules(text)
        graph, graph_diagnostics = parse(text, _SEED)
        grown, extension_diagnostics = load_extension(_SEED, text)
    for diagnostic in (raw.diagnostics + rule_diagnostics + graph_diagnostics
                       + extension_diagnostics):
        assert isinstance(diagnostic, ParseDiagnostic)
        assert diagnostic.line >= 1 and diagnostic.col >= 1
    assert (parsed is None) == has_errors(rule_diagnostics)
    assert (graph is None) == has_errors(graph_diagnostics)
    assert (grown is None) == has_errors(extension_diagnostics)


def _offset(text, line, col):
    # line:col back to an offset by plain counting, apart from the scan's own
    lines = text.split("\n")
    assert 1 <= line <= len(lines) and 1 <= col <= len(lines[line - 1]) + 1
    return sum(len(earlier) + 1 for earlier in lines[:line - 1]) + col - 1


@pytest.mark.parametrize("grammar", [textformat, rules])
@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS) | st.text(max_size=3), max_size=30).map("".join))
def test_token_positions_point_at_their_source(grammar, text):
    # a token's line:col is where its text starts: no blank is there, and
    # scanning from there gives the same token first
    *tokens, eof = _tokenize(grammar, text)[0]
    last = -1
    for token in tokens:
        at = _offset(text, token.line, token.col)
        assert at > last and text[at] not in " \t\r\n"
        again = _tokenize(grammar, text[at:])[0][0]
        assert again._replace(line=token.line, col=token.col) == token
        assert (again.line, again.col) == (1, 1)
        last = at
    # EOF is at the end, or where a trailing comment (or, in rules, an
    # unterminated string) that runs to the end began
    at = _offset(text, eof.line, eof.col)
    assert at > last
    assert at == len(text) or (text[at] in '#"' and "\n" not in text[at:])
