"""Rule DSL: parsing, trigger semantics, comparator behaviour."""

import operator
from collections import deque
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from twingraph import ActionKind, Rule, TriggerMode, evaluate_rule, parse_rules
from twingraph.rules import COMPARATORS, Action

from conftest import oracle_decision, random_rule


GOLDEN = 'RULE humidity-alert WHEN TYPE = "humidity" AND VALUE > 70 THEN ALERT ex:opd VIA "email"'
FULL_CLAUSE = ('RULE r1 WHEN TYPE = "tilt" AND VALUE >= 2.5 FOR 3 SAMPLES MODE EVERY '
               'THEN ACTIVATE <https://example.org/unit>, ALERT ex:curator VIA "sms"')


def test_parse_golden_rule():
    rules, diagnostics = parse_rules(GOLDEN)
    assert not diagnostics
    (rule,) = rules
    assert rule.id == "humidity-alert"
    assert rule.measured_type == "humidity"
    assert rule.comparator == ">"
    assert rule.threshold == Decimal(70)
    assert rule.sustain == 1
    assert rule.mode is TriggerMode.ON_RISE
    (action,) = rule.actions
    assert action.kind is ActionKind.ALERT
    assert action.target == "ex:opd"
    assert action.channel == "email"


def test_parse_full_clause():
    rules, diagnostics = parse_rules(FULL_CLAUSE)
    assert not diagnostics
    (rule,) = rules
    assert rule.threshold == Decimal("2.5")
    assert rule.sustain == 3
    assert rule.mode is TriggerMode.EVERY
    assert [a.kind for a in rule.actions] == [ActionKind.ACTIVATE, ActionKind.ALERT]
    assert rule.actions[0].target == "<https://example.org/unit>"
    assert rule.actions[0].channel is None


def test_parse_multiple_rules_and_comments():
    text = ('# watch the humidity\n' + GOLDEN + '\n\n'
            'RULE second WHEN TYPE = "humidity" AND VALUE <= 20 THEN ALERT ex:opd VIA "sms"\n')
    rules, diagnostics = parse_rules(text)
    assert not diagnostics
    assert [r.id for r in rules] == ["humidity-alert", "second"]


# FULL_CLAUSE cut after each of its tokens, each listed with what the cut
# text says, so every grammar position meets the end of input. The cut after
# the first action is a whole rule, so it is left out.
_CUTS = [
    ("RULE", "1:5 error expected a rule id after RULE"),
    ("r1", "1:8 error expected WHEN, found 'end of input'"),
    ("WHEN", "1:13 error expected TYPE, found 'end of input'"),
    ("TYPE", "1:18 error expected '=' after TYPE"),
    ("=", "1:20 error expected a quoted measured type"),
    ('"tilt"', "1:27 error expected AND, found 'end of input'"),
    ("AND", "1:31 error expected VALUE, found 'end of input'"),
    ("VALUE", "1:37 error expected a comparator after VALUE"),
    (">=", "1:40 error expected a number threshold"),
    ("2.5", "1:44 error expected THEN, found 'end of input'"),
    ("FOR", "1:48 error FOR takes a positive integer sample count"),
    ("3", "1:50 error expected SAMPLES, found 'end of input'"),
    ("SAMPLES", "1:58 error expected THEN, found 'end of input'"),
    ("MODE", "1:63 error MODE takes ON_RISE or EVERY"),
    ("EVERY", "1:69 error expected THEN, found 'end of input'"),
    ("THEN", "1:74 error expected ACTIVATE or ALERT"),
    ("ACTIVATE", "1:83 error ACTIVATE takes an IRI target"),
    (",", "1:111 error expected ACTIVATE or ALERT"),
    ("ALERT", "1:117 error ALERT takes an IRI target"),
    ("ex:curator", "1:128 error expected VIA, found 'end of input'"),
    ("VIA", "1:132 error VIA takes a quoted channel"),
]


def _cut_rows():
    end = 0
    for token, rendered in _CUTS:
        end = FULL_CLAUSE.index(token, end) + len(token)
        yield pytest.param(FULL_CLAUSE[:end], [rendered], id=f"cut-after-{token}")


@pytest.mark.parametrize("text,rendered", [
    ('RULE r WHEN TYPE = humidity AND VALUE > 1 THEN ALERT ex:a VIA "m"',
     ["1:20 error expected a quoted measured type"]),
    ('RULE r WHEN TYPE = "h" AND VALUE >> 1 THEN ALERT ex:a VIA "m"',
     ["1:35 error expected a number threshold"]),
    ('RULE r WHEN TYPE = "h" AND VALUE > 1 FOR 0 SAMPLES THEN ALERT ex:a VIA "m"',
     ["1:42 error FOR takes a positive integer sample count"]),
    # more digits than int() reads from text (4300 by default)
    pytest.param('RULE r WHEN TYPE = "h" AND VALUE > 1 FOR ' + "9" * 5000
                 + ' SAMPLES THEN ALERT ex:a VIA "m"',
                 ["1:42 error FOR sample count has too many digits"],
                 id="count-past-int-digits"),
    ('RULE r WHEN TYPE = "h" AND VALUE > 1 MODE SOMETIMES THEN ALERT ex:a VIA "m"',
     ["1:43 error MODE takes ON_RISE or EVERY"]),
    ('RULE r WHEN TYPE = "h" AND VALUE > 1 THEN', ["1:42 error expected ACTIVATE or ALERT"]),
    ('RULE r WHEN TYPE = "h" AND VALUE > 1 THEN ALERT ex:a',
     ["1:53 error expected VIA, found 'end of input'"]),
    # an empty quoted string is a token, not the end of the text
    ('RULE r WHEN TYPE = "h" AND "" > 1 THEN ACTIVATE ex:a',
     ["1:28 error expected VALUE, found ''"]),
    ('RULE r WHEN TYPE = "h" AND VALUE > 1.2.3 THEN ACTIVATE ex:a',
     ["1:36 error not a plain decimal numeral: '1.2.3'"]),
    ('RULE THEN WHEN TYPE = "h" AND VALUE > 1 THEN ACTIVATE ex:a',
     ["1:6 error expected a rule id after RULE"]),
    pytest.param(GOLDEN + "\n" + GOLDEN, ["2:6 error duplicate rule id 'humidity-alert'"],
                 id="duplicate-id"),
    # a rule that fails claims no id, so a later rule may take it
    ('RULE r WHEN TYPE = "h" AND VALUE > 1 THEN ACTIVATE ex:a, ACTIVATE "x"\n'
     'RULE r WHEN TYPE = "h" AND VALUE > 1 THEN ACTIVATE ex:a',
     ["1:67 error ACTIVATE takes an IRI target"]),
    # the scan's diagnostics come first, then one per rejected rule, which
    # does not hide the rules after it
    pytest.param('RULE broken WHEN TYPE = 5 AND VALUE > 1 THEN ALERT ex:a VIA "m"\n'
                 'RULE broken2 WHEN TYPE = "h" AND VALUE !! 1 THEN ALERT ex:a VIA "m"\n',
                 ["2:40 error stray '!'", "2:41 error stray '!'",
                  "1:25 error expected a quoted measured type",
                  "2:43 error expected a comparator after VALUE"], id="recovery"),
    *_cut_rows(),
])
def test_parse_rejections(text, rendered):
    rules, diagnostics = parse_rules(text)
    assert rules is None
    assert [d.render() for d in diagnostics] == rendered


_KEYWORDS = ("RULE", "WHEN", "TYPE", "AND", "VALUE", "FOR", "SAMPLES", "MODE",
             "ON_RISE", "EVERY", "THEN", "ACTIVATE", "ALERT", "VIA")
_WORD = r"[A-Za-z_][A-Za-z0-9_.%~/-]{0,6}"
_QUOTED = st.text(st.characters(blacklist_characters='"\n', blacklist_categories=("Cs",)),
                  max_size=8)
# blanks between two tokens, or a comment on a line of its own
_GAP = st.one_of(st.sampled_from([" ", "\t", "\r\n", "\n\n", " \r", "  \t"]),
                 st.builds("{0}\n#{1}{0}\n".format, st.sampled_from(["", "\r"]), _QUOTED))


@st.composite
def _rule_block(draw):
    """Rule tuples and one text of them, with random blanks, CRLF and comments."""
    ids = draw(st.lists(st.from_regex(_WORD, fullmatch=True).filter(
        lambda word: word not in _KEYWORDS), min_size=1, max_size=4, unique=True))
    rules, words = [], []
    for rule_id in ids:
        measured = draw(_QUOTED)
        comparator = draw(st.sampled_from(COMPARATORS))
        threshold = draw(st.from_regex(r"[+-]?[0-9]{1,3}(\.[0-9]{1,3})?", fullmatch=True))
        words += ["RULE", rule_id, "WHEN", "TYPE", "=", f'"{measured}"', "AND", "VALUE",
                  comparator, threshold]
        sustain = draw(st.one_of(st.none(), st.integers(1, 20)))
        if sustain is not None:
            words += ["FOR", "0" * draw(st.integers(0, 2)) + str(sustain), "SAMPLES"]
        mode = draw(st.one_of(st.none(), st.sampled_from(TriggerMode)))
        if mode is not None:
            words += ["MODE", mode.value]
        words.append("THEN")
        actions = []
        for index in range(draw(st.integers(1, 3))):
            target = draw(st.one_of(
                st.from_regex(r"[A-Za-z_][A-Za-z0-9_-]{0,4}:[A-Za-z0-9_-]{0,5}", fullmatch=True),
                st.from_regex(r"<https://example\.org/[A-Za-z0-9/_.#-]{0,8}>", fullmatch=True)))
            verb = draw(st.sampled_from(ActionKind))
            words += [","] * (index > 0) + [verb.value, target]
            if verb is ActionKind.ACTIVATE:
                actions.append(Action(verb, target))
            else:
                channel = draw(_QUOTED)
                words += ["VIA", f'"{channel}"']
                actions.append(Action(verb, target, channel))
        rules.append(Rule(rule_id, measured, comparator, Decimal(threshold), sustain or 1,
                          mode or TriggerMode.ON_RISE, tuple(actions)))
    text = draw(_GAP).lstrip("\n")
    for word in words:
        text += word + draw(_GAP)
    return rules, text


@settings(max_examples=200, deadline=None)
@given(block=_rule_block())
def test_valid_blocks_round_trip(block):
    rules, text = block
    assert parse_rules(text) == (rules, [])


def test_compare_is_exact_decimal():
    def compare(value, comparator, threshold):  # a one-value window fires iff it holds
        return evaluate_rule(Rule("r", "h", comparator, Decimal(threshold)),
                             [Decimal(value)])

    assert compare("70.0", "=", "70") is True
    assert compare("70.000000000001", "<=", "70") is False
    assert compare("-0", "=", "0") is True
    assert compare("0.1", "<", "0.3") is True
    assert sorted(COMPARATORS) == ["!=", "<", "<=", "=", ">", ">="]


def test_unknown_comparator_raises():
    # parse_rules never builds one; a hand-built rule can
    rule = Rule("r", "humidity", "=>", Decimal("70"))
    with pytest.raises(ValueError, match="unknown comparator '=>'"):
        evaluate_rule(rule, [Decimal("71")])


def _rule(comparator=">", threshold="70", sustain=1, mode=TriggerMode.ON_RISE):
    return Rule(id="r", measured_type="humidity", comparator=comparator,
                threshold=Decimal(threshold), sustain=sustain, mode=mode,
                actions=())


def decisions(rule, series):
    out = []
    for n in range(1, len(series) + 1):
        out.append(evaluate_rule(rule, [Decimal(v) for v in series[:n]]))
    return out


def test_on_rise_fires_once_per_crossing():
    assert decisions(_rule(), [40, 40, 75]) == [False, False, True]
    assert decisions(_rule(), [75, 75, 40, 75]) == [True, False, False, True]


def test_every_fires_while_held():
    rule = _rule(mode=TriggerMode.EVERY)
    assert decisions(rule, [75, 75, 40, 75]) == [True, True, False, True]


def test_sustain_needs_full_window():
    rule = _rule(sustain=2)
    assert decisions(rule, [75, 75, 75]) == [False, True, False]
    rule = _rule(sustain=2, mode=TriggerMode.EVERY)
    assert decisions(rule, [75, 75, 75]) == [False, True, True]
    # a dip resets the streak
    rule = _rule(sustain=3)
    assert decisions(rule, [75, 75, 40, 75, 75, 75]) == [False, False, False,
                                                         False, False, True]


def test_empty_window_never_fires():
    assert evaluate_rule(_rule(), []) is False


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    series=st.lists(st.integers(min_value=-30, max_value=120).map(Decimal),
                    max_size=12),
)
def test_matches_linear_scan_oracle(data, series):
    import random as _random
    rng = _random.Random(data.draw(st.integers(0, 2**32)))
    rule = random_rule(rng, "r", "humidity")
    assert evaluate_rule(rule, series) is oracle_decision(rule, series)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    window=st.lists(st.integers(min_value=-30, max_value=120).map(Decimal),
                    max_size=16),
)
def test_only_the_last_sustain_plus_one_values_matter(data, window):
    import random as _random
    rng = _random.Random(data.draw(st.integers(0, 2**32)))
    rule = random_rule(rng, "r", "humidity")
    assert evaluate_rule(rule, window) is evaluate_rule(rule, window[-(rule.sustain + 1):])


# --- evaluate_rule against the closure implementation it replaced ---

_REFERENCE_OPERATORS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
                        ">=": operator.ge, "=": operator.eq, "!=": operator.ne}


def _reference_compare(value, comparator, threshold):
    test = _REFERENCE_OPERATORS.get(comparator)
    if test is None:
        raise ValueError(f"unknown comparator {comparator!r}")
    return test(value, threshold)


def reference_evaluate_rule(rule, window):
    """evaluate_rule as a per-end closure with one compare call per value."""
    n = len(window)
    if n == 0:
        return False
    sustain, comparator, threshold = rule.sustain, rule.comparator, rule.threshold

    def holds(end):
        if end + 1 < sustain:
            return False
        return all(_reference_compare(window[i], comparator, threshold)
                   for i in range(end - sustain + 1, end + 1))

    now = holds(n - 1)
    if rule.mode is TriggerMode.EVERY:
        fired = now
    else:
        fired = now and not (n >= 2 and holds(n - 2))
    return fired


def _outcome(evaluate, rule, window):
    try:
        return evaluate(rule, window)
    except ValueError as exc:
        return ValueError, str(exc)


@settings(max_examples=600, deadline=None)
@given(comparator=st.sampled_from(COMPARATORS + ("=>",)),
       threshold=st.integers(-3, 3),
       sustain=st.integers(0, 6),
       mode=st.sampled_from(TriggerMode),
       values=st.lists(st.decimals(min_value=-4, max_value=4, places=1), max_size=9),
       as_deque=st.booleans())
def test_evaluate_rule_matches_the_closure_reference(comparator, threshold, sustain,
                                                     mode, values, as_deque):
    rule = Rule("r", "h", comparator, Decimal(threshold), sustain, mode,
                (Action(ActionKind.ALERT, "ex:opd", "email"),))
    window = deque(values) if as_deque else list(values)
    expected = _outcome(reference_evaluate_rule, rule, window)
    got = _outcome(evaluate_rule, rule, window)
    assert got == expected and type(got) is type(expected)
