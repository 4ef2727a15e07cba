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
    text = ('RULE r1 WHEN TYPE = "tilt" AND VALUE >= 2.5 FOR 3 SAMPLES MODE EVERY '
            'THEN ACTIVATE <https://example.org/unit>, ALERT ex:curator VIA "sms"')
    rules, diagnostics = parse_rules(text)
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


def test_duplicate_rule_id_rejected():
    text = GOLDEN + "\n" + GOLDEN
    rules, diagnostics = parse_rules(text)
    assert rules is None
    assert any("humidity-alert" in d.message for d in diagnostics)


@pytest.mark.parametrize("text,needle", [
    ('RULE r WHEN TYPE = humidity AND VALUE > 1 THEN ALERT ex:a VIA "m"', "quoted"),
    ('RULE r WHEN TYPE = "h" AND VALUE >> 1 THEN ALERT ex:a VIA "m"', "number"),
    ('RULE r WHEN TYPE = "h" AND VALUE > 1 FOR 0 SAMPLES THEN ALERT ex:a VIA "m"', "positive"),
    # more digits than int() reads from text (4300 by default)
    pytest.param('RULE r WHEN TYPE = "h" AND VALUE > 1 FOR ' + "9" * 5000
                 + ' SAMPLES THEN ALERT ex:a VIA "m"', "too many digits",
                 id="count-past-int-digits"),
    ('RULE r WHEN TYPE = "h" AND VALUE > 1 MODE SOMETIMES THEN ALERT ex:a VIA "m"', "MODE"),
    ('RULE r WHEN TYPE = "h" AND VALUE > 1 THEN', "ACTIVATE"),
    ('RULE r WHEN TYPE = "h" AND VALUE > 1 THEN ALERT ex:a', "VIA"),
])
def test_parse_rejections(text, needle):
    rules, diagnostics = parse_rules(text)
    assert rules is None
    assert any(needle.lower() in d.message.lower() for d in diagnostics), diagnostics


def test_recovery_reports_later_rules():
    text = ('RULE broken WHEN TYPE = 5 AND VALUE > 1 THEN ALERT ex:a VIA "m"\n'
            'RULE broken2 WHEN TYPE = "h" AND VALUE !! 1 THEN ALERT ex:a VIA "m"\n')
    rules, diagnostics = parse_rules(text)
    assert rules is None
    assert len(diagnostics) >= 2


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
