"""Canonical renderings: decimals, UTC timestamps, single-line JSON.

The tables were recorded from the hand-written formatters these helpers
replaced; the last section pins the inputs where those formatters were
wrong (30-digit decimals, years before 1000, non-ASCII digits).
"""

import json
import re
from collections import OrderedDict
from datetime import datetime, timedelta, timezone
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings, strategies as st

from twingraph import Literal, PropertyDef, emit, load_seed, parse, parse_scenario, run_scenario
from twingraph.canon import (
    canonical_decimal,
    dumps_canonical,
    format_datetime_utc,
    parse_datetime_utc,
    parse_decimal,
)

UTC = timezone.utc
DECIMAL_TEXT = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]*[1-9])?")

# --- tables ---

class _Text(str):
    pass


class _Folded(str):
    """Text that equals any text with the same letters in another case."""

    def __eq__(self, other):
        return isinstance(other, str) and self.lower() == other.lower()

    def __hash__(self):
        return hash(self.lower())


class _Count(int):
    pass


class _Amount(Decimal):
    pass


DUMPS_TABLE = [
    ({"b": 1, "a": [True, False, None]}, '{"a":[true,false,null],"b":1}'),
    # keys are ASCII-escaped, values keep their characters
    ({"é": "é", "k\u2028": "\u2028"}, '{"k\\u2028":"\u2028","\\u00e9":"é"}'),
    ({"ctl": '\x00\x1f\t\n"\\/'}, '{"ctl":"\\u0000\\u001f\\t\\n\\"\\\\/"}'),
    ([1, [2, (3, Decimal("4.50"))], ()], "[1,[2,[3,4.5]],[]]"),
    ({"z": {"y": {"x": Decimal("-0")}}}, '{"z":{"y":{"x":0}}}'),
    (Decimal("1E+3"), "1000"),
    (Decimal("1.500"), "1.5"),
    (Decimal("1E-30"), "0.000000000000000000000000000001"),
    ("😀\ud800", '"😀\ud800"'),
    (-2 ** 70, "-1180591620717411303424"),
    ({}, "{}"),
    ([], "[]"),
    # subclasses render as their base types
    ({_Text("kind"): _Text("é\n")}, '{"kind":"é\\n"}'),
    ([_Count(3), _Amount("1.50"), True, _Text("")], '[3,1.5,true,""]'),
    ((1, [(_Text("a"), ()), ["b", (Decimal("2.0"), [None])]], ({"t": (1,)},)),
     '[1,[["a",[]],["b",[2,[null]]]],[{"t":[1]}]]'),
    # dict values through the exact-type encoder table, and subclasses and
    # an OrderedDict through its isinstance fallback
    ({"b": True, "a": False, "c": None}, '{"a":false,"b":true,"c":null}'),
    ({"n": _Count(2)}, '{"n":2}'),
    ({"x": _Amount("1.50")}, '{"x":1.5}'),
    (OrderedDict([("z", 1), ("a", [True, None])]), '{"a":[true,null],"z":1}'),
    ({"t": (1, "a", (Decimal("2.0"),))}, '{"t":[1,"a",[2]]}'),
    ({"o": OrderedDict(b=_Count(0), a=_Amount("-0"))}, '{"o":{"a":0,"b":0}}'),
    ([True, _Count(-7), {"k": (None,)}], '[true,-7,{"k":[null]}]'),
]


@pytest.mark.parametrize("value,expected", DUMPS_TABLE)
def test_dumps_canonical_table(value, expected):
    assert dumps_canonical(value) == expected


@pytest.mark.parametrize("value,error", [
    ({"a": 1.5}, TypeError),
    ({1: "x"}, TypeError),
    ({"a": 1, 2: "x"}, TypeError),
    (set(), TypeError),
    (b"x", TypeError),
    (Decimal("NaN"), ValueError),
    ([Decimal("Infinity")], ValueError),
])
def test_dumps_canonical_rejects(value, error):
    with pytest.raises(error):
        dumps_canonical(value)


# --- keys: each renders its own text, and only a str is a key ---

def test_a_str_subclass_key_renders_its_own_text_after_an_equal_key():
    dumps_canonical({"a": 1})  # a key that _Folded("A") compares equal to, rendered first
    assert dumps_canonical({_Folded("A"): 1}) == '{"A":1}'


class _LikeSeq:
    """Not a str, but hashes and compares like the text "seq"."""

    def __hash__(self):
        return hash("seq")

    def __eq__(self, other):
        return other == "seq"


def test_a_non_str_key_is_rejected_though_it_equals_a_rendered_str_key():
    assert dumps_canonical({"seq": 1, "1": 2}) == '{"1":2,"seq":1}'
    for value in ({_LikeSeq(): 1}, {1: 2}, {"seq": {_LikeSeq(): 1}}):
        with pytest.raises(TypeError):
            dumps_canonical(value)


def test_a_dict_of_3000_keys_renders_sorted_twice_alike():
    keys = [f"k{i}" for i in range(3000)]
    expected = "{" + ",".join(f'"{key}":0' for key in sorted(keys)) + "}"
    assert dumps_canonical(dict.fromkeys(keys, 0)) == expected
    assert dumps_canonical(dict.fromkeys(keys, 0)) == expected


# --- keys render sorted, whatever their insertion order or shape ---

def test_insertion_order_does_not_change_the_text():
    expected = '{"a":2,"b":{"x":[],"y":null},"c":"3"}'
    assert dumps_canonical({"b": {"y": None, "x": []}, "a": 2, "c": "3"}) == expected
    assert dumps_canonical({"c": "3", "a": 2, "b": {"x": [], "y": None}}) == expected
    assert dumps_canonical({"a": 2, "b": {"y": None, "x": []}, "c": "3"}) == expected


def test_3000_key_shapes_each_render_sorted():
    for i in range(3000):
        assert dumps_canonical({f"k{i}": i, "z": 0}) == f'{{"k{i}":{i},"z":0}}'
    assert dumps_canonical({"z": 0, "k7": 7}) == '{"k7":7,"z":0}'


@pytest.mark.parametrize("text,expected", [
    ("-0", "0"),
    ("0E-7", "0"),
    ("1E+3", "1000"),
    ("1.500", "1.5"),
    ("1E-30", "0.000000000000000000000000000001"),
    ("-1E-30", "-0.000000000000000000000000000001"),
    ("-12.340", "-12.34"),
    ("100", "100"),
    ("0.10", "0.1"),
    ("123456789012345678901234567.8", "123456789012345678901234567.8"),
])
def test_canonical_decimal_table(text, expected):
    assert canonical_decimal(Decimal(text)) == expected


@pytest.mark.parametrize("text", ["NaN", "-Infinity", "sNaN"])
def test_canonical_decimal_rejects_non_finite(text):
    with pytest.raises(ValueError):
        canonical_decimal(Decimal(text))


@pytest.mark.parametrize("moment,expected", [
    (datetime(2026, 5, 1, tzinfo=UTC), "2026-05-01T00:00:00Z"),
    (datetime(2026, 5, 1, 12, 30, 5, 120000, tzinfo=UTC), "2026-05-01T12:30:05.12Z"),
    (datetime(2026, 5, 1, 0, 0, 0, 1, tzinfo=UTC), "2026-05-01T00:00:00.000001Z"),
    (datetime(9999, 12, 31, 23, 59, 59, 999999, tzinfo=UTC),
     "9999-12-31T23:59:59.999999Z"),
    (datetime(2026, 5, 1, tzinfo=timezone(timedelta(0))), "2026-05-01T00:00:00Z"),
])
def test_format_datetime_utc_table(moment, expected):
    assert format_datetime_utc(moment) == expected


@pytest.mark.parametrize("moment", [
    datetime(2026, 5, 1),
    datetime(2026, 5, 1, tzinfo=timezone(timedelta(hours=1))),
])
def test_format_datetime_utc_rejects_other_zones(moment):
    with pytest.raises(ValueError):
        format_datetime_utc(moment)


@pytest.mark.parametrize("text,expected", [
    ("42", Decimal("42")),
    ("+4.50", Decimal("4.50")),
    ("-.5", Decimal("-0.5")),
    ("7.", Decimal("7")),
    ("007.10", Decimal("7.10")),
])
def test_parse_decimal_table(text, expected):
    parsed = parse_decimal(text)
    assert parsed == expected and str(parsed) == str(expected)


@pytest.mark.parametrize("text", ["", ".", "+", "1e3", "1E3", " 1", "1 ", "1_0",
                                  "--1", "NaN", "Infinity"])
def test_parse_decimal_rejects(text):
    with pytest.raises(ValueError):
        parse_decimal(text)


# --- properties ---

def _decimals(max_digits):
    return st.builds(
        lambda sign, coefficient, exponent: Decimal(
            (sign, tuple(int(c) for c in str(coefficient)), exponent)),
        st.integers(0, 1), st.integers(0, 10 ** max_digits - 1), st.integers(-80, 40))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text() | _decimals(27),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_canonical_json_reads_back_as_the_value(value):
    text = dumps_canonical(value)
    assert "\n" not in text
    assert json.loads(text, parse_float=Decimal) == value


# Keys below DEL, which json.dumps escapes the same way whether or not it
# escapes non-ASCII; a small pool makes key tuples repeat in new orders.
_ASCII_KEYS = st.sampled_from(["kind", "seq", "tick", "a", "b"]) \
    | st.text(st.characters(max_codepoint=0x7E), max_size=3)
_PLAIN_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_ASCII_KEYS, inner, max_size=5),
    max_leaves=16)


@settings(max_examples=300, deadline=None)
@given(_PLAIN_VALUES)
def test_canonical_json_is_sorted_compact_json_dumps(value):
    assert dumps_canonical(value) == json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


@settings(max_examples=300, deadline=None)
@given(_decimals(60))
def test_canonical_decimal_is_minimal_and_exact(value):
    text = canonical_decimal(value)
    assert DECIMAL_TEXT.fullmatch(text), text
    assert Decimal(text) == value
    assert parse_decimal(text) == value


def _decimal_by_format(value):
    """canonical_decimal as it was before str() took the plain forms."""
    if not value.is_finite():
        raise ValueError(f"not a finite decimal: {value}")
    if value == 0:
        return "0"
    text = format(value, "f")
    return text.rstrip("0").rstrip(".") if "." in text else text


class _Dollars(Decimal):
    def __str__(self):
        return "$" + super().__str__()


# every sign, 1 to 40 digits (zeros with leading zeros too) and exponent -40..+40
_ANY_DECIMALS = st.builds(
    lambda sign, digits, exponent: Decimal((sign, tuple(digits), exponent)),
    st.integers(0, 1), st.lists(st.integers(0, 9), min_size=1, max_size=40)
    | st.lists(st.just(0), min_size=1, max_size=5), st.integers(-40, 40))


@settings(max_examples=1000, deadline=None)
@given(_ANY_DECIMALS, st.booleans())
def test_canonical_decimal_is_the_format_formula(value, capitals):
    # str writes the exponent's E in the context's case; neither case may leak
    with localcontext() as context:
        context.capitals = capitals
        expected = _decimal_by_format(value)
        assert canonical_decimal(value) == expected
        assert canonical_decimal(_Dollars(value)) == expected  # not the subclass's str


@pytest.mark.parametrize("value", [1.5, 1, True, "1.5", None])
def test_canonical_decimal_refuses_what_is_no_decimal(value):
    with pytest.raises(TypeError):
        canonical_decimal(value)


@settings(max_examples=300, deadline=None)
@given(st.datetimes(timezones=st.just(UTC)))
def test_timestamps_have_four_digit_years_and_read_back(moment):
    text = format_datetime_utc(moment)
    assert re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}"
                        r"(\.[0-9]*[1-9])?Z", text), text
    assert parse_datetime_utc(text) == moment


# --- exactness beyond the old formatters ---

THIRTY_TWO_DIGITS = "1.00000000000000000000000000000001"


def test_decimal_past_28_digits_keeps_its_value():
    assert Literal.of("decimal", THIRTY_TWO_DIGITS).value == THIRTY_TWO_DIGITS
    assert Literal.of("decimal", Decimal(THIRTY_TWO_DIGITS + "000")).value \
        == THIRTY_TWO_DIGITS
    registry = load_seed().register_property(PropertyDef(
        id="P85", label="decimal", namespace="CRM", domain="E1", range="decimal"))
    text = ("@prefix ex: <https://example.org/t/> .\n"
            f"ex:a a hdto:HC3 .\nex:a crm:P85 {THIRTY_TWO_DIGITS} .\n")
    graph, diagnostics = parse(text, registry)
    assert not diagnostics
    reread, diagnostics = parse(emit(graph), registry)
    assert not diagnostics
    (value,) = reread.objects_of(reread.resolve("ex:a"), "P85")
    assert Decimal(value.value) == Decimal(THIRTY_TWO_DIGITS)


def test_run_before_year_1000_logs_readable_timestamps():
    with open("examples/pisano/scenario.json", encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["start"] = "0999-05-01T00:00:00Z"
    run = run_scenario(parse_scenario(json.dumps(doc)))
    start = datetime(999, 5, 1, tzinfo=UTC)
    stamps = []
    for record in run.records:
        if "timestamp" in record.fields:
            stamps.append((record.tick, record.fields["timestamp"]))
        if "payload" in record.fields:
            stamps.append((record.tick, json.loads(record.fields["payload"])["timestamp"]))
    assert len(stamps) == 12  # 6 measurements, 6 signal payloads
    for tick, stamp in stamps:
        assert stamp.startswith("0999-05-01T")
        assert parse_datetime_utc(stamp) == start + timedelta(hours=tick)


@pytest.mark.parametrize("datatype", ["decimal", "integer"])
def test_non_ascii_digits_are_not_numerals(datatype):
    with pytest.raises(ValueError):
        Literal.of(datatype, "١٢")
    registry = load_seed().register_property(PropertyDef(
        id="P86", label=datatype, namespace="CRM", domain="E1", range=datatype))
    text = ("@prefix ex: <https://example.org/t/> .\n"
            f'ex:a a hdto:HC3 .\nex:a crm:P86 "١٢"^^xsd:{datatype} .\n')
    graph, diagnostics = parse(text, registry)
    assert graph is None and diagnostics
