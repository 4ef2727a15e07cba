"""render_log on records built by hand, of every kind and of off types.

A record whose values are of the types the run writes renders as the generic
canonical JSON of its merged dict, whatever its strings hold: quotes,
backslashes, control characters, non-ASCII text and lone surrogates. A str or
Decimal subclass counts as its base. Any other type (a bool seq, an int
fired, a float or int value, a list of rules) is refused with TypeError, and
a stream then holds exactly the lines of the records before it."""

import io
from decimal import Decimal

from hypothesis import given, settings, strategies as st

from twingraph import EventRecord, render_log
from twingraph.canon import dumps_canonical
from twingraph.runtime import FIELDS


class _Text(str):
    pass


class _Amount(Decimal):
    def __str__(self):
        return "amount " + super().__str__()


_CHARS = st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", " ", "é", "弧", "😀",
                          "\ud800", "\udfff", "%", "a"]) | st.characters()
_TEXTS = st.text(_CHARS, max_size=6)
_STRINGS = _TEXTS | _TEXTS.map(_Text)
_DECIMALS = st.decimals(allow_nan=False, allow_infinity=False, places=None)
_COUNTS, _OFF_COUNTS = st.integers(0, 10 ** 6), st.booleans() | st.floats(0, 9) | _DECIMALS
# field -> what the run writes there; every other field holds a str
_WRITTEN = {"tick": _COUNTS, "seq": _COUNTS, "fired": st.booleans(),
            "firedRules": st.lists(_STRINGS, max_size=3).map(tuple),
            "value": _DECIMALS | _DECIMALS.map(_Amount)}
# field -> the values of other types it may be given; a str field takes _OFF_TEXT
_OFF = {"tick": _OFF_COUNTS, "seq": _OFF_COUNTS, "fired": st.integers(0, 1) | st.none(),
        "firedRules": st.lists(_STRINGS, max_size=2) | _STRINGS | st.tuples(st.integers(0, 1))
        | st.dictionaries(_TEXTS, st.none(), max_size=2),
        "value": st.floats(-2, 2) | st.integers(-2, 2) | _TEXTS}
_OFF_TEXT = st.integers(-2, 2) | st.booleans() | _DECIMALS | st.none() | st.lists(_TEXTS, max_size=1)


def _written(field, value) -> bool:
    """Whether value is of the type the run writes in this field (seq and tick: int)."""
    if field in ("seq", "tick"):
        return type(value) is int
    if field == "fired":
        return type(value) is bool
    if field == "firedRules":
        return type(value) is tuple and all(isinstance(rule, str) for rule in value)
    return isinstance(value, Decimal if field == "value" else str)


@st.composite
def _records(draw):
    kind = draw(st.sampled_from(list(FIELDS)))
    fields = ("tick", "seq") + FIELDS[kind]
    values = [draw(_WRITTEN.get(field, _STRINGS)) for field in fields]
    if draw(st.booleans()):  # about half the records hold one off value
        at = draw(st.integers(0, len(fields) - 1))
        values[at] = draw(_OFF.get(fields[at], _OFF_TEXT))
    return EventRecord(values[0], values[1], kind, tuple(values[2:]))


def _expected(record):
    """The record's canonical line, or None if render_log refuses it."""
    merged = {"tick": record.tick, "seq": record.seq, **record.fields}
    if not all(_written(field, value) for field, value in merged.items()):
        return None
    return dumps_canonical({"kind": record.kind, **merged}) + "\n"


@settings(max_examples=500, deadline=None)
@given(st.lists(_records(), min_size=1, max_size=6))
def test_hand_built_records_render_as_dumps_canonical_or_are_refused(records):
    expected = [_expected(record) for record in records]
    for record, line in zip(records, expected):
        if line is None:
            try:
                render_log([record])
            except TypeError:
                continue
            raise AssertionError(f"rendered an off-type record: {record!r}")
        assert render_log([record]) == line
    out = io.StringIO()
    if None in expected:
        refused = expected.index(None)
        try:
            render_log(records, out)
        except TypeError:
            pass
        else:
            raise AssertionError("a stream took an off-type record")
        assert out.getvalue() == "".join(expected[:refused])
    else:
        assert render_log(records, out) is None
        assert out.getvalue() == render_log(records) == "".join(expected)
