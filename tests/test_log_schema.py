"""One record schema: runtime.FIELDS names each kind's fields, and nothing else does.

A record holds its values as a tuple in its kind's row order, and its
`fields` are only a view of them by name. Every log line renders through its
kind's layout, built from that table, and must read exactly as the generic
canonical JSON of the record's merged dict; a record built by hand off the
table (an unknown kind, a value short or over, a dict for values) is refused,
never rendered short. The records checked are those of both Pisano goldens,
of random scenarios, of --until prefixes and of an aborted run. FORMAT.md's
per-kind table and its payload example must match the runtime tables, and
runtime.py spells no field name outside them."""

import ast
import json
import random
import re
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from twingraph import EventRecord, ScenarioRun, StepFailure, parse_scenario, render_log, runtime
from twingraph.canon import dumps_canonical, object_template
from twingraph.runtime import FIELDS, PAYLOAD_FIELDS

from conftest import random_scenario

ROOT = Path(__file__).resolve().parents[1]
FORMAT = ROOT / "docs" / "FORMAT.md"
GOLDEN_CASES = [("examples/pisano/scenario.json", "examples/pisano/golden.log.jsonl"),
                ("examples/pisano/scenario-noisy.json", "examples/pisano/golden-noisy.log.jsonl")]


def assert_schema_lines(records):
    """Each record holds one value per field of its kind's row, in order, and
    renders as the generic canonical JSON of its merged dict; each signal's
    payload is its measurement's."""
    measurements = {}
    for record in records:
        fields = record.fields
        assert type(record.values) is tuple, record
        assert fields == dict(zip(FIELDS[record.kind], record.values, strict=True)), record
        assert render_log([record]) == dumps_canonical(
            {"kind": record.kind, "seq": record.seq, "tick": record.tick, **fields}) + "\n"
        if record.kind == "measurement":
            measurements[fields["measurement"]] = fields
        elif record.kind == "signal":
            sample = measurements[fields["measurement"]]
            assert fields["payload"] == dumps_canonical({
                "measuredType": sample["measuredType"], "sensorId": sample["sensor"],
                "signalId": fields["signal"], "timestamp": sample["timestamp"],
                "unit": sample["unit"], "value": sample["value"]})
            assert tuple(json.loads(fields["payload"], parse_int=str)) == PAYLOAD_FIELDS


def _run(config, until=None):
    run = ScenarioRun(config)
    run.run(until)
    return run


@pytest.mark.parametrize("scenario,golden", GOLDEN_CASES)
def test_golden_records_render_by_the_schema(scenario, golden):
    with open(scenario, encoding="utf-8") as handle:
        config = parse_scenario(handle.read())
    run = _run(config)
    assert_schema_lines(run.records)
    with open(golden, encoding="utf-8", newline="") as handle:
        assert render_log(run.records) == handle.read()


@pytest.mark.parametrize("scenario", [case[0] for case in GOLDEN_CASES])
def test_until_prefixes_render_by_the_schema(scenario):
    with open(scenario, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["duration"] = 40
    config = parse_scenario(json.dumps(doc))
    full = render_log(_run(config).records)
    for until in range(0, config.duration + 1, 7):
        records = _run(config, until).records
        assert_schema_lines(records)
        assert full.startswith(render_log(records))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_random_runs_render_by_the_schema(seed):
    rng = random.Random(seed)
    config = random_scenario(rng, "schema")
    assert_schema_lines(_run(config, rng.randint(0, config.duration)).records)
    assert_schema_lines(_run(config).records)


def test_aborted_run_renders_by_the_schema():
    with open(GOLDEN_CASES[0][0], encoding="utf-8") as handle:
        doc = json.load(handle)
    sensor = next(s for s in doc["sensors"] if s["iri"] == "ex:hygrometer")
    sensor["generator"] = {"kind": "ramp", "start": 0, "slope": 1}
    config = parse_scenario(json.dumps(doc).replace('"slope": 1', '"slope": 9E+999999'))
    with pytest.raises(StepFailure) as err:
        ScenarioRun(config).run()
    assert err.value.records
    assert_schema_lines(err.value.records)


@pytest.mark.parametrize("record,error", [
    # a value the row lacks, and one short of the row
    (EventRecord(3, 7, "transmission", ("d", "s", Decimal("1.50"))), ValueError),
    (EventRecord(3, 7, "transmission", ("s",)), ValueError),
    # the row's fields as a dict, in another order: a record holds no dict
    (EventRecord(3, 7, "transmission", {"signal": "s", "decider": "d"}), TypeError),
    # a kind the table lacks, and a value for a field named like the head
    (EventRecord(0, 1, "inspection", (["x", None], True)), KeyError),
    (EventRecord(0, 1, "alert", (9, "a", "b", "")), ValueError),
])
def test_a_record_off_the_table_is_refused_not_rendered_short(record, error):
    with pytest.raises(error):
        render_log([record])
    with open(GOLDEN_CASES[0][0], encoding="utf-8") as handle:
        config = parse_scenario(handle.read())
    run = ScenarioRun(config)
    with pytest.raises((KeyError, ValueError)):
        run.fold(record)
    assert run.graph.content_equal(ScenarioRun(config).graph)


def test_a_step_logs_exactly_its_row():
    with open(GOLDEN_CASES[0][0], encoding="utf-8") as handle:
        run = ScenarioRun(parse_scenario(handle.read()))
    for values in (("d",), ("d", "s", "extra")):
        with pytest.raises(ValueError):
            run._record(0, "transmission", *values)
    assert run.records == []


_KEYS = st.sampled_from(["kind", "seq", "a", "%", "%s", "é"]) | st.text(max_size=3)
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.decimals(-10**6, 10**6, allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=3),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_KEYS, _VALUES, min_size=1, max_size=6))
def test_object_template_renders_as_dumps_canonical(value):
    # filled with each value's canonical JSON in sorted key order, as
    # make_signal fills the payload's
    rendered = tuple(dumps_canonical(value[key]) for key in sorted(value))
    assert object_template(tuple(value)) % rendered == dumps_canonical(value)


# --- the table is the one description ---

def _section(title):
    text = FORMAT.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


def test_format_md_field_table_is_the_runtime_table():
    section = _section("Event log (JSON Lines)")
    table = section[section.index("| kind "):]
    rows = {}
    for line in table[:table.index("\n\n")].splitlines()[2:]:
        kind, fields = (cell.strip() for cell in line.strip().strip("|").split("|"))
        rows[kind.strip("`")] = tuple(re.findall(r"`([^`]+)`", fields))
    assert list(rows.items()) == list(FIELDS.items())
    assert "`src/twingraph/runtime.py`" in section


def test_format_md_payload_example_is_the_runtime_payload():
    # the example is the payload of the Pisano run's signal it names
    example = re.search(r"```json\n(.*)\n```", _section("Signal payload")).group(1)
    payload = json.loads(example, parse_float=Decimal)
    assert tuple(payload) == PAYLOAD_FIELDS
    with open(GOLDEN_CASES[0][0], encoding="utf-8") as handle:
        records = _run(parse_scenario(handle.read())).records
    assert [record.fields["payload"] for record in records if record.kind == "signal"
            and record.fields["signal"] == payload["signalId"]] == [example]


def test_runtime_spells_no_field_name_outside_its_tables():
    names = {name for row in FIELDS.values() for name in row} | set(PAYLOAD_FIELDS) \
        | {"kind", "seq", "tick"}
    tree = ast.parse(Path(runtime.__file__).read_text(encoding="utf-8"))
    tables = {"FIELDS", "PAYLOAD_FIELDS", "_HEAD"} | {kind.upper() for kind in FIELDS}
    inside = {id(node) for statement in tree.body if isinstance(statement, ast.Assign)
              and any(getattr(target, "id", None) in tables for target in statement.targets)
              for node in ast.walk(statement)}
    found = [f"runtime.py:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in names and id(node) not in inside]
    assert found == []
