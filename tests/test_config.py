"""Scenario loading: defaults, exact decimals, every rejection path."""

import copy
import json
from decimal import Decimal

import jsonschema
import pytest

from twingraph import ConfigError, load_scenario, parse_scenario
from twingraph.config import ConstantGen, ListGen, NoisyGen, build_scenario


def base() -> dict:
    return copy.deepcopy({
        "prefixes": {"ex": "https://example.org/cfg/"},
        "start": "2026-03-01T12:00:00Z",
        "tick_seconds": 60,
        "duration": 2,
        "seed": 5,
        "entities": {
            "assets": [{"iri": "ex:obj", "located_in": "ex:room"}],
            "places": ["ex:room"],
            "twin": {"iri": "ex:twin", "twin_of": "ex:obj"},
            "software": ["ex:sw"],
            "actors": ["ex:curator"],
            "activators": [{"iri": "ex:fan", "action": "spin"}],
        },
        "sensors": [{
            "iri": "ex:s", "measured_type": "humidity", "unit": "%RH",
            "software": "ex:sw", "located_in": "ex:room",
            "generator": {"kind": "constant", "value": 40},
        }],
        "decider": {
            "iri": "ex:brain",
            "rules": 'RULE r WHEN TYPE = "humidity" AND VALUE > 70 '
                     'THEN ACTIVATE ex:fan, ALERT ex:curator VIA "email"',
        },
    })


def test_valid_document_and_defaults():
    config = build_scenario(base())
    assert config.seed == 5
    assert config.twin.twin_of == "ex:obj"
    sensor = config.sensors[0]
    assert sensor.period == 1 and sensor.phase == 0
    assert sensor.observed_event == "humidity"  # falls back to measured_type
    assert sensor.condition_state is None
    assert config.decider.rules[0].id == "r"
    assert config.resolve("ex:s") == "https://example.org/cfg/s"


def test_entity_sections_may_be_absent():
    doc = base()
    doc["entities"] = {"places": ["ex:room"]}
    doc["sensors"][0]["software"] = "https://example.org/other/sw"
    doc["entities"]["software"] = ["https://example.org/other/sw"]
    doc["decider"]["rules"] = ""
    config = build_scenario(doc)
    assert config.assets == () and config.twin is None
    assert config.actors == () and config.activators == ()
    assert config.decider.rules == ()


def test_floats_parse_as_exact_decimals():
    config = parse_scenario(json.dumps(base()).replace('"value": 40',
                                                       '"value": 0.1'))
    gen = config.sensors[0].generator
    assert isinstance(gen, ConstantGen)
    assert gen.value == Decimal("0.1")
    assert str(gen.value) == "0.1"


def test_noisy_generator_defaults():
    doc = base()
    doc["sensors"][0]["generator"] = {
        "kind": "noisy", "stddev": 1,
        "inner": {"kind": "list", "values": [1, 2]}}
    gen = build_scenario(doc).sensors[0].generator
    assert isinstance(gen, NoisyGen) and gen.seed == 0
    assert isinstance(gen.inner, ListGen)


def test_run_prefix_accepts_its_own_iri():
    doc = base()
    doc["prefixes"]["run"] = "https://example.org/run/"
    build_scenario(doc)


def test_clock_may_end_at_the_last_representable_second():
    doc = base()
    doc.update(start="9999-12-31T23:59:57Z", tick_seconds=1, duration=2)
    build_scenario(doc)
    doc["duration"] = 3
    with pytest.raises(ConfigError, match="must end by 9999"):
        build_scenario(doc)


def test_not_json_and_not_object():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_scenario("{nope")
    with pytest.raises(ConfigError, match="top level must be an object"):
        parse_scenario("[1, 2]")


def test_unreadable_path():
    with pytest.raises(ConfigError, match="cannot read scenario"):
        load_scenario("/no/such/file.json")


def drop(key):
    def change(doc):
        del doc[key]
    return change


def put(path, value):
    def change(doc):
        node = doc
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
    return change


REJECTIONS = [
    ("unknown-top-field", put(("extra",), 1), r"unknown field"),
    ("missing-seed", drop("seed"), r"missing required field 'seed'"),
    ("bad-prefix-name", put(("prefixes", "9x"), "https://x.org/"),
     r"bad prefix declaration"),
    ("relative-prefix-iri", put(("prefixes", "ex"), "not-absolute"),
     r"absolute IRI"),
    ("reserved-run-prefix", put(("prefixes", "run"), "https://elsewhere.org/"),
     r"reserved"),
    ("offset-start", put(("start",), "2026-03-01T12:00:00+02:00"), r"bad start"),
    ("zero-tick", put(("tick_seconds",), 0), r"at least 1"),
    ("negative-duration", put(("duration",), -1), r"not be negative"),
    ("clock-past-9999", put(("tick_seconds",), 10 ** 12), r"must end by 9999"),
    ("negative-seed", put(("seed",), -1), r"\[0, 2\^64\)"),
    ("huge-seed", put(("seed",), 2 ** 64), r"\[0, 2\^64\)"),
    ("bool-seed", put(("seed",), True), r"must be an integer"),
    ("unknown-entity-field", put(("entities", "robots"), []), r"unknown field"),
    ("assets-not-array", put(("entities", "assets"), None),
     r"entities\.assets: must be an array"),
    ("activators-not-array", put(("entities", "activators"), -1),
     r"entities\.activators: must be an array"),
    ("asset-place-missing", put(("entities", "assets", 0, "located_in"), "ex:void"),
     r"not a declared place"),
    ("twin-asset-missing", put(("entities", "twin", "twin_of"), "ex:void"),
     r"not a declared asset"),
    ("activator-without-action", put(("entities", "activators", 0), {"iri": "ex:fan"}),
     r"missing required field 'action'"),
    ("undeclared-prefix", put(("entities", "places", 0), "zz:room"),
     r"cannot resolve"),
    ("iri-with-space", put(("entities", "places", 0), "https://example.org/a b"),
     r"cannot carry"),
    ("sensor-software-undeclared", put(("sensors", 0, "software"), "ex:ghost"),
     r"is not declared"),
    ("sensor-both-attachments", put(("sensors", 0, "positioned_on"), "ex:obj"),
     r"exactly one"),
    ("sensor-no-attachment", put(("sensors", 0, "located_in"), None), r"exactly one"),
    ("sensor-asset-missing",
     lambda doc: (doc["sensors"][0].pop("located_in"),
                  doc["sensors"][0].__setitem__("positioned_on", "ex:void")),
     r"not a declared asset"),
    ("zero-period", put(("sensors", 0, "period"), 0), r"at least 1"),
    ("phase-at-period", put(("sensors", 0, "phase"), 1), r"\[0, period\)"),
    ("negative-phase", put(("sensors", 0, "phase"), -1), r"\[0, period\)"),
    ("empty-measured-type", put(("sensors", 0, "measured_type"), ""),
     r"must not be empty"),
    ("empty-observed-event", put(("sensors", 0, "observed_event"), ""),
     r"non-empty"),
    ("duplicate-sensor",
     lambda doc: doc["sensors"].append(doc["sensors"][0] | {}),
     r"duplicate sensor IRI"),
    ("sensor-local-name-collision",
     lambda doc: doc["sensors"].append(
         doc["sensors"][0] | {"iri": "https://example.org/other/s"}),
     r"sensors 'ex:s' and 'https://example.org/other/s' share the local name 's'"),
    ("unknown-generator", put(("sensors", 0, "generator"), {"kind": "chaos"}),
     r"unknown generator kind"),
    ("generator-extra-field",
     put(("sensors", 0, "generator"), {"kind": "constant", "value": 1, "x": 2}),
     r"unknown field"),
    ("generator-string-value",
     put(("sensors", 0, "generator"), {"kind": "constant", "value": "40"}),
     r"must be a number"),
    ("sine-zero-period",
     put(("sensors", 0, "generator"),
         {"kind": "sine", "mean": 1, "amplitude": 1, "period": 0}),
     r"at least 1"),
    ("list-empty",
     put(("sensors", 0, "generator"), {"kind": "list", "values": []}),
     r"at least one value"),
    ("noisy-negative-stddev",
     put(("sensors", 0, "generator"),
         {"kind": "noisy", "stddev": -1, "inner": {"kind": "constant", "value": 1}}),
     r"not be negative"),
    ("noisy-huge-seed",
     put(("sensors", 0, "generator"),
         {"kind": "noisy", "stddev": 1, "seed": 2 ** 64,
          "inner": {"kind": "constant", "value": 1}}),
     r"noisy seed"),
    ("rules-unparseable", put(("decider", "rules"), "RULE broken WHEN"),
     r"decider\.rules:"),
    ("activate-target-undeclared",
     put(("decider", "rules"),
         'RULE r WHEN TYPE = "humidity" AND VALUE > 70 THEN ACTIVATE ex:ghost'),
     r"not a declared activator"),
    ("alert-target-undeclared",
     put(("decider", "rules"),
         'RULE r WHEN TYPE = "humidity" AND VALUE > 70 THEN ALERT ex:fan VIA "x"'),
     r"not a declared actor"),
]


@pytest.mark.parametrize("change,needle",
                         [(c, n) for _, c, n in REJECTIONS],
                         ids=[i for i, _, _ in REJECTIONS])
def test_rejections(change, needle):
    doc = base()
    change(doc)
    with pytest.raises(ConfigError, match=needle):
        build_scenario(doc)


@pytest.mark.parametrize("path", ["examples/pisano/scenario.json",
                                  "examples/pisano/scenario-noisy.json"])
def test_shipped_scenarios_load_and_match_schema(path):
    load_scenario(path)
    with open("docs/scenario.schema.json", encoding="utf-8") as handle:
        schema = json.load(handle)
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    jsonschema.validate(document, schema)


def test_schema_rejects_shape_errors():
    with open("docs/scenario.schema.json", encoding="utf-8") as handle:
        schema = json.load(handle)
    doc = base()
    doc["sensors"][0]["positioned_on"] = "ex:obj"  # both attachments present
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)
