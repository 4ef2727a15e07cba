"""Scenario loading: defaults, exact decimals, every rejection path."""

import copy
import json
from decimal import Decimal

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from twingraph import ConfigError, load_scenario, parse_scenario
from twingraph.cli import main
from twingraph.config import (
    ActivatorSpec,
    AssetSpec,
    ConstantGen,
    ListGen,
    NoisyGen,
    TwinSpec,
    build_scenario,
)


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
    assert config.twin.twin_of == "https://example.org/cfg/obj"
    sensor = config.sensors[0]
    assert sensor.iri == "https://example.org/cfg/s"
    assert sensor.period == 1 and sensor.phase == 0
    assert sensor.observed_event == "humidity"  # falls back to measured_type
    assert not hasattr(sensor, "condition_state")  # the key is checked, not stored
    assert config.decider.rules[0].id == "r"
    assert [a.target for a in config.decider.rules[0].actions] == [
        "https://example.org/cfg/fan", "https://example.org/cfg/curator"]


def test_every_iri_field_holds_the_expanded_iri():
    doc = base()
    sensor = dict(doc["sensors"][0], iri="<https://example.org/cfg/t>",
                  positioned_on="ex:obj")
    del sensor["located_in"]
    doc["sensors"].append(sensor)
    config = build_scenario(doc)
    ex = "https://example.org/cfg/"
    assert config.places == (ex + "room",)
    assert config.software == (ex + "sw",)
    assert config.actors == (ex + "curator",)
    assert config.assets == (AssetSpec(ex + "obj", ex + "room"),)
    assert config.twin == TwinSpec(ex + "twin", ex + "obj")
    assert config.activators == (ActivatorSpec(ex + "fan", "spin"),)
    assert config.decider.iri == ex + "brain"
    assert [(s.iri, s.software, s.positioned_on, s.located_in)
            for s in config.sensors] == [(ex + "s", ex + "sw", None, ex + "room"),
                                         (ex + "t", ex + "sw", ex + "obj", None)]


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
    # past the parser's limits: int() takes at most 4300 digits (3.10.7+),
    # and nesting is bounded by the recursion limit
    for text in ('{"seed": 1' + "0" * 5000 + "}", "[" * 100_000 + "]" * 100_000):
        with pytest.raises(ConfigError):
            parse_scenario(text)


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
    # the graph text could not declare it, so the written graph would not parse
    ("prefix-iri-with-space", put(("prefixes", "bad"), "https://a b/"),
     r"prefix 'bad' must map to an absolute IRI"),
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
    ("asset-not-object", put(("entities", "assets", 0), "ex:obj"),
     r"entities\.assets\[0\]: must be an object"),
    ("asset-extra-field", put(("entities", "assets", 0, "x"), 1),
     r"entities\.assets\[0\]: unknown field\(s\) \['x'\]"),
    ("twin-not-object", put(("entities", "twin"), "ex:twin"),
     r"entities\.twin: must be an object"),
    ("twin-extra-field", put(("entities", "twin", "x"), 1),
     r"entities\.twin: unknown field\(s\) \['x'\]"),
    ("activator-not-object", put(("entities", "activators", 0), ["ex:fan"]),
     r"entities\.activators\[0\]: must be an object"),
    ("activator-extra-field", put(("entities", "activators", 0, "x"), 1),
     r"entities\.activators\[0\]: unknown field\(s\) \['x'\]"),
    ("asset-place-missing", put(("entities", "assets", 0, "located_in"), "ex:void"),
     r"not a declared place"),
    ("twin-asset-missing", put(("entities", "twin", "twin_of"), "ex:void"),
     r"not a declared asset"),
    ("activator-without-action", put(("entities", "activators", 0), {"iri": "ex:fan"}),
     r"missing required field 'action'"),
    # one IRI, two spellings: the second action would replace the first
    ("duplicate-activator",
     lambda doc: doc["entities"]["activators"].append(
         {"iri": "<https://example.org/cfg/fan>", "action": "fill"}),
     r"entities\.activators\[1\]: duplicate activator IRI "
     r"'<https://example\.org/cfg/fan>'"),
    # scenario entities would merge with the runtime's own individuals
    ("decider-in-run-namespace",
     put(("decider", "iri"), "<https://example.org/run/sig/hygrometer/2>"),
     r"decider: '<https://example\.org/run/sig/hygrometer/2>' expands under "
     r"https://example\.org/run/, which is reserved for runtime-minted IRIs"),
    ("place-in-run-namespace",
     put(("entities", "places", 0), "<https://example.org/run/m/hygrometer/0>"),
     r"entities\.places\[0\]: .* reserved for runtime-minted IRIs"),
    ("actor-in-run-namespace-by-alias",
     lambda doc: (doc["prefixes"].__setitem__("run", "https://example.org/run/"),
                  doc["entities"]["actors"].__setitem__(0, "run:act/hygrometer/2")),
     r"entities\.actors\[0\]: 'run:act/hygrometer/2' expands under "
     r"https://example\.org/run/"),
    # an alias, used or not, would let emit write the runtime's individuals under it
    ("run-namespace-alias", put(("prefixes", "r2"), "https://example.org/run/"),
     r"scenario: prefix 'r2' maps under https://example\.org/run/"),
    ("run-namespace-alias-below", put(("prefixes", "r3"), "https://example.org/run/act/"),
     r"scenario: prefix 'r3' maps under https://example\.org/run/"),
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
    ("sensor-not-object", put(("sensors", 0), "ex:s"), r"sensors\[0\]: must be an object"),
    ("sensor-extra-field", put(("sensors", 0, "x"), 1),
     r"sensors\[0\]: unknown field\(s\) \['x'\]"),
    ("non-string-condition-state", put(("sensors", 0, "condition_state"), 1),
     r"sensors\[0\]: condition_state must be a string"),
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


# --- fuzz: mutated documents load or are ConfigError, and then run ---

def _paths(node, prefix=()):
    """(path, value) for every key path of a JSON document, the root excluded."""
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,), child
        yield from _paths(child, prefix + (key,))


_NUMBERS = st.sampled_from([2 ** 64, -1, 0, 1, 3, Decimal("9E+999999"),
                            Decimal("-9E+999999"), Decimal("0.5"), Decimal("1E-40")])
_TEXTS = st.text(max_size=5) | st.sampled_from([
    "ex:obj", "ex:room", "ex:fan", "ex:curator", "ex:sw", "ex:nope", "wd:Q1", "zz:x",
    "humidity", "https://example.org/cfg/x", "0999-01-01T00:00:00Z",
    "2026-03-01T12:00:00+01:00"])
_GENERATORS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("constant"), "value": _NUMBERS}),
    st.fixed_dictionaries({"kind": st.just("ramp"), "start": _NUMBERS, "slope": _NUMBERS}),
    st.fixed_dictionaries({"kind": st.just("sine"), "mean": _NUMBERS,
                           "amplitude": _NUMBERS, "period": _NUMBERS}),
    st.fixed_dictionaries({"kind": st.just("noisy"), "stddev": _NUMBERS,
                           "inner": st.just({"kind": "constant", "value": 1})}))
_VALUES = st.recursive(
    _NUMBERS | _TEXTS | _GENERATORS | st.integers(-10, 10) | st.booleans() | st.none(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["iri", "kind", "value", "x"]), inner, max_size=3),
    max_leaves=6)


_BASE = list(_paths(base()))
_BASE_TEXTS = st.sampled_from(sorted({v for _, v in _BASE if isinstance(v, str)}))
_INTEGERS = st.sampled_from([2 ** 64, -1, 0, 1, 3]) | st.integers(-10, 10)


def _like(value):
    """Values of the same JSON kind as a base value, so that many mutants load."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, int):
        return _INTEGERS | _NUMBERS
    if isinstance(value, str):
        return _BASE_TEXTS | _TEXTS
    return _GENERATORS


# three in four mutations set a scalar or a generator to a value of its kind,
# the rest set any path, containers included, to any value
_KEEP_KIND = st.sampled_from([(path, value) for path, value in _BASE
                              if not isinstance(value, (dict, list)) or "kind" in value])
_MUTATIONS = st.lists(st.one_of(
    *[_KEEP_KIND.flatmap(lambda pair: st.tuples(st.just(pair[0]), _like(pair[1])))] * 3,
    st.tuples(st.sampled_from([path for path, _ in _BASE]), _VALUES)), min_size=1, max_size=3)


def _to_json(value):
    """JSON text in which each Decimal keeps its own notation (9E+999999)."""
    if isinstance(value, Decimal):
        return str(value)
    if isinstance(value, dict):
        return "{" + ",".join(json.dumps(key) + ":" + _to_json(item)
                              for key, item in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ",".join(map(_to_json, value)) + "]"
    return json.dumps(value)


def _mutate(doc, path, value):
    node = doc
    try:
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass  # an earlier mutation replaced a container on this path


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_MUTATIONS)
def test_mutated_scenarios_load_or_fail_typed_and_run(tmp_path, mutations):
    doc = base()
    for path, value in mutations:
        _mutate(doc, path, value)
    text = _to_json(doc)
    try:
        parse_scenario(text)
    except ConfigError:
        return
    scenario = tmp_path / "mutant.json"
    scenario.write_text(text, encoding="utf-8")
    code = main(["run", str(scenario), "--until", "4",
                 "--out", str(tmp_path / "mutant.rht.ttl"),
                 "--log", str(tmp_path / "mutant.log.jsonl")])
    assert code in (0, 1, 2)
