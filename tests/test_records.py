"""Record types: which classes are dataclasses, and how the others behave.

Value records built once per config, rule, registry entry or finding are
NamedTuples, which cost a fraction of a dataclass to define at import. The
records built or read once per statement or log record stay slotted
dataclasses, whose field reads are faster; SensorSpec and ScenarioConfig
keep dataclasses.replace and a cached property; Registry stays frozen.
"""

import ast
import json
from decimal import Decimal
from pathlib import Path

import pytest

from twingraph import (
    Graph,
    Iri,
    Statement,
    build_scenario,
    evaluate_rule,
    load_seed,
    parse,
    parse_rules,
    parse_scenario,
    seed_class_table,
    seed_property_table,
)

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ROOT / "src" / "twingraph"
NOISY = ROOT / "examples" / "pisano" / "scenario-noisy.json"
EX = "https://example.org/r/"

KEPT_DATACLASSES = {
    "Iri", "Literal", "Statement", "EventRecord", "SignalPayload",  # hot
    "RawLiteral", "RawTriple", "RawType",  # hot, in graph reading
    "SensorSpec", "ScenarioConfig",  # dataclasses.replace, cached_property
    "Registry",  # frozen
}

NAMED_TUPLES = {
    "ParseDiagnostic", "Action", "Rule", "Decision",
    "ConstantGen", "RampGen", "SineGen", "ListGen", "NoisyGen",
    "AssetSpec", "TwinSpec", "ActivatorSpec", "DeciderSpec",
    "OntologyClassDef", "PropertyDef", "Violation", "ValidationReport",
}


def _is_dataclass_decorator(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr == "dataclass"
    return isinstance(node, ast.Name) and node.id == "dataclass"


def test_only_the_kept_classes_are_dataclasses():
    sources = sorted(SOURCES.glob("*.py"))
    assert sources
    decorated = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    _is_dataclass_decorator(d) for d in node.decorator_list):
                decorated.append(node.name)
    assert sorted(decorated) == sorted(KEPT_DATACLASSES)


def _records() -> list:
    """One instance of each NamedTuple record, each from its public path."""
    text = NOISY.read_text(encoding="utf-8")
    config = parse_scenario(text)
    noisy = config.sensors[0].generator
    data = json.loads(text, parse_float=Decimal)
    generators = []
    for generator in ({"kind": "constant", "value": 1},
                      {"kind": "ramp", "start": 0, "slope": 2},
                      {"kind": "sine", "mean": 0, "amplitude": 1, "period": 4}):
        data["sensors"][0]["generator"] = generator
        generators.append(build_scenario(data).sensors[0].generator)

    (rule,), _ = parse_rules('RULE r WHEN TYPE = "humidity" AND VALUE > 70 '
                             'THEN ALERT ex:opd VIA "email"')
    decision = evaluate_rule(rule, [Decimal(71)])

    graph = Graph(load_seed(), {"ex": EX})
    graph.add_entity("ex:place", ["E53"])
    graph.add_entity("ex:asset", ["HC3"])
    graph.statements[Statement(Iri(EX + "place"), "HP1", Iri(EX + "asset"))] = None
    report = graph.validate()

    _, diagnostics = parse('ex:a ex:p "oops .\n', load_seed())

    return [diagnostics[0], rule.actions[0], rule, decision,
            *generators, noisy.inner, noisy,
            config.assets[0], config.twin, config.activators[0], config.decider,
            seed_class_table()[0], seed_property_table()[0],
            report.violations[0], report]


RECORDS = _records()


def test_the_table_has_one_record_of_each_converted_class():
    assert sorted(type(r).__name__ for r in RECORDS) == sorted(NAMED_TUPLES)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_is_immutable_hashable_and_named(record):
    for name in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    try:
        for value in record:
            hash(value)
    except TypeError:  # a field holds a list: the record cannot hash either
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(record._replace())
    assert repr(record).startswith(type(record).__name__ + "(")
