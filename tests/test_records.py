"""Record types: every value record is a NamedTuple, and how they behave.

A NamedTuple costs a fraction of a dataclass to define at import, and
_replace is the one copy idiom. No class in the package is a dataclass, and
importing the command line loads neither dataclasses nor the inspect module
it pulls in. Registry is a plain class, so it is not a record here.
"""

import ast
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from twingraph import (
    Graph,
    Iri,
    Literal,
    ScenarioRun,
    Statement,
    build_scenario,
    load_seed,
    parse,
    parse_rules,
    parse_scenario,
    seed_class_table,
    seed_property_table,
)
from twingraph.textformat import parse_raw

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ROOT / "src" / "twingraph"
NOISY = ROOT / "examples" / "pisano" / "scenario-noisy.json"
EX = "https://example.org/r/"

NAMED_TUPLES = {
    "ParseDiagnostic", "Action", "Rule",
    "ConstantGen", "RampGen", "SineGen", "ListGen", "NoisyGen",
    "AssetSpec", "TwinSpec", "ActivatorSpec", "DeciderSpec",
    "OntologyClassDef", "PropertyDef", "Violation", "ValidationReport",
    "Iri", "Literal", "Statement", "EventRecord",
    "RawLiteral", "RawTriple", "RawType", "SensorSpec", "ScenarioConfig",
}


def _is_dataclass_decorator(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr == "dataclass"
    return isinstance(node, ast.Name) and node.id == "dataclass"


def test_no_class_is_a_dataclass_and_no_module_imports_dataclasses():
    sources = sorted(SOURCES.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    _is_dataclass_decorator(d) for d in node.decorator_list):
                found.append(f"{path.name}: class {node.name}")
            elif isinstance(node, ast.Import) and any(
                    a.name.split(".")[0] == "dataclasses" for a in node.names):
                found.append(f"{path.name}: import dataclasses")
            elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
                found.append(f"{path.name}: from dataclasses import")
    assert found == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter; `site` may preload modules, so only what the
    # import adds counts
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import twingraph.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    path = os.pathsep.join(filter(None, [str(SOURCES.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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

    graph = Graph(load_seed(), {"ex": EX})
    graph.add_entity(graph.resolve("ex:place"), "E53")
    graph.add_entity(graph.resolve("ex:asset"), "HC3")
    graph.statements[Statement(Iri(EX + "place"), "HP1", Iri(EX + "asset"))] = None
    report = graph.validate()

    _, diagnostics = parse('ex:a ex:p "oops .\n', load_seed())

    run = ScenarioRun(config)
    spec = config.sensors[0]
    run.sample(spec, 0)
    raw = parse_raw(f'@prefix ex: <{EX}> .\nex:a a ex:C ; ex:p "x" .\n')

    return [diagnostics[0], rule.actions[0], rule,
            *generators, noisy.inner, noisy,
            config.assets[0], config.twin, config.activators[0], config.decider,
            seed_class_table()[0], seed_property_table()[0],
            report.violations[0], report,
            graph.resolve("ex:place"), Literal.of("decimal", "1.50"),
            report.violations[0].statement, run.records[0],
            raw.triples[0].object, raw.triples[0], raw.types[0], spec, config]


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
