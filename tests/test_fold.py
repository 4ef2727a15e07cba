"""The run graph is the static graph plus the fold of the event log.

ScenarioRun.fold writes the statements one record implies. Folding a run's
records in log order into a fresh run of the same config must rebuild the
run's graph, for finished runs, shortened runs and aborted runs alike; and
no other code in runtime.py may write to the graph."""

import ast
import dataclasses
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from twingraph import (Iri, StepFailure, load_scenario, parse_rules, parse_scenario,
                       run_scenario, runtime)
from twingraph.config import DeciderSpec
from twingraph.errors import ActionTargetMissingError
from twingraph.runtime import ScenarioRun

from conftest import random_scenario

PISANO = ["examples/pisano/scenario.json", "examples/pisano/scenario-noisy.json"]


def assert_replays(config, run_graph, records):
    fresh = ScenarioRun(config)
    for record in records:
        fresh.fold(record)
    assert fresh.graph.content_equal(run_graph)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_random_runs_and_their_prefixes_replay(seed):
    rng = random.Random(seed)
    config = random_scenario(rng, "fold")
    for until in (None, rng.randint(0, config.duration)):
        run = ScenarioRun(config)
        run.run(until)
        assert_replays(config, run.graph, run.records)


@pytest.mark.parametrize("path", PISANO)
def test_pisano_runs_and_every_prefix_replay(path):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["duration"] = 40
    config = parse_scenario(json.dumps(doc))
    for until in range(config.duration + 1):
        run = ScenarioRun(config)
        run.run(until)
        assert_replays(config, run.graph, run.records)
    assert run.summary()["activations"] > 0


def test_run_aborted_by_generator_overflow_replays():
    with open(PISANO[0], encoding="utf-8") as handle:
        doc = json.load(handle)
    sensor = next(s for s in doc["sensors"] if s["iri"] == "ex:hygrometer")
    sensor["generator"] = {"kind": "ramp", "start": 0, "slope": 1}
    config = parse_scenario(json.dumps(doc).replace('"slope": 1', '"slope": 9E+999999'))
    with pytest.raises(StepFailure) as err:
        ScenarioRun(config).run()
    assert err.value.tick == 2 and err.value.records
    assert_replays(config, err.value.graph, err.value.records)


def test_run_aborted_by_missing_action_target_replays():
    config = load_scenario(PISANO[0])
    rules, diagnostics = parse_rules(
        'RULE r WHEN TYPE = "humidity" AND VALUE > 70 THEN ACTIVATE ex:nosuch')
    assert not diagnostics
    broken = dataclasses.replace(
        config, decider=DeciderSpec(iri=config.decider.iri, rules=tuple(rules)))
    with pytest.raises(StepFailure) as err:
        ScenarioRun(broken).run()
    assert isinstance(err.value.cause, ActionTargetMissingError)
    assert_replays(broken, err.value.graph, err.value.records)


def test_each_node_of_a_run_is_one_iri_object():
    # memory: a node named by several statements is held once
    with open(PISANO[1], encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["duration"] = 40
    run = run_scenario(parse_scenario(json.dumps(doc)))
    assert run.summary()["alerts"] > 0
    terms = [term for statement in run.graph.statements
             for term in (statement.subject, statement.object) if isinstance(term, Iri)]
    assert len({id(term) for term in terms}) == len({term.value for term in terms})


# --- one writer ---

WRITES = {"add_entity", "add_statement", "insert"}
WRITERS = {"ScenarioRun.fold", "ScenarioRun._label_node", "ScenarioRun._build_static"}


def _writing_functions(tree):
    """Qualified names of the top-level functions and methods that call a
    graph write; a nested function counts as the one that encloses it."""
    units = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            units += [(f"{node.name}.{getattr(m, 'name', '<body>')}", m) for m in node.body]
        else:
            units.append((getattr(node, "name", "<module>"), node))
    return {name for name, unit in units for call in ast.walk(unit)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr in WRITES}


def test_only_fold_writes_run_statements():
    with open(runtime.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    writers = _writing_functions(tree)
    assert "ScenarioRun.fold" in writers
    assert writers <= WRITERS, f"graph writes outside {sorted(WRITERS)}: " \
                               f"{sorted(writers - WRITERS)}"
