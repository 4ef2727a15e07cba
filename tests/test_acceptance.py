"""Acceptance gate: one test per criterion, each printing a PASS or FAIL
line with its runtime against the stated limit.

Expected values are re-derived here from first principles (hand-transcribed
vocabulary tables, BFS closures, linear scans, hand-counted statement
budgets), never read back from the code under test.
"""

import random
import time
from decimal import Decimal

from twingraph import (
    SEED_VERSION,
    emit,
    evaluate_rule,
    load_scenario,
    load_seed,
    parse,
    render_log,
    run_scenario,
)
from twingraph.errors import has_errors

from conftest import (
    bfs_ancestors,
    bfs_descendants,
    literal_registry,
    oracle_applicable,
    oracle_decision,
    random_class_dag,
    random_graph,
    random_property_world,
    random_rule,
    random_scenario,
)


def check(number, name, limit_seconds, body):
    started = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - started
        print(f"criterion {number} ({name}): FAIL after {elapsed:.3f}s")
        raise
    elapsed = time.perf_counter() - started
    verdict = "PASS" if elapsed <= limit_seconds else "FAIL"
    print(f"criterion {number} ({name}): {verdict} in {elapsed:.3f}s "
          f"(limit {limit_seconds:g}s)")
    assert elapsed <= limit_seconds, f"took {elapsed:.3f}s"


# Hand-transcribed vocabulary: id -> (namespace, parents).
EXPECTED_CLASSES = {
    "E1": ("CRM", ()),
    "E3": ("CRM", ("E1",)),
    "E5": ("CRM", ("E1",)),
    "E39": ("CRM", ("E1",)),
    "E53": ("CRM", ("E1",)),
    "E55": ("CRM", ("E1",)),
    "D8": ("CRMdig", ("E1",)),
    "D9": ("CRMdig", ("E1",)),
    "D14": ("CRMdig", ("D9",)),
    "S21": ("CRMsci", ("E5",)),
    "PE1": ("CRMpe", ("E1",)),
    "HC1": ("HDTO", ("E1",)),
    "HC2": ("HDTO", ("E1",)),
    "HC3": ("HDTO", ("HC1",)),
    "HC4": ("HDTO", ("HC1",)),
    "HC6": ("HDTO", ("E1",)),
    "HC7": ("HDTO", ("E1",)),
    "HC8": ("HDTO", ("HC7",)),
    "HC9": ("RHDTO", ("D8",)),
    "HC10": ("RHDTO", ("PE1",)),
    "HC11": ("RHDTO", ("D8",)),
    "HC12": ("RHDTO", ("D9",)),
    "HC13": ("RHDTO", ("S21",)),
    "HC14": ("RHDTO", ("E5",)),
}

# id -> (namespace, domain, range)
EXPECTED_PROPERTIES = {
    "HP1": ("HDTO", "HC2", "HC1"),
    "HP11": ("RHDTO", "HC9", "D14"),
    "HP12": ("RHDTO", "HC12", "HC10"),
    "HP13": ("RHDTO", "HC14", "HC11"),
    "HP14": ("RHDTO", "HC14", "E39"),
    "HP15": ("RHDTO", "HC9", "HC3"),
    "P55": ("CRM", "E1", "E53"),
    "L12": ("CRMdig", "S21", "D8"),
    "L17": ("CRMdig", "HC13", "E55"),
    "L20": ("CRMdig", "S21", "D9"),
    "O13": ("CRMsci", "HC10", "HC14"),
    "O24": ("CRMsci", "S21", "E5"),
}


def test_criterion_1_seed_fidelity():
    def body():
        registry = load_seed()
        assert SEED_VERSION == "2026.1"
        assert len(registry.classes) == 24
        assert len(registry.properties) == 12
        assert set(registry.classes) == set(EXPECTED_CLASSES)
        assert set(registry.properties) == set(EXPECTED_PROPERTIES)
        parent_map = {}
        for cid, (namespace, parents) in EXPECTED_CLASSES.items():
            cdef = registry.classes[cid]
            assert cdef.namespace == namespace, cid
            assert cdef.parents == parents, cid
            parent_map[cid] = list(parents)
        for pid, (namespace, domain, range_) in EXPECTED_PROPERTIES.items():
            pdef = registry.properties[pid]
            assert (pdef.namespace, pdef.domain, pdef.range) == \
                (namespace, domain, range_), pid
        # every subclass answer must agree with BFS over the transcribed map
        for a in EXPECTED_CLASSES:
            ancestors = bfs_ancestors(parent_map, a)
            for b in EXPECTED_CLASSES:
                assert registry.is_subclass_of(a, b) == (b in ancestors), (a, b)
            assert registry.subclass_closure(a) == \
                {c for c in EXPECTED_CLASSES if a in bfs_ancestors(parent_map, c)}

    check(1, "seed fidelity", 1.0, body)


def test_criterion_2_pisano_golden_run():
    def body():
        run = run_scenario(load_scenario("examples/pisano/scenario.json"))
        assert run.summary() == {"ticks": 3, "measurements": 6, "signals": 6,
                                 "activations": 1, "alerts": 1}
        graph = run.graph
        statements = list(graph.statements)

        static = statements[:run.static_statements]
        assert sorted(s.property for s in static) == \
            ["HP1", "HP11", "HP11", "HP15", "P55", "P55"]

        hygrometer = graph.resolve("ex:hygrometer")
        measurements = [s.subject for s in statements
                        if s.property == "L12" and s.object == hygrometer]
        assert len(measurements) == 3
        signals = [s.object for s in statements
                   if s.property == "L20" and s.subject in measurements]
        assert len(signals) == 3
        activations = graph.instances_of("HC14")
        assert [a.value for a in activations] == \
            ["https://example.org/run/act/hygrometer/2"]

        # 3 measurements x (L12, L17, L20, O24) + 3 x HP12 + O13 + HP14 = 17
        pipeline = set(measurements) | set(signals) | set(activations)
        scoped = [s for s in statements[run.static_statements:]
                  if s.subject in pipeline or s.object in pipeline]
        assert len(scoped) == 17

    check(2, "pisano golden run", 1.0, body)


def test_criterion_3_closure_against_bfs():
    def body():
        rng = random.Random(31)
        registry, parents = random_class_dag(rng, 1000)
        for cid in parents:
            assert registry.subclass_closure(cid) == bfs_descendants(parents, cid)
        ids = sorted(parents)
        for _ in range(2000):
            a, b = rng.choice(ids), rng.choice(ids)
            assert registry.is_subclass_of(a, b) == \
                (b in bfs_ancestors(parents, a)), (a, b)

    check(3, "1000-class closure vs BFS", 10.0, body)


def test_criterion_4_applicability_against_brute_force():
    def body():
        rng = random.Random(97)
        registry, parents, class_ids, property_ids = \
            random_property_world(rng, n_classes=40, n_properties=25)
        for _ in range(500):
            pid = rng.choice(property_ids)
            subject_classes = set(rng.sample(class_ids, rng.randint(1, 3)))
            object_classes = set(rng.sample(class_ids, rng.randint(0, 3)))
            assert registry.check_applicability(pid, subject_classes,
                                                object_classes) == \
                oracle_applicable(registry, parents, pid, subject_classes,
                                  object_classes), (pid, subject_classes,
                                                    object_classes)

    check(4, "500 statements vs brute-force applicability", 5.0, body)


def test_criterion_5_serialization_round_trips():
    def body():
        rng = random.Random(55)
        registry = literal_registry()
        for i in range(100):
            graph = random_graph(rng, registry, f"rt{i}")
            text = emit(graph)
            reparsed, diagnostics = parse(text, registry)
            assert not has_errors(diagnostics), diagnostics
            assert reparsed.content_equal(graph)
            assert emit(reparsed) == text

    check(5, "100 graph round trips", 5.0, body)


def test_criterion_6_rules_against_linear_scan():
    def body():
        rng = random.Random(23)
        for i in range(1000):
            rule = random_rule(rng, f"r{i}", "humidity")
            window = [Decimal(rng.randint(-60, 160))
                      for _ in range(rng.randint(0, 12))]
            assert evaluate_rule(rule, window) is oracle_decision(rule, window), (rule, window)

    check(6, "1000 rule evaluations vs linear scan", 5.0, body)


def test_criterion_7_deterministic_replay():
    def body():
        for path in ("examples/pisano/scenario.json",
                     "examples/pisano/scenario-noisy.json"):
            config = load_scenario(path)
            first = run_scenario(config)
            second = run_scenario(config)
            assert emit(first.graph) == emit(second.graph), path
            assert render_log(first.records) == render_log(second.records), path

    check(7, "byte-identical double runs", 2.0, body)


def test_criterion_8_conservation_invariants():
    def body():
        rng = random.Random(2026)
        for i in range(50):
            run = run_scenario(random_scenario(rng, f"acc{i}"))
            graph = run.graph
            signals = graph.instances_of("HC12")
            created = [s for s in graph.statements if s.property == "L20"]
            transmitted = [s for s in graph.statements if s.property == "HP12"]
            assert len(signals) == len(created) == len(transmitted), i
            for activation in graph.instances_of("HC14"):
                incoming = [s for s in graph.statements
                            if s.property == "O13" and s.object == activation]
                outgoing = [s for s in graph.statements
                            if s.property in ("HP13", "HP14")
                            and s.subject == activation]
                assert len(incoming) == 1, (i, activation)
                assert outgoing, (i, activation)
            report = graph.validate()
            assert not report.violations, (i, report.violations)
            reparsed, diagnostics = parse(emit(graph), load_seed())
            assert not has_errors(diagnostics), (i, diagnostics)
            assert reparsed.content_equal(graph), i

    check(8, "50 random scenarios conserve counts", 10.0, body)
