"""Shared builders for randomized tests.

Everything here is seeded explicitly so failures reproduce. Oracles are
written as separate, dumb re-derivations (plain BFS, linear scans) rather
than calls back into the code under test.
"""

import json
import operator
import random
from decimal import Decimal

import pytest

from twingraph import (
    OntologyClassDef,
    PropertyDef,
    Registry,
    Rule,
    TriggerMode,
    load_seed,
    parse_scenario,
)
from twingraph.rules import COMPARATORS


@pytest.fixture(scope="session")
def seed_registry():
    return load_seed()


# --- random class DAGs ---

def random_class_dag(rng, n):
    """Registry with n extra classes under E1 plus the raw parent map."""
    registry = load_seed()
    parents = {}
    ids = []
    for i in range(n):
        cid = f"E{1000 + i}"
        k = rng.randint(0, min(3, len(ids)))
        chosen = rng.sample(ids, k) if k else []
        if not chosen:
            chosen = ["E1"]
        registry = registry.register_class(OntologyClassDef(
            id=cid, label=f"generated {i}", namespace="CRM",
            parents=tuple(chosen)))
        parents[cid] = list(chosen)
        ids.append(cid)
    return registry, parents


def bfs_ancestors(parents, start):
    """All ids reachable by following parent links, start included."""
    seen = {start}
    queue = [start]
    while queue:
        node = queue.pop()
        for parent in parents.get(node, []):
            if parent not in seen:
                seen.add(parent)
                queue.append(parent)
    return seen


def bfs_descendants(parents, start):
    children = {}
    for child, plist in parents.items():
        for parent in plist:
            children.setdefault(parent, []).append(child)
    seen = {start}
    queue = [start]
    while queue:
        node = queue.pop()
        for child in children.get(node, []):
            if child not in seen:
                seen.add(child)
                queue.append(child)
    return seen


# --- random property worlds for applicability checks ---

def random_property_world(rng, n_classes=12, n_properties=8):
    """Registry with a random hierarchy and properties over it.

    Returns (registry, parents, class_ids, property_ids). Roughly a third
    of the properties get a literal-kind range.
    """
    from twingraph.ontology import LITERAL_KINDS

    registry, parents = random_class_dag(rng, n_classes)
    class_ids = sorted(parents)
    property_ids = []
    for i in range(n_properties):
        pid = f"P{900 + i}"
        domain = rng.choice(class_ids)
        if rng.random() < 0.35:
            rng_target = rng.choice(LITERAL_KINDS)
        else:
            rng_target = rng.choice(class_ids)
        registry = registry.register_property(PropertyDef(
            id=pid, label=f"generated property {i}", namespace="CRM",
            domain=domain, range=rng_target))
        property_ids.append(pid)
    return registry, parents, class_ids, property_ids


def oracle_applicable(registry, parents, prop_id, subject_classes, object_classes):
    """Brute-force domain/range check against the raw parent map."""
    from twingraph.ontology import LITERAL_KINDS

    pdef = registry.properties[prop_id]
    subject_ancestors = set()
    for c in subject_classes:
        subject_ancestors |= bfs_ancestors(parents, c)
    if pdef.domain not in subject_ancestors:
        return False
    if pdef.range in LITERAL_KINDS:
        return True
    object_ancestors = set()
    for c in object_classes:
        object_ancestors |= bfs_ancestors(parents, c)
    return pdef.range in object_ancestors


# --- rule evaluation oracle ---

_ORACLE_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
               ">=": operator.ge, "=": operator.eq, "!=": operator.ne}


def oracle_decision(rule, window):
    """Linear-scan re-derivation of the trigger semantics."""
    op = _ORACLE_OPS[rule.comparator]
    sat = [op(v, rule.threshold) for v in window]

    def holds(end):
        if end + 1 < rule.sustain:
            return False
        return all(sat[end - rule.sustain + 1:end + 1])

    if not window:
        return False
    now = holds(len(window) - 1)
    if rule.mode is TriggerMode.EVERY:
        return now
    return now and not holds(len(window) - 2)


def random_rule(rng, rule_id, measured_type, actions=()):
    return Rule(
        id=rule_id,
        measured_type=measured_type,
        comparator=rng.choice(list(COMPARATORS)),
        threshold=Decimal(rng.randint(-50, 150)),
        sustain=rng.randint(1, 4),
        mode=rng.choice([TriggerMode.ON_RISE, TriggerMode.EVERY]),
        actions=tuple(actions),
    )


# --- random scenario configs ---

MEASURED_TYPES = ["humidity", "temperature", "acceleration", "tilt"]
UNITS = {"humidity": "%RH", "temperature": "C", "acceleration": "g", "tilt": "deg"}


def _random_generator(rng):
    kind = rng.choice(["constant", "ramp", "sine", "list", "noisy"])
    if kind == "constant":
        return {"kind": "constant", "value": rng.randint(-20, 100)}
    if kind == "ramp":
        return {"kind": "ramp", "start": rng.randint(0, 50),
                "slope": rng.choice([-3, -1, 1, 2, 5])}
    if kind == "sine":
        return {"kind": "sine", "mean": rng.randint(20, 60),
                "amplitude": rng.randint(1, 40), "period": rng.randint(2, 8)}
    if kind == "list":
        return {"kind": "list",
                "values": [rng.randint(0, 100) for _ in range(rng.randint(1, 6))]}
    return {"kind": "noisy", "inner": _random_generator(rng),
            "stddev": round(rng.uniform(0.1, 4.0), 3),
            "seed": rng.randint(0, 2**32)}


def random_scenario_text(rng, tag):
    """A syntactically valid scenario document with random shape."""
    n_places = rng.randint(1, 2)
    places = [f"ex:place{i}" for i in range(n_places)]
    n_assets = rng.randint(1, 2)
    assets = [{"iri": f"ex:asset{i}", "located_in": rng.choice(places)}
              for i in range(n_assets)]
    actors = [f"ex:actor{i}" for i in range(rng.randint(0, 2))]
    activators = [{"iri": f"ex:unit{i}", "action": f"switch unit {i}"}
                  for i in range(rng.randint(0, 2))]

    sensors = []
    for i in range(rng.randint(1, 4)):
        measured = rng.choice(MEASURED_TYPES)
        period = rng.randint(1, 4)
        sensor = {
            "iri": f"ex:sensor{i}",
            "measured_type": measured,
            "unit": UNITS[measured],
            "software": "ex:sw",
            "period": period,
            "phase": rng.randint(0, period - 1),
            "generator": _random_generator(rng),
        }
        if rng.random() < 0.5:
            sensor["positioned_on"] = rng.choice(assets)["iri"]
        else:
            sensor["located_in"] = rng.choice(places)
        if rng.random() < 0.3:
            sensor["condition_state"] = "operational"
        sensors.append(sensor)

    lines = []
    present = sorted({s["measured_type"] for s in sensors})
    for i in range(rng.randint(0, 3)):
        actions = []
        if activators and rng.random() < 0.7:
            actions.append(f"ACTIVATE {rng.choice(activators)['iri']}")
        if actors and rng.random() < 0.7:
            actions.append(f"ALERT {rng.choice(actors)} VIA \"sms\"")
        if not actions:
            continue
        measured = rng.choice(present)
        cmp_op = rng.choice(list(COMPARATORS))
        clause = f"RULE r{i} WHEN TYPE = \"{measured}\" AND VALUE {cmp_op} {rng.randint(0, 80)}"
        if rng.random() < 0.4:
            clause += f" FOR {rng.randint(1, 3)} SAMPLES"
        if rng.random() < 0.5:
            clause += f" MODE {rng.choice(['ON_RISE', 'EVERY'])}"
        lines.append(clause + " THEN " + ", ".join(actions))

    document = {
        "prefixes": {"ex": f"https://example.org/{tag}/"},
        "start": "2026-01-01T00:00:00Z",
        "tick_seconds": rng.choice([60, 3600]),
        "duration": rng.randint(5, 15),
        "seed": rng.randint(0, 2**64 - 1),
        "entities": {
            "assets": assets,
            "places": places,
            "twin": {"iri": "ex:twin", "twin_of": assets[0]["iri"]},
            "software": ["ex:sw"],
            "actors": actors,
            "activators": activators,
        },
        "sensors": sensors,
        "decider": {"iri": "ex:decider", "rules": "\n".join(lines)},
    }
    return json.dumps(document)


def random_scenario(rng, tag):
    return parse_scenario(random_scenario_text(rng, tag))


# --- random graphs for serialization round trips ---

def literal_registry():
    """Seed vocabulary plus one property per literal kind, hung off E1."""
    from twingraph.ontology import LITERAL_KINDS

    registry = load_seed()
    for i, kind in enumerate(LITERAL_KINDS):
        registry = registry.register_property(PropertyDef(
            id=f"P{800 + i}", label=f"has {kind} note", namespace="CRM",
            domain="E1", range=kind))
    return registry


_GRAPH_CLASSES = ["HC3", "HC4", "E53", "HC9", "D14", "HC2", "E39", "HC11",
                  "HC10", "HC12", "HC13", "E5", "E55"]
_OBJECT_PROPS = ["P55", "HP15", "HP11", "HP1", "HP12", "HP13", "HP14",
                 "L12", "L17", "L20", "O13", "O24"]
_LITERAL_SAMPLES = {
    "string": ["plain", "tab\there", 'quote "x"', "line\nbreak", "weird \\ slash",
               "unicode é弧"],
    "decimal": ["0", "-3.25", "40", "0.0001", "-0.5"],
    "integer": ["0", "-7", "42", "12345678901234567890"],
    "dateTime": ["2026-01-02T03:04:05Z", "1999-12-31T23:59:59Z",
                 "2026-06-01T00:00:00.25Z"],
    "anyURI": ["https://example.org/ref", "urn:uuid:1234", "mailto:a@example.org"],
}


def random_graph(rng, registry, tag):
    """A validating graph with random nodes, edges, and literals."""
    from twingraph import Graph, Literal
    from twingraph.errors import GraphError
    from twingraph.ontology import LITERAL_KINDS

    graph = Graph(registry, {"ex": f"https://example.org/{tag}/",
                             "alt": f"https://alt.example.org/{tag}#"})
    names = []
    for i in range(rng.randint(1, 14)):
        prefix = rng.choice(["ex", "alt"])
        name = graph.resolve(f"{prefix}:n{i}")
        for class_id in rng.sample(_GRAPH_CLASSES, rng.choice([1, 1, 1, 2])):
            graph.add_entity(name, class_id)
        names.append(name)
    for _ in range(rng.randint(0, 25)):
        subject, obj = rng.choice(names), rng.choice(names)
        try:
            graph.add_statement(subject, rng.choice(_OBJECT_PROPS), obj)
        except GraphError:
            pass
    for _ in range(rng.randint(0, 6)):
        kind = rng.choice(LITERAL_KINDS)
        pid = f"P{800 + LITERAL_KINDS.index(kind)}"
        graph.add_statement(rng.choice(names), pid,
                            Literal.of(kind, rng.choice(_LITERAL_SAMPLES[kind])))
    return graph
