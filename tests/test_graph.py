"""Statement store: typing, eager validation, queries, provenance walks."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from twingraph import Graph, Iri, Literal, Statement, ViolationReason, load_seed
from twingraph import namespaces as ns
from twingraph.errors import (
    InvalidIriError,
    NotAProvenanceNodeError,
    StatementViolationError,
    UnknownClassError,
    UnknownObjectError,
    UnknownPrefixError,
    UnknownPropertyError,
    UnknownSubjectError,
)

EX = "https://example.org/g/"
RUN = "https://example.org/run/"


@pytest.fixture
def graph(seed_registry):
    g = Graph(seed_registry, {"ex": EX})
    g.add_entity(g.resolve("ex:place"), "E53")
    g.add_entity(g.resolve("ex:asset"), "HC3")
    g.add_entity(g.resolve("ex:twin"), "HC2")
    return g


def test_prefix_resolution(graph):
    assert graph.resolve("ex:asset") == Iri(EX + "asset")
    assert graph.resolve("<https://other.example/x>").value == "https://other.example/x"
    assert graph.resolve("wd:Q42").value == "http://www.wikidata.org/entity/Q42"
    with pytest.raises(UnknownPrefixError):
        graph.resolve("nope:thing")


@pytest.mark.parametrize("text", ["<>", "<foo>", "rel:x"])
def test_resolve_refuses_a_relative_iri(graph, text):
    # written <...>, or a CURIE expanding against a relative base
    with pytest.raises(InvalidIriError, match="not an absolute IRI"):
        ns.resolve_iri(text, {"rel": "rel/"})
    if text != "rel:x":
        with pytest.raises(InvalidIriError, match="not an absolute IRI"):
            graph.resolve(text)


@pytest.mark.parametrize("prefixes", [{"x": "rel/"}, {"1x": "https://e/"},
                                      {"x": "https://e/ x"}, {"x": ""},
                                      {1: "https://e/"}, {"x": None}])
def test_graph_refuses_a_prefix_the_graph_text_cannot_declare(prefixes):
    # emit would write an @prefix line that parse refuses
    with pytest.raises(InvalidIriError, match="cannot be declared"):
        Graph(load_seed(), prefixes)


@pytest.mark.parametrize("value", [5, None, b"https://e/x", Iri("https://e/x")])
def test_resolve_refuses_a_value_that_is_not_text(graph, value):
    with pytest.raises(InvalidIriError, match="not an IRI or CURIE"):
        graph.resolve(value)
    assert not ns.carriable(value)


def test_entity_types_merge(graph):
    graph.add_entity(graph.resolve("ex:asset"), "HC6")
    assert graph.nodes[EX + "asset"] == {"HC3", "HC6"}
    with pytest.raises(UnknownClassError):
        graph.add_entity(graph.resolve("ex:asset"), "HC99")


def test_entity_types_merge_over_a_plain_set(graph):
    graph.nodes[EX + "odd"] = {"HC3"}  # placed directly, not through add_entity
    graph.add_entity(graph.resolve("ex:odd"), "HC6")
    graph.add_entity(graph.resolve("ex:asset"), "HC6")
    merged = graph.nodes[EX + "odd"]
    assert type(merged) is frozenset and merged == {"HC3", "HC6"}
    assert merged is graph.nodes[EX + "asset"]  # interned: one object per class set


def test_statement_accepted(graph):
    st = graph.add_statement(graph.resolve("ex:asset"), "P55", graph.resolve("ex:place"))
    assert st.subject == Iri(EX + "asset")
    assert st.property == "P55"
    assert st.object == Iri(EX + "place")
    assert Statement(Iri(EX + "asset"), "P55", Iri(EX + "place")) in graph.statements


def test_statement_dedup(graph):
    graph.add_statement(graph.resolve("ex:asset"), "P55", graph.resolve("ex:place"))
    before = len(graph.statements)
    graph.add_statement(graph.resolve("ex:asset"), "P55", graph.resolve("ex:place"))
    assert len(graph.statements) == before


def test_statement_rejections(graph):
    with pytest.raises(UnknownPropertyError):
        graph.add_statement(graph.resolve("ex:asset"), "P99", graph.resolve("ex:place"))
    with pytest.raises(UnknownSubjectError):
        graph.add_statement(graph.resolve("ex:ghost"), "P55", graph.resolve("ex:place"))
    with pytest.raises(UnknownObjectError):
        graph.add_statement(graph.resolve("ex:asset"), "P55", graph.resolve("ex:ghost"))
    with pytest.raises(StatementViolationError) as err:
        graph.add_statement(graph.resolve("ex:place"), "HP1", graph.resolve("ex:asset"))
    assert err.value.reason is ViolationReason.DOMAIN_VIOLATION
    with pytest.raises(StatementViolationError) as err:
        graph.add_statement(graph.resolve("ex:twin"), "HP1", graph.resolve("ex:place"))
    assert err.value.reason is ViolationReason.RANGE_VIOLATION
    # nothing was recorded by the failed attempts
    assert graph.statements == {}


def test_literal_statements(seed_registry):
    from twingraph import PropertyDef
    registry = seed_registry.register_property(PropertyDef(
        id="P80", label="has reading", namespace="CRM",
        domain="E1", range="decimal")).register_property(PropertyDef(
        id="P81", label="read at", namespace="CRM", domain="E1", range="dateTime"))
    g = Graph(registry, {"ex": EX})
    g.add_entity(g.resolve("ex:asset"), "HC3")
    st = g.add_statement(g.resolve("ex:asset"), "P80", Literal.of("decimal", "4.50"))
    assert st.object == Literal("decimal", "4.5")
    with pytest.raises(StatementViolationError) as err:
        g.add_statement(g.resolve("ex:asset"), "P80", Literal("string", "wet"))
    assert err.value.reason is ViolationReason.DATATYPE_VIOLATION
    # a lexical form that does not parse as its datatype, or is not its
    # canonical form, is refused on insert
    for property_id, bad in (("P80", Literal("decimal", "abc")),
                             ("P81", Literal("dateTime", "junk")),
                             ("P80", Literal("decimal", "1.50")),
                             ("P81", Literal("dateTime", "2026-01-01T00:00:00+00:00"))):
        with pytest.raises(StatementViolationError) as err:
            g.add_statement(g.resolve("ex:asset"), property_id, bad)
        assert err.value.reason is ViolationReason.DATATYPE_VIOLATION
    assert list(g.statements) == [st]
    # class-valued ranges refuse literals
    with pytest.raises(StatementViolationError):
        g.add_statement(g.resolve("ex:asset"), "P55", Literal("string", "here"))


def test_literal_canonical_forms():
    assert Literal.of("decimal", "004.5000").value == "4.5"
    assert Literal.of("decimal", "-0").value == "0"
    assert Literal.of("decimal", "12").value == "12"
    assert Literal.of("integer", "0042").value == "42"
    assert Literal.of("integer", "-7").value == "-7"
    assert Literal.of("integer", "+0042").value == "42"
    assert Literal.of("integer", "-000").value == "0"
    assert Literal.of("integer", "-" + "0" * 5 + "7" * 5000).value == "-" + "7" * 5000
    assert Literal.of("dateTime", "2026-05-01T00:00:00Z").value == "2026-05-01T00:00:00Z"
    # fractions drop trailing zeros and re-parse at any surviving width
    assert Literal.of("dateTime", "2026-05-01T00:00:00.250000Z").value == \
        "2026-05-01T00:00:00.25Z"
    assert Literal.of("dateTime", "2026-05-01T00:00:00.25Z").value == \
        "2026-05-01T00:00:00.25Z"
    assert Literal.of("anyURI", "https://example.org/x").value == "https://example.org/x"
    assert Literal.of("string", 'say "hi"\n').value == 'say "hi"\n'
    for kind, bad in [("decimal", "1e5"), ("decimal", "abc"),
                      ("integer", "4.5"), ("integer", "+-1"), ("integer", "-"),
                      ("dateTime", "yesterday"),
                      ("dateTime", "2026-05-01T00:00:00+02:00"),
                      ("dateTime", "2026-05-01T00:00:00.Z"),
                      ("dateTime", "2026-05-01T00:00:00.1234567Z"),
                      # an anyURI is absolute and has no character IRIs forbid
                      ("anyURI", ""), ("anyURI", "not-absolute"), ("anyURI", "a<b>"),
                      ("anyURI", "https://e.org/a<b>"), ("anyURI", "https://e.org/a b"),
                      ("anyURI", "https://e.org/a\u00a0b")]:
        with pytest.raises(ValueError):
            Literal.of(kind, bad)


def test_validate_finds_injected_violation(graph):
    graph.add_statement(graph.resolve("ex:asset"), "P55", graph.resolve("ex:place"))
    assert graph.validate().ok
    # slip a statement past the write checks
    graph.statements[Statement(Iri(EX + "place"), "HP1", Iri(EX + "asset"))] = None
    report = graph.validate()
    assert not report.ok
    assert [v.reason for v in report.violations] == [ViolationReason.DOMAIN_VIOLATION]
    graph.statements[Statement(Iri(EX + "nowhere"), "P55", Iri(EX + "place"))] = None
    reasons = {v.reason for v in graph.validate().violations}
    assert ViolationReason.UNKNOWN_SUBJECT in reasons


def test_instances_of(graph):
    g = graph
    g.add_entity(g.resolve("ex:sensor-b"), "HC9")
    g.add_entity(g.resolve("ex:sensor-a"), "HC9")
    g.add_entity(g.resolve("ex:unit"), "HC11")
    assert [i.value for i in g.instances_of("HC9")] == [EX + "sensor-a", EX + "sensor-b"]
    assert g.instances_of("D8") == []
    transitive = [i.value for i in g.instances_of("D8", transitive=True)]
    assert transitive == [EX + "sensor-a", EX + "sensor-b", EX + "unit"]


def test_objects_of_keeps_insertion_order(graph):
    graph.add_entity(graph.resolve("ex:place2"), "E53")
    graph.add_statement(graph.resolve("ex:asset"), "P55", graph.resolve("ex:place2"))
    graph.add_statement(graph.resolve("ex:asset"), "P55", graph.resolve("ex:place"))
    objs = graph.objects_of(graph.resolve("ex:asset"), "P55")
    assert [o.value for o in objs] == [EX + "place2", EX + "place"]


def _provenance_world(seed_registry, attach="HP15"):
    g = Graph(seed_registry, {"ex": EX})
    g.add_entity(g.resolve("ex:place"), "E53")
    g.add_entity(g.resolve("ex:asset"), "HC3")
    g.add_entity(g.resolve("ex:sensor"), "HC9")
    g.add_entity(g.resolve("ex:decider"), "HC10")
    g.add_entity(g.resolve("ex:m"), "HC13")
    g.add_entity(g.resolve("ex:sig"), "HC12")
    g.add_entity(g.resolve("ex:act"), "HC14")
    if attach == "HP15":
        g.add_statement(g.resolve("ex:sensor"), "HP15", g.resolve("ex:asset"))
    elif attach == "P55":
        g.add_statement(g.resolve("ex:sensor"), "P55", g.resolve("ex:place"))
    g.add_statement(g.resolve("ex:m"), "L12", g.resolve("ex:sensor"))
    g.add_statement(g.resolve("ex:m"), "L20", g.resolve("ex:sig"))
    g.add_statement(g.resolve("ex:sig"), "HP12", g.resolve("ex:decider"))
    g.add_statement(g.resolve("ex:decider"), "O13", g.resolve("ex:act"))
    return g


def test_provenance_chain_from_activation(seed_registry):
    g = _provenance_world(seed_registry)
    chain = g.provenance_chain(g.resolve("ex:act"))
    assert [s.property for s in chain] == ["O13", "HP12", "L20", "L12", "HP15"]
    assert chain[-1].object == Iri(EX + "asset")


def test_provenance_chain_place_attachment(seed_registry):
    g = _provenance_world(seed_registry, attach="P55")
    chain = g.provenance_chain(g.resolve("ex:act"))
    assert [s.property for s in chain] == ["O13", "HP12", "L20", "L12", "P55"]
    assert chain[-1].object == Iri(EX + "place")


def test_provenance_chain_shorter_starts(seed_registry):
    g = _provenance_world(seed_registry)
    assert [s.property for s in g.provenance_chain(g.resolve("ex:sig"))] == ["L20", "L12", "HP15"]
    assert [s.property for s in g.provenance_chain(g.resolve("ex:m"))] == ["L12", "HP15"]


def test_provenance_chain_stops_at_gap(seed_registry):
    g = _provenance_world(seed_registry, attach="none")
    chain = g.provenance_chain(g.resolve("ex:act"))
    assert [s.property for s in chain] == ["O13", "HP12", "L20", "L12"]


def test_provenance_chain_rejects_other_nodes(seed_registry):
    g = _provenance_world(seed_registry)
    with pytest.raises(NotAProvenanceNodeError):
        g.provenance_chain(g.resolve("ex:sensor"))
    with pytest.raises(UnknownSubjectError):
        g.provenance_chain(g.resolve("ex:missing"))


def test_provenance_chain_prefers_earliest_statement(seed_registry):
    g = _provenance_world(seed_registry)
    g.add_entity(g.resolve("ex:sig2"), "HC12")
    g.add_entity(g.resolve("ex:m2"), "HC13")
    g.add_statement(g.resolve("ex:m2"), "L20", g.resolve("ex:sig2"))
    g.add_statement(g.resolve("ex:sig2"), "HP12", g.resolve("ex:decider"))
    chain = g.provenance_chain(g.resolve("ex:act"))
    # two signals feed the decider; the first recorded transmission wins
    assert chain[1].subject == Iri(EX + "sig")


def test_provenance_chain_takes_the_activations_own_signal(seed_registry):
    g = _provenance_world(seed_registry)
    g.prefixes["run"] = RUN
    g.add_entity(g.resolve("run:sig/s/1"), "HC12")
    g.add_entity(g.resolve("run:act/s/1"), "HC14")
    g.add_entity(g.resolve("run:act/s/2"), "HC14")
    g.add_statement(g.resolve("run:sig/s/1"), "HP12", g.resolve("ex:decider"))
    g.add_statement(g.resolve("ex:decider"), "O13", g.resolve("run:act/s/1"))
    g.add_statement(g.resolve("ex:decider"), "O13", g.resolve("run:act/s/2"))
    # the signal minted with the activation's sensor and index
    assert g.provenance_chain(g.resolve("run:act/s/1"))[1].subject == Iri(RUN + "sig/s/1")
    # no such signal: the earliest transmission to the decider
    assert g.provenance_chain(g.resolve("run:act/s/2"))[1].subject == Iri(EX + "sig")


# --- the read index against a plain scan ---

_WALK = [(("O13",), "in"), (("HP12",), "in"), (("L20",), "in"),
         (("L12",), "out"), (("HP15", "P55"), "out")]


def scan_chain(graph, start):
    """Provenance walk by scanning every statement at every hop."""
    types = graph.nodes[start.value]
    skip = 0 if "HC14" in types else 2 if "HC12" in types else 3
    cause = None
    if skip == 0 and start.value.startswith(RUN + "act/"):
        cause = Iri(RUN + "sig/" + start.value[len(RUN + "act/"):])
    path, current = [], start
    for properties, direction in _WALK[skip:]:
        matches = [s for s in graph.statements if s.property in properties
                   and (s.object if direction == "in" else s.subject) == current]
        if not matches:
            break
        hit = matches[0]
        if cause is not None and Statement(cause, "HP12", current) in matches:
            hit = Statement(cause, "HP12", current)
        path.append(hit)
        current = hit.subject if direction == "in" else hit.object
    return path


def scan_objects(graph, subject, property_id):
    return [s.object for s in graph.statements
            if s.subject == subject and s.property == property_id]


def _chain_world(registry, rng):
    """Run-shaped nodes plus a pool of candidate chain statements, some of
    them crossing sensors and indexes."""
    g = Graph(registry, {"ex": EX, "run": RUN})
    g.add_entity(g.resolve("ex:asset"), "HC3")
    g.add_entity(g.resolve("ex:place"), "E53")
    deciders = [g.add_entity(g.resolve(f"ex:d{k}"), "HC10") for k in range(2)]
    sensors = [g.add_entity(g.resolve(f"ex:s{k}"), "HC9") for k in range(3)]
    starts, pool = [], []
    for sensor in sensors:
        pool.append(rng.choice([(sensor, "HP15", g.resolve("ex:asset")),
                                (sensor, "P55", g.resolve("ex:place"))]))
        for i in range(3):
            local = f"{sensor.value.rsplit('/', 1)[1]}/{i}"
            m = g.add_entity(g.resolve(f"run:m/{local}"), "HC13")
            sig = g.add_entity(g.resolve(f"run:sig/{local}"), "HC12")
            act = g.add_entity(g.resolve(f"run:act/{local}"), "HC14")
            starts += [m, sig, act]
            pool += [(m, "L12", sensor), (m, "L20", sig),
                     (sig, "HP12", rng.choice(deciders)),
                     (rng.choice(deciders), "O13", act)]
    for _ in range(10):
        pool.append((rng.choice(deciders), "O13", rng.choice(starts[2::3])))
        pool.append((rng.choice(starts[1::3]), "HP12", rng.choice(deciders)))
        pool.append((rng.choice(starts[0::3]), "L20", rng.choice(starts[1::3])))
    return g, starts, pool


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_read_index_matches_a_scan(seed_registry, seed):
    rng = random.Random(seed)
    g, starts, pool = _chain_world(seed_registry, rng)
    nodes = [Iri(v) for v in g.nodes]
    for _ in range(60):
        roll = rng.random()
        if roll < 0.35:
            g.add_statement(*rng.choice(pool))
        elif roll < 0.55:
            g.statements[Statement(*rng.choice(pool))] = None
        elif roll < 0.75:
            start = rng.choice(starts)
            assert g.provenance_chain(start) == scan_chain(g, start)
        else:
            subject = rng.choice(nodes)
            property_id = rng.choice(["O13", "HP12", "L20", "L12", "HP15", "P55"])
            assert g.objects_of(subject, property_id) == scan_objects(g, subject, property_id)


def test_content_equal(seed_registry):
    a = _provenance_world(seed_registry)
    b = _provenance_world(seed_registry)
    assert a.content_equal(b)
    b.add_entity(b.resolve("ex:extra"), "E53")
    assert not a.content_equal(b)
    # a statement inserted unchecked counts like any other
    c = _provenance_world(seed_registry)
    c.statements[Statement(Iri(EX + "sensor"), "P55", Iri(EX + "place"))] = None
    assert not a.content_equal(c)
    assert not c.content_equal(a)


# --- validate(): which reason each ill-typed statement reports ---

_V = "https://example.org/v/"


def _iri(name):
    return Iri(_V + name)


# (case, subject, property, object, expected reasons). P80 is a decimal
# property whose domain is HC3; ex:odd is typed with a class the registry
# lacks. Where a statement breaks two rules, the first check in the table's
# order wins: existence, literal lexical form, IRI-vs-literal range, domain,
# class range, datatype.
VALIDATE_CASES = [
    ("unknown-property", _iri("asset"), "P99", _iri("place"), ["UNKNOWN_PROPERTY"]),
    ("unknown-property-bad-literal", _iri("asset"), "P99",
     Literal("decimal", "abc"), ["UNKNOWN_PROPERTY"]),
    ("unknown-subject", _iri("ghost"), "P55", _iri("place"), ["UNKNOWN_SUBJECT"]),
    ("unknown-subject-bad-literal", _iri("ghost"), "P80",
     Literal("decimal", "abc"), ["UNKNOWN_SUBJECT"]),
    ("unknown-object", _iri("asset"), "P55", _iri("ghost"), ["UNKNOWN_OBJECT"]),
    ("unknown-object-domain-broken", _iri("place"), "HP1", _iri("ghost"),
     ["UNKNOWN_OBJECT"]),
    ("domain", _iri("place"), "HP1", _iri("asset"), ["DOMAIN_VIOLATION"]),
    ("range-class", _iri("twin"), "HP1", _iri("place"), ["RANGE_VIOLATION"]),
    ("domain-and-range-class", _iri("place"), "HP1", _iri("place"),
     ["DOMAIN_VIOLATION"]),
    ("iri-on-literal-range", _iri("asset"), "P80", _iri("place"), ["RANGE_VIOLATION"]),
    ("iri-on-literal-range-domain-broken", _iri("place"), "P80", _iri("asset"),
     ["RANGE_VIOLATION"]),
    ("literal-on-class-range", _iri("asset"), "P55", Literal("string", "here"),
     ["RANGE_VIOLATION"]),
    ("literal-on-class-range-domain-broken", _iri("place"), "HP1",
     Literal("string", "x"), ["DOMAIN_VIOLATION"]),
    ("datatype", _iri("asset"), "P80", Literal("string", "wet"), ["DATATYPE_VIOLATION"]),
    ("datatype-domain-broken", _iri("place"), "P80", Literal("string", "wet"),
     ["DOMAIN_VIOLATION"]),
    ("bad-lexical", _iri("asset"), "P80", Literal("decimal", "abc"),
     ["DATATYPE_VIOLATION"]),
    ("bad-lexical-domain-broken", _iri("place"), "P80", Literal("decimal", "abc"),
     ["DATATYPE_VIOLATION"]),
    # a form that parses but is not canonical would emit text that reads back unequal
    ("parseable-noncanonical-lexical", _iri("asset"), "P80",
     Literal("decimal", "4.50"), ["DATATYPE_VIOLATION"]),
    ("noncanonical-lexical-domain-broken", _iri("place"), "P80",
     Literal("decimal", "4.50"), ["DATATYPE_VIOLATION"]),
    ("unknown-class-subject", _iri("odd"), "P55", _iri("place"), ["UNKNOWN_SUBJECT"]),
    ("unknown-class-object", _iri("asset"), "P55", _iri("odd"), ["UNKNOWN_SUBJECT"]),
    ("unknown-class-subject-bad-literal", _iri("odd"), "P80",
     Literal("decimal", "abc"), ["DATATYPE_VIOLATION"]),
    ("ok-iri", _iri("asset"), "P55", _iri("place"), []),
    ("ok-literal", _iri("asset"), "P80", Literal("decimal", "4.5"), []),
]


@pytest.mark.parametrize("case,subject,property_id,obj,expected", VALIDATE_CASES,
                         ids=[case[0] for case in VALIDATE_CASES])
def test_validate_reason_table(seed_registry, case, subject, property_id, obj, expected):
    from twingraph import PropertyDef
    registry = seed_registry.register_property(PropertyDef(
        id="P80", label="reading", namespace="CRM", domain="HC3", range="decimal"))
    g = Graph(registry, {"ex": _V})
    g.add_entity(g.resolve("ex:asset"), "HC3")
    g.add_entity(g.resolve("ex:place"), "E53")
    g.add_entity(g.resolve("ex:twin"), "HC2")
    g.nodes[_V + "odd"] = {"HC99"}
    g.statements[Statement(subject, property_id, obj)] = None
    report = g.validate()
    assert [v.reason.name for v in report.violations] == expected
    assert report.ok == (not expected)


# --- verdicts per type signature: validate and insert against a plain reference ---

def _signature_registry():
    """A small tree under E1, so that about one statement in four passes:
    E900 > E901 > E902, E900 > E903, and E904 on its own."""
    from twingraph import OntologyClassDef, PropertyDef
    registry = load_seed()
    for cid, parent in (("E900", "E1"), ("E901", "E900"), ("E902", "E901"),
                        ("E903", "E900"), ("E904", "E1")):
        registry = registry.register_class(OntologyClassDef(cid, cid, "CRM", (parent,)))
    for pid, domain, range_ in (("P900", "E900", "E900"), ("P901", "E901", "E903"),
                                ("P902", "E1", "E904"), ("P903", "E902", "E901"),
                                ("P904", "E903", "decimal")):
        registry = registry.register_property(PropertyDef(pid, pid, "CRM", domain, range_))
    return registry


# Subclass-typed sets, a merged pair, the root, a set with an unregistered
# class and one that also holds a class that matches; each node is placed
# interned, or as a plain set.
_TYPE_SETS = [{"E900"}, {"E901"}, {"E902"}, {"E903"}, {"E904"}, {"E902", "E904"}, {"E1"},
              {"E999"}, {"E999", "E903"}]
_PROPERTIES = ["P900", "P901", "P902", "P903", "P904", "P999"]
_ERRORS = {
    ViolationReason.UNKNOWN_PROPERTY: UnknownPropertyError,
    ViolationReason.UNKNOWN_SUBJECT: UnknownSubjectError,
    ViolationReason.UNKNOWN_OBJECT: UnknownObjectError,
}


def _reference_verdict(g, statement):
    """The rule an IRI statement breaks, by Registry.falls_under per
    statement and no memo; an unregistered class makes it raise."""
    pdef = g.registry.properties.get(statement.property)
    if pdef is None:
        return ViolationReason.UNKNOWN_PROPERTY, f"unknown property {statement.property}"
    subject_types = g.nodes.get(statement.subject.value)
    if not subject_types:
        return ViolationReason.UNKNOWN_SUBJECT, f"unknown subject {statement.subject}"
    object_types = g.nodes.get(statement.object.value)
    if not object_types:
        return ViolationReason.UNKNOWN_OBJECT, f"unknown object {statement.object}"
    if pdef.range == "decimal":
        return (ViolationReason.RANGE_VIOLATION,
                f"{statement.property} expects a decimal literal, got an IRI")
    if not g.registry.falls_under(subject_types, pdef.domain):
        return (ViolationReason.DOMAIN_VIOLATION,
                f"subject of {statement.property} must fall under {pdef.domain}; "
                f"found {sorted(subject_types)}")
    if not g.registry.falls_under(object_types, pdef.range):
        return (ViolationReason.RANGE_VIOLATION,
                f"object of {statement.property} must fall under {pdef.range}; "
                f"found {sorted(object_types)}")
    return None


def _typed_graph(registry, nodes):
    g = Graph(registry)
    for i, (types, plain) in enumerate(nodes):
        iri = f"{_V}n{i}"
        if plain:
            g.nodes[iri] = set(types)
        elif "E999" in types:  # add_entity refuses it: placed as a frozenset
            g.nodes[iri] = frozenset(types)
        else:
            for class_id in types:
                g.add_entity(Iri(iri), class_id)
    return g


_SIGNATURE_REGISTRY = _signature_registry()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_signature_verdicts_match_a_per_statement_reference(data):
    nodes = data.draw(st.lists(st.tuples(st.sampled_from(_TYPE_SETS), st.booleans()),
                               min_size=2, max_size=8))
    ends = st.integers(0, len(nodes)).map(lambda i: _iri(f"n{i}"))  # n{len}: unknown
    statements = data.draw(st.lists(
        st.builds(Statement, ends, st.sampled_from(_PROPERTIES), ends),
        min_size=10, max_size=40))
    reference, g, inserted = (_typed_graph(_SIGNATURE_REGISTRY, nodes) for _ in range(3))
    expected = {}
    for statement in statements:
        try:
            found = _reference_verdict(reference, statement)
            error = found and _ERRORS.get(found[0], StatementViolationError)
        except UnknownClassError as exc:
            found, error = (ViolationReason.UNKNOWN_SUBJECT, str(exc)), UnknownClassError
        if found is not None:
            expected.setdefault(statement, (*found, statement))
        g.statements[statement] = None  # unchecked
        if error is None:
            inserted.add_statement(*statement)
        else:
            with pytest.raises(error):
                inserted.add_statement(*statement)
    for _ in range(2):  # the second pass meets the signatures the first kept
        assert [tuple(v) for v in g.validate().violations] == list(expected.values())
