"""Registry behaviour: the built-in vocabulary, reasoning, and extensions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from twingraph import (
    Graph,
    OntologyClassDef,
    PropertyDef,
    Registry,
    load_extension,
    load_seed,
    seed_class_table,
    seed_property_table,
)
from twingraph.errors import (
    CycleDetectedError,
    DuplicateIdError,
    InvalidDefinitionError,
    UnknownClassError,
    UnknownParentError,
    UnknownPropertyError,
)
from twingraph.ontology import SEED_VERSION

from conftest import bfs_ancestors, bfs_descendants, random_class_dag


def test_seed_counts(seed_registry):
    assert len(seed_registry.classes) == 24
    assert len(seed_registry.properties) == 12
    assert SEED_VERSION == "2026.1"


def test_seed_tables_match_registry(seed_registry):
    assert {c.id for c in seed_class_table()} == set(seed_registry.classes)
    assert {p.id for p in seed_property_table()} == set(seed_registry.properties)


def test_seed_direct_parents(seed_registry):
    direct = {cid: set(cdef.parents) for cid, cdef in seed_registry.classes.items()}
    assert direct["E1"] == set()
    for cid in ("E3", "E5", "E39", "E53", "E55", "D8", "D9", "PE1",
                "HC1", "HC2", "HC6", "HC7"):
        assert direct[cid] == {"E1"}, cid
    assert direct["D14"] == {"D9"}
    assert direct["S21"] == {"E5"}
    assert direct["HC3"] == {"HC1"}
    assert direct["HC4"] == {"HC1"}
    assert direct["HC8"] == {"HC7"}
    assert direct["HC9"] == {"D8"}
    assert direct["HC10"] == {"PE1"}
    assert direct["HC11"] == {"D8"}
    assert direct["HC12"] == {"D9"}
    assert direct["HC13"] == {"S21"}
    assert direct["HC14"] == {"E5"}


def test_seed_property_signatures(seed_registry):
    signatures = {pid: (p.domain, p.range)
                  for pid, p in seed_registry.properties.items()}
    assert signatures == {
        "HP1": ("HC2", "HC1"),
        "HP11": ("HC9", "D14"),
        "HP12": ("HC12", "HC10"),
        "HP13": ("HC14", "HC11"),
        "HP14": ("HC14", "E39"),
        "HP15": ("HC9", "HC3"),
        "P55": ("E1", "E53"),
        "L12": ("S21", "D8"),
        "L17": ("HC13", "E55"),
        "L20": ("S21", "D9"),
        "O13": ("HC10", "HC14"),
        "O24": ("S21", "E5"),
    }


def test_subclass_facts(seed_registry):
    r = seed_registry
    assert r.is_subclass_of("HC3", "HC1")
    assert r.is_subclass_of("HC3", "E1")
    assert r.is_subclass_of("HC13", "S21")
    assert r.is_subclass_of("HC13", "E5")
    assert r.is_subclass_of("HC9", "D8")
    assert r.is_subclass_of("HC14", "E5")
    assert r.is_subclass_of("D14", "D9")
    # reflexive
    assert r.is_subclass_of("E55", "E55")
    # no sideways or upward entailment
    assert not r.is_subclass_of("HC1", "HC3")
    assert not r.is_subclass_of("HC9", "HC11")
    assert not r.is_subclass_of("E5", "E53")


def test_subclass_closure(seed_registry):
    assert seed_registry.subclass_closure("D8") == {"D8", "HC9", "HC11"}
    assert seed_registry.subclass_closure("S21") == {"S21", "HC13"}
    assert seed_registry.subclass_closure("HC14") == {"HC14"}
    assert "HC13" in seed_registry.subclass_closure("E5")


def test_unknown_ids_raise(seed_registry):
    with pytest.raises(UnknownClassError):
        seed_registry.is_subclass_of("E999", "E1")
    with pytest.raises(UnknownClassError):
        seed_registry.subclass_closure("E999")
    with pytest.raises(UnknownPropertyError):
        seed_registry.check_applicability("P999", {"E1"}, {"E1"})


def test_registration_is_persistent_style(seed_registry):
    grown = seed_registry.register_class(OntologyClassDef(
        id="HC90", label="extra", namespace="RHDTO", parents=("HC1",)))
    assert "HC90" in grown.classes
    assert "HC90" not in seed_registry.classes


def test_registration_errors(seed_registry):
    with pytest.raises(DuplicateIdError):
        seed_registry.register_class(OntologyClassDef(
            id="HC9", label="again", namespace="RHDTO", parents=("E1",)))
    with pytest.raises(UnknownParentError):
        seed_registry.register_class(OntologyClassDef(
            id="HC91", label="orphan", namespace="RHDTO", parents=("HC77",)))
    with pytest.raises(CycleDetectedError):
        seed_registry.register_class(OntologyClassDef(
            id="HC92", label="self", namespace="RHDTO", parents=("HC92",)))
    # marker and namespace must agree
    with pytest.raises(InvalidDefinitionError):
        seed_registry.register_class(OntologyClassDef(
            id="E200", label="mismatch", namespace="RHDTO", parents=("E1",)))
    with pytest.raises(DuplicateIdError):
        seed_registry.register_property(PropertyDef(
            id="P55", label="again", namespace="CRM", domain="E1", range="E53"))
    with pytest.raises(UnknownClassError):
        seed_registry.register_property(PropertyDef(
            id="P200", label="bad domain", namespace="CRM",
            domain="E999", range="E53"))
    with pytest.raises(UnknownClassError):
        seed_registry.register_property(PropertyDef(
            id="P201", label="bad range", namespace="CRM",
            domain="E1", range="E998"))
    with pytest.raises(InvalidDefinitionError):
        seed_registry.register_property(PropertyDef(
            id="L99", label="mismatch", namespace="CRM",
            domain="E1", range="E53"))


def test_literal_range_property(seed_registry):
    grown = seed_registry.register_property(PropertyDef(
        id="P80", label="has note", namespace="CRM",
        domain="E1", range="string"))
    assert grown.check_applicability("P80", {"HC3"}, set())
    assert grown.check_applicability("P80", {"HC3"}, {"E53"})


def test_applicability_examples(seed_registry):
    r = seed_registry
    # twin to asset: HC3 is a kind of HC1
    assert r.check_applicability("HP1", {"HC2"}, {"HC3"})
    assert not r.check_applicability("HP1", {"HC3"}, {"HC2"})
    # anything may sit in a place
    assert r.check_applicability("P55", {"HC9"}, {"E53"})
    assert not r.check_applicability("P55", {"HC9"}, {"E5"})
    # measurements are observation events
    assert r.check_applicability("O24", {"HC13"}, {"E5"})
    assert r.check_applicability("L12", {"HC13"}, {"HC9"})
    assert not r.check_applicability("L12", {"HC13"}, {"E39"})
    # multiple subject classes: any match wins
    assert r.check_applicability("HP12", {"E55", "HC12"}, {"HC10"})
    assert not r.check_applicability("HP12", {"E55"}, {"HC10"})


def test_random_dag_matches_bfs_oracle():
    rng = random.Random(20260816)
    registry, parents = random_class_dag(rng, 80)
    ids = sorted(parents)
    for cid in ids:
        expected = bfs_ancestors(parents, cid)
        for other in rng.sample(ids, 20):
            assert registry.is_subclass_of(cid, other) == (other in expected)
    for cid in rng.sample(ids, 15):
        expected_down = bfs_descendants(parents, cid)
        assert registry.subclass_closure(cid) == expected_down


# --- extension documents ---

EXT_OK = """\
@prefix reg: <https://example.org/ns/registry#> .
@prefix hdto: <https://example.org/ns/hdto#> .
@prefix crm: <http://www.cidoc-crm.org/cidoc-crm/> .

hdto:HC40 reg:label "fresco" ;
    reg:subClassOf hdto:HC41 .

hdto:HC41 reg:subClassOf hdto:HC1 ;
    reg:scopeNote "surface decorations" .

hdto:HP40 reg:label "depicts" ;
    reg:domain hdto:HC40 ;
    reg:range crm:E55 .

hdto:HP41 reg:domain hdto:HC40 ;
    reg:range "string" .
"""


def test_extension_loads_with_forward_reference(seed_registry):
    grown, diagnostics = load_extension(seed_registry, EXT_OK)
    assert grown is not None and not diagnostics
    assert grown.is_subclass_of("HC40", "HC1")
    assert grown.classes["HC41"].scope_note == "surface decorations"
    assert grown.properties["HP40"].range == "E55"
    assert grown.properties["HP41"].range == "string"
    assert grown.check_applicability("HP41", {"HC40"}, set())
    # base registry untouched
    assert "HC40" not in seed_registry.classes


def _child_first_chain(n):
    """n classes, each declared before its parent: HC<1000+n-1> under the
    one below it, down to HC1000 under the seed's HC1."""
    lines = ["@prefix reg: <https://example.org/ns/registry#> .",
             "@prefix hdto: <https://example.org/ns/hdto#> ."]
    for i in range(n - 1, -1, -1):
        parent = f"HC{999 + i}" if i else "HC1"
        lines.append(f"hdto:HC{1000 + i} reg:subClassOf hdto:{parent} .")
    return "\n".join(lines) + "\n"


def test_extension_chain_declared_child_first(seed_registry, monkeypatch):
    """Each class of a chain declared child first waits for its parent and
    is then registered once; the whole chain loads, in order."""
    registered = []
    register_class = Registry.register_class

    def counted(self, cdef):
        registered.append(cdef.id)
        return register_class(self, cdef)

    monkeypatch.setattr(Registry, "register_class", counted)
    grown, diagnostics = load_extension(seed_registry, _child_first_chain(200))
    assert grown is not None and diagnostics == []
    assert registered == [f"HC{1000 + i}" for i in range(200)]
    assert grown.classes["HC1199"].parents == ("HC1198",)
    assert grown.is_subclass_of("HC1199", "HC1")


# --- cached class membership ---

# The seed, and a registry grown from it by an extension file and by
# register_class. They share class ids but not descendant sets: HC1 gains
# HC40, HC41 and HC42 in the grown one only, and E55 gains HC42.
_SEED = load_seed()
_GROWN = load_extension(_SEED, EXT_OK)[0].register_class(OntologyClassDef(
    id="HC42", label="painted label", namespace="HDTO", parents=("HC40", "E55")))
_GROWN_IDS = sorted(_GROWN.classes)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_falls_under_matches_pairwise_subclass_tests(data):
    target = data.draw(st.sampled_from(_GROWN_IDS), label="target")
    # the seed is asked first, so a descendant set cached on it and read by
    # the grown registry would show as a wrong answer there
    for registry in (_SEED, _GROWN):
        if target not in registry.classes:
            continue
        ids = sorted(registry.classes)
        type_sets = data.draw(st.lists(st.frozensets(st.sampled_from(ids), max_size=4),
                                       max_size=5), label="type sets")
        graph = Graph(registry)
        for i, types in enumerate(type_sets):
            expected = any(registry.is_subclass_of(c, target) for c in types)
            assert registry.falls_under(types, target) == expected
            assert registry.falls_under(set(types), target) == expected
            if expected:
                assert registry.falls_under(types | {"E999"}, target)
            else:
                with pytest.raises(UnknownClassError):
                    registry.falls_under(types | {"E999"}, target)
            if types:
                graph.add_entity(f"<https://example.org/n{i}>", sorted(types))
        assert registry.subclass_closure(target) == {
            c for c in ids if registry.is_subclass_of(c, target)}
        assert [iri.value for iri in graph.instances_of(target, transitive=True)] == sorted(
            iri for iri, types in graph.nodes.items()
            if any(registry.is_subclass_of(c, target) for c in types))
    with pytest.raises(UnknownClassError):
        _GROWN.falls_under({"E1"}, "E999")
    assert "HC40" not in _SEED.subclass_closure("HC1")
    assert {"HC40", "HC41", "HC42"} <= _GROWN.subclass_closure("HC1")


@pytest.mark.parametrize("text,needle", [
    ("@prefix reg: <https://example.org/ns/registry#> .\n"
     "@prefix hdto: <https://example.org/ns/hdto#> .\n"
     "hdto:HC50 a hdto:HC1 .\n", "'a' assertions"),
    ("@prefix reg: <https://example.org/ns/registry#> .\n"
     "@prefix hdto: <https://example.org/ns/hdto#> .\n"
     "hdto:HC50 reg:subClassOf hdto:HC77 .\n", "unresolved parents"),
    # a cycle inside one file never resolves, whichever class comes first
    ("@prefix reg: <https://example.org/ns/registry#> .\n"
     "@prefix hdto: <https://example.org/ns/hdto#> .\n"
     "hdto:HC50 reg:subClassOf hdto:HC51 .\n"
     "hdto:HC51 reg:subClassOf hdto:HC50 .\n", "class HC51 has unresolved parents"),
    ("@prefix reg: <https://example.org/ns/registry#> .\n"
     "@prefix hdto: <https://example.org/ns/hdto#> .\n"
     "hdto:HC50 reg:flavour \"sweet\" .\n", "unknown extension verb"),
    ("@prefix reg: <https://example.org/ns/registry#> .\n"
     "@prefix hdto: <https://example.org/ns/hdto#> .\n"
     "@prefix ex: <https://example.org/other/> .\n"
     "ex:Thing reg:subClassOf hdto:HC1 .\n", "outside the ontology namespaces"),
    ("@prefix reg: <https://example.org/ns/registry#> .\n"
     "@prefix hdto: <https://example.org/ns/hdto#> .\n"
     "hdto:HP50 reg:domain hdto:HC1 .\n", "needs both"),
    ("@prefix reg: <https://example.org/ns/registry#> .\n"
     "@prefix hdto: <https://example.org/ns/hdto#> .\n"
     "hdto:HC50 reg:subClassOf hdto:HC1 ;\n"
     "    reg:domain hdto:HC1 ;\n    reg:range hdto:HC1 .\n", "mixes class and property"),
    ("@prefix reg: <https://example.org/ns/registry#> .\n"
     "@prefix hdto: <https://example.org/ns/hdto#> .\n"
     "hdto:HC9 reg:subClassOf hdto:HC1 .\n", "already registered"),
])
def test_extension_rejections(seed_registry, text, needle):
    grown, diagnostics = load_extension(seed_registry, text)
    assert grown is None
    assert any(needle in d.message for d in diagnostics)
    assert all(d.line >= 1 and d.col >= 1 for d in diagnostics)


def test_extension_label_requires_string(seed_registry):
    text = ("@prefix reg: <https://example.org/ns/registry#> .\n"
            "@prefix hdto: <https://example.org/ns/hdto#> .\n"
            "hdto:HC50 reg:label 7 ;\n    reg:subClassOf hdto:HC1 .\n")
    grown, diagnostics = load_extension(seed_registry, text)
    assert grown is None
    assert any("string literal" in d.message for d in diagnostics)
