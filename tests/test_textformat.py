"""Text serialization: tokenizer diagnostics, parsing, canonical emission."""

import io
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from twingraph import (Graph, Iri, Literal, PropertyDef, ScenarioRun, Statement, emit, load_seed,
                       parse, parse_scenario)
from twingraph import namespaces as ns
from twingraph.errors import SEVERITY_ERROR, SEVERITY_WARNING, has_errors
from twingraph.textformat import FILE_EXTENSION, RawLiteral, parse_raw

EX = "https://example.org/t/"
HEADER = f"@prefix ex: <{EX}> .\n"


def errors_of(diagnostics):
    return [d for d in diagnostics if d.severity == SEVERITY_ERROR]


def test_file_extension():
    assert FILE_EXTENSION == ".rht.ttl"


# --- lexing and raw parsing ---

def test_comments_and_crlf():
    text = HEADER + "# a comment\r\nex:a a hdto:HC3 .\r\n"
    graph, diagnostics = parse(text, load_seed())
    assert graph is not None and not diagnostics
    assert graph.nodes[graph.resolve("ex:a").value] == {"HC3"}


def test_unterminated_string_position():
    raw = parse_raw(HEADER + 'ex:a ex:p "oops .\n')
    bad = errors_of(raw.diagnostics)
    assert bad and bad[0].line == 2
    assert "unterminated" in bad[0].message


def test_unterminated_iriref():
    raw = parse_raw("@prefix ex: <https://example.org/t/ .\n")
    assert any("unterminated" in d.message or "IRI" in d.message
               for d in errors_of(raw.diagnostics))


def test_bad_character_reports_column():
    raw = parse_raw(HEADER + "ex:a ^ ex:b .\n")
    bad = errors_of(raw.diagnostics)
    assert bad[0].line == 2 and bad[0].col == 6


def test_trailing_dot_ends_triple():
    # the dot after the local name closes the statement
    raw = parse_raw(HEADER + "ex:a ex:p ex:b.\n")
    assert not errors_of(raw.diagnostics)
    assert len(raw.triples) == 1
    assert raw.triples[0].object == EX + "b"


def test_string_escapes_round_trip():
    value = 'tab\t quote " slash \\ cr\r nl\n'
    g = Graph(load_seed().register_property(PropertyDef(
        id="P81", label="note", namespace="CRM", domain="E1", range="string")),
        {"ex": EX})
    g.add_entity(g.resolve("ex:a"), "HC3")
    g.add_statement(g.resolve("ex:a"), "P81", Literal.of("string", value))
    text = emit(g)
    reparsed, diagnostics = parse(text, g.registry)
    assert not diagnostics
    literal = reparsed.objects_of(reparsed.resolve("ex:a"), "P81")[0]
    assert literal.value == value


def test_prefix_redeclaration_is_warning():
    text = HEADER + HEADER + "ex:a a hdto:HC3 .\n"
    graph, diagnostics = parse(text, load_seed())
    assert graph is not None
    assert [d.severity for d in diagnostics] == [SEVERITY_WARNING]


def test_prefix_redeclared_with_a_new_base():
    # the later declaration wins from where it stands: the same CURIE text
    # expands to the old base before it and to the new base after it
    other = "https://example.org/u/"
    text = (HEADER + "ex:a a hdto:HC3 .\nex:a crm:P55 ex:b .\n"
            f"@prefix ex: <{other}> .\nex:a a hdto:HC3 .\nex:b a crm:E53 .\n")
    raw = parse_raw(text)
    assert [t.subject for t in raw.types] == [EX + "a", other + "a", other + "b"]
    assert [(t.subject, t.object) for t in raw.triples] == [(EX + "a", EX + "b")]
    graph, diagnostics = parse(text, load_seed())
    assert graph is None  # the old ex:b is never typed
    assert [(d.line, d.severity) for d in diagnostics] == [
        (4, SEVERITY_WARNING), (3, SEVERITY_ERROR)]
    assert "UnknownObject" in diagnostics[1].message


def test_undeclared_prefix_is_error():
    graph, diagnostics = parse("zz:a a hdto:HC3 .\n", load_seed())
    assert graph is None
    assert any("prefix" in d.message for d in errors_of(diagnostics))


def test_recovery_continues_after_bad_triple():
    text = HEADER + "ex:a a .\nex:b a hdto:HC3 .\n"
    graph, diagnostics = parse(text, load_seed())
    assert graph is None
    assert errors_of(diagnostics)
    # recovery still surfaced the later, well-formed triple
    raw = parse_raw(text)
    assert any(t.subject == EX + "b" for t in raw.types)


# A statement's first error resyncs at the next '.' (docs/FORMAT.md). At the
# subject, predicate, separator and object sites the search starts at the
# offending token; at the prefix name, prefix IRI, prefix dot and datatype, and
# after an undeclared prefix or a literal under 'a', it starts after it, so an
# offending '.' there swallows the statement that follows. A bad token, which
# the scan reports, gets no second diagnostic at the subject, predicate and
# object, but does at the separator, the datatype and in '@prefix'.
@pytest.mark.parametrize("body,diagnostics,subjects", [
    ("@prefix . ex:s ex:p ex:o .\nex:t ex:p ex:o .\n",
     [(2, 9, "expected a prefix name ending in ':'")], ["t"]),
    ("@prefix $ .\nex:t ex:p ex:o .\n",
     [(2, 9, "unexpected character '$'"), (2, 9, "expected a prefix name ending in ':'")],
     ["t"]),
    ("@prefix q: . ex:s ex:p ex:o .\nex:t ex:p ex:o .\n",
     [(2, 12, "expected an IRI reference in '@prefix'")], ["t"]),
    ('ex:s ex:p "x"^^ . ex:t ex:p ex:o .\nex:u ex:p ex:o .\n',
     [(2, 17, "expected a datatype after '^^'")], ["u"]),
    (". ex:t ex:p ex:o .\n", [(2, 1, "expected a subject, found '.'")], ["t"]),
    ("ex:s . ex:t ex:p ex:o .\n", [(2, 6, "expected a predicate, found '.'")], ["t"]),
    ("ex:s ex:p . ex:t ex:p ex:o .\n", [(2, 11, "expected an object, found '.'")], ["t"]),
    ("ex:s ex:p ex:o $ ex:t ex:p ex:o .\nex:u ex:p ex:o .\n",
     [(2, 16, "unexpected character '$'"), (2, 16, "expected ',', ';' or '.', found '$'")],
     ["s", "u"]),
    ("$ ex:p ex:o .\nex:t ex:p ex:o .\n", [(2, 1, "unexpected character '$'")], ["t"]),
    ("ex:s $ ex:o .\nex:t ex:p ex:o .\n", [(2, 6, "unexpected character '$'")], ["t"]),
    ("ex:s ex:p $ .\nex:t ex:p ex:o .\n", [(2, 11, "unexpected character '$'")], ["t"]),
    # a missing '.' is reported and resynced past, but the prefix is declared
    ("@prefix q: <https://e/> q:s q:p q:o .\nq:t q:p q:o .\n",
     [(2, 25, "expected '.' after '@prefix' declaration")], ["t"]),
    # and it is reported before a redeclaration, which still stands
    ("@prefix ex: <https://f/> ex:s ex:p ex:o .\nex:t ex:p ex:o .\n",
     [(2, 26, "expected '.' after '@prefix' declaration"), (2, 9, "prefix 'ex' redeclared")],
     ["https://f/t"]),
    # a literal under 'a' is rejected at the literal, from the token after it
    ('ex:s a "x" .\nex:t ex:p ex:o .\n',
     [(2, 8, "'a' takes a class reference, not a literal")], ["t"]),
    ('ex:s a "x" ; ex:p ex:o .\nex:t ex:p ex:o .\n',
     [(2, 8, "'a' takes a class reference, not a literal")], ["t"]),
    ('ex:s a "x"^^xsd:string . ex:t ex:p ex:o .\n',
     [(2, 8, "'a' takes a class reference, not a literal")], ["t"]),
    ('ex:s ex:p "x"', [(2, 14, "expected ',', ';' or '.', found ''")], ["s"]),
    ('ex:s ex:p "x"^^ $ ex:t ex:p ex:o .\nex:u ex:p ex:o .\n',
     [(2, 17, "unexpected character '$'"), (2, 17, "expected a datatype after '^^'")], ["u"]),
    ('ex:s ex:p "x"^^', [(2, 16, "expected a datatype after '^^'")], []),
    # an undeclared prefix or a datatype no literal kind has
    ("zz:s ex:p ex:o .\nex:t ex:p ex:o .\n", [(2, 1, "undeclared prefix 'zz'")], ["t"]),
    ("ex:s zz:p ex:o .\nex:t ex:p ex:o .\n", [(2, 6, "undeclared prefix 'zz'")], ["t"]),
    ("ex:s ex:p zz:o .\nex:t ex:p ex:o .\n", [(2, 11, "undeclared prefix 'zz'")], ["t"]),
    ('ex:s ex:p "x"^^zz:d .\nex:t ex:p ex:o .\n', [(2, 16, "undeclared prefix 'zz'")], ["t"]),
    ('ex:s ex:p "x"^^ex:d .\nex:t ex:p ex:o .\n',
     [(2, 16, "unsupported datatype <https://e/d>")], ["t"]),
    # the end of the text, also where a trailing comment begins
    ("ex:s", [(2, 5, "expected a predicate, found ''")], []),
    ("ex:s ex:p", [(2, 10, "expected an object, found ''")], []),
    ("ex:s ex:p # c", [(2, 11, "expected an object, found ''")], []),
    ("ex:s ex:p ex:o", [(2, 15, "expected ',', ';' or '.', found ''")], ["s"]),
    ("@prefix", [(2, 8, "expected a prefix name ending in ':'")], []),
    ("@prefix q:", [(2, 11, "expected an IRI reference in '@prefix'")], []),
    ("@prefix q: <https://e/q#>\nq:t ex:p ex:o .\nq:u ex:p ex:o .\n",
     [(3, 1, "expected '.' after '@prefix' declaration")], ["https://e/q#u"]),
    ("@prefix q: <https://e/q#>", [(2, 26, "expected '.' after '@prefix' declaration")], []),
    # a predicate line (verb, object, separator) where no predicate is due
    # goes one token at a time; one with an undeclared verb is reported once
    ("ex:s ex:o .\nex:t ex:p ex:o .\n", [(2, 11, "expected an object, found '.'")], ["t"]),
    ("ex:s ex:p ex:o, ex:q ex:r .\nex:t ex:p ex:o .\n",
     [(2, 22, "expected ',', ';' or '.', found 'ex:r'")], ["s", "s", "t"]),
    ('ex:s ex:p "x" ex:q ex:r ;\nex:t ex:p ex:o .\nex:u ex:p ex:o .\n',
     [(2, 15, "expected ',', ';' or '.', found 'ex:q'")], ["s", "u"]),
    ("ex:s $ ex:p ex:o .\nex:t ex:p ex:o .\n", [(2, 6, "unexpected character '$'")], ["t"]),
    ("ex:s a zz:C ; ex:p ex:o .\nex:t ex:p ex:o .\n", [(2, 8, "undeclared prefix 'zz'")],
     ["t"]),
    ("ex:s zz:p ex:o ; ex:q ex:r .\nex:t ex:p ex:o .\n", [(2, 6, "undeclared prefix 'zz'")],
     ["t"]),
], ids=["prefix-name-dot", "prefix-name-bad", "prefix-iri-dot", "datatype-dot",
        "subject-dot", "predicate-dot", "object-dot", "separator-bad", "subject-bad",
        "predicate-bad", "object-bad", "prefix-without-dot", "prefix-redeclared-without-dot",
        "a-string-dot", "a-string-semicolon", "a-typed-string", "string-eof", "datatype-bad",
        "datatype-eof", "subject-undeclared", "predicate-undeclared", "object-undeclared",
        "datatype-undeclared", "datatype-unsupported", "predicate-eof", "object-eof",
        "object-eof-after-comment", "separator-eof", "prefix-name-eof", "prefix-iri-eof",
        "prefix-dot-swallows", "prefix-dot-eof", "line-at-subject", "line-at-object",
        "line-after-string", "line-while-skipping", "line-class-undeclared",
        "line-verb-undeclared-then-line"])
def test_resync_rules(body, diagnostics, subjects):
    raw = parse_raw("@prefix ex: <https://e/> .\n" + body)
    assert [(d.line, d.col, d.message) for d in raw.diagnostics] == diagnostics
    assert [t.subject for t in raw.triples] == [s if ":" in s else "https://e/" + s
                                                for s in subjects]


# --- semantic checking during parse ---

def test_unknown_class_rejected():
    graph, diagnostics = parse(HEADER + "ex:a a hdto:HC99 .\n", load_seed())
    assert graph is None
    assert any("HC99" in d.message for d in errors_of(diagnostics))


def test_unknown_property_diagnostic():
    text = HEADER + "ex:a a hdto:HC3 .\nex:a hdto:HP99 ex:a .\n"
    graph, diagnostics = parse(text, load_seed())
    assert graph is None
    assert any(d.message.startswith("UnknownProperty:") for d in diagnostics)


def test_domain_violation_points_at_predicate():
    text = HEADER + "ex:p a crm:E53 .\nex:p hdto:HP1 ex:p .\n"
    graph, diagnostics = parse(text, load_seed())
    assert graph is None
    bad = errors_of(diagnostics)[0]
    assert bad.message.startswith("DomainViolation:")
    assert (bad.line, bad.col) == (3, 6)


def test_unknown_subject_and_object_diagnostics():
    text = HEADER + "ex:a a hdto:HC2 .\nex:ghost hdto:HP1 ex:a .\nex:a hdto:HP1 ex:gone .\n"
    graph, diagnostics = parse(text, load_seed())
    assert graph is None
    messages = [d.message.split(":")[0] for d in errors_of(diagnostics)]
    assert "UnknownSubject" in messages
    assert "UnknownObject" in messages


def test_datatype_violation_diagnostic():
    registry = load_seed().register_property(PropertyDef(
        id="P81", label="note", namespace="CRM", domain="E1", range="string"))
    text = HEADER + "ex:a a hdto:HC3 .\nex:a crm:P81 4.5 .\n"
    graph, diagnostics = parse(text, registry)
    assert graph is None
    assert any(d.message.startswith("DatatypeViolation:") for d in diagnostics)


def test_relative_any_uri_is_a_datatype_violation_at_the_object():
    registry = load_seed().register_property(PropertyDef(
        id="P84", label="ref", namespace="CRM", domain="E1", range="anyURI"))
    text = HEADER + 'ex:a a hdto:HC3 .\nex:a crm:P84\n    "x"^^xsd:anyURI .\n'
    graph, diagnostics = parse(text, registry)
    assert graph is None
    line = HEADER.count("\n") + 3
    assert [d.render() for d in diagnostics] == [
        f"{line}:5 error DatatypeViolation: not a valid anyURI: 'x'"]


def test_typed_literal_forms():
    registry = load_seed()
    for pid, kind, token, canonical in [
        ("P82", "integer", '"42"^^xsd:integer', "42"),
        ("P83", "dateTime", '"2026-05-01T12:00:00Z"^^xsd:dateTime', "2026-05-01T12:00:00Z"),
        ("P84", "anyURI", '"https://example.org/d"^^xsd:anyURI', "https://example.org/d"),
        ("P85", "decimal", "4.50", "4.5"),
        # integers are unbounded, like decimals
        ("P86", "integer", '"+000' + "9" * 5000 + '"^^xsd:integer', "9" * 5000),
    ]:
        registry = registry.register_property(PropertyDef(
            id=pid, label=kind, namespace="CRM", domain="E1", range=kind))
        text = HEADER + f"ex:a a hdto:HC3 .\nex:a crm:{pid} {token} .\n"
        graph, diagnostics = parse(text, registry)
        assert not diagnostics, (pid, diagnostics)
        assert graph.objects_of(graph.resolve("ex:a"), pid)[0].value == canonical
        reparsed, diagnostics = parse(emit(graph), registry)
        assert not diagnostics and reparsed.content_equal(graph), pid


# --- canonical emission ---

def test_empty_graph_single_prefix():
    g = Graph(load_seed(), {"ex": EX})
    assert emit(g) == f"@prefix ex: <{EX}> .\n"


def test_defaults_emitted_only_when_used():
    g = Graph(load_seed(), {"ex": EX})
    g.add_entity(g.resolve("ex:a"), "HC3")
    text = emit(g)
    assert "@prefix hdto:" in text
    assert "@prefix crmdig:" not in text
    assert "@prefix wd:" not in text


def test_block_and_property_ordering(seed_registry):
    g = Graph(seed_registry, {"ex": EX})
    g.add_entity(g.resolve("ex:sensor"), "HC9")
    g.add_entity(g.resolve("ex:asset"), "HC3")
    g.add_entity(g.resolve("ex:sw"), "D14")
    g.add_statement(g.resolve("ex:sensor"), "HP15", g.resolve("ex:asset"))
    g.add_statement(g.resolve("ex:sensor"), "HP11", g.resolve("ex:sw"))
    text = emit(g)
    asset_at = text.index("ex:asset a")
    sensor_at = text.index("ex:sensor a")
    assert asset_at < sensor_at
    block = text[sensor_at:]
    assert block.index("rhdto:HP11") < block.index("rhdto:HP15")
    assert "\n    rhdto:HP11" in text


def test_types_placed_as_a_plain_set_emit_like_interned_ones(seed_registry):
    # the bytes were recorded before emit rendered each type set once
    g = Graph(seed_registry, {"ex": EX})
    g.nodes[EX + "odd"] = {"HC3", "HC6"}  # placed directly, not through add_entity
    g.add_entity(g.resolve("ex:asset"), "HC6")
    g.add_entity(g.resolve("ex:asset"), "HC3")
    g.add_entity(g.resolve("ex:place"), "E53")
    g.nodes[EX + "room"] = {"E53"}
    g.add_statement(g.resolve("ex:odd"), "P55", g.resolve("ex:place"))
    g.add_statement(g.resolve("ex:odd"), "P55", g.resolve("ex:room"))
    g.add_statement(g.resolve("ex:asset"), "P55", g.resolve("ex:room"))
    assert emit(g) == (
        "@prefix crm: <http://www.cidoc-crm.org/cidoc-crm/> .\n"
        f"@prefix ex: <{EX}> .\n"
        "@prefix hdto: <https://example.org/ns/hdto#> .\n"
        "\nex:asset a hdto:HC3, hdto:HC6 ;\n    crm:P55 ex:room .\n"
        "\nex:odd a hdto:HC3, hdto:HC6 ;\n    crm:P55 ex:place, ex:room .\n"
        "\nex:place a crm:E53 .\n"
        "\nex:room a crm:E53 .\n")


def test_objects_sorted_iris_before_literals():
    registry = load_seed().register_property(PropertyDef(
        id="P81", label="note", namespace="CRM", domain="E1", range="string"))
    g = Graph(registry, {"ex": EX})
    g.add_entity(g.resolve("ex:a"), "HC3")
    g.add_entity(g.resolve("ex:p2"), "E53")
    g.add_entity(g.resolve("ex:p1"), "E53")
    g.add_statement(g.resolve("ex:a"), "P55", g.resolve("ex:p2"))
    g.add_statement(g.resolve("ex:a"), "P55", g.resolve("ex:p1"))
    text = emit(g)
    line = [l for l in text.splitlines() if "P55" in l][0]
    assert line.strip().rstrip(" .;") == "crm:P55 ex:p1, ex:p2"


def test_iris_sort_before_literals_within_one_property():
    # only an unchecked insert puts both under one property; 'decimal' sorts before 'https'
    g = Graph(load_seed(), {"ex": EX})
    g.add_entity(g.resolve("ex:a"), "HC3")
    g.add_entity(g.resolve("ex:p1"), "E53")
    g.add_statement(g.resolve("ex:a"), "P55", g.resolve("ex:p1"))
    g.statements[Statement(Iri(EX + "a"), "P55", Literal.of("decimal", "4.5"))] = None
    assert "    crm:P55 ex:p1, 4.5 .\n" in emit(g)


HDTO, CRM = "@prefix hdto: <https://example.org/ns/hdto#> .\n", \
    "@prefix crm: <http://www.cidoc-crm.org/cidoc-crm/> .\n"


def _block_edge_graph(edge):
    g = Graph(load_seed(), {"ex": EX})
    iri = g.resolve
    if edge == "types-and-no-statements":
        g.add_entity(iri("ex:a"), "HC6")
        g.add_entity(iri("ex:a"), "HC3")
    elif edge == "iris-and-literals-under-one-property":  # a literal only by an unchecked insert
        for node, class_id in (("ex:a", "HC3"), ("ex:p2", "E53"), ("ex:p1", "E53")):
            g.add_entity(iri(node), class_id)
        g.add_statement(iri("ex:a"), "P55", iri("ex:p2"))
        g.statements[Statement(Iri(EX + "a"), "P55", Literal.of("string", 'b"\\q'))] = None
        g.add_statement(iri("ex:a"), "P55", iri("ex:p1"))
    elif edge == "two-properties":
        for node, class_id in (("ex:sensor", "HC9"), ("ex:asset", "HC3"), ("ex:sw", "D14")):
            g.add_entity(iri(node), class_id)
        g.add_statement(iri("ex:sensor"), "HP15", iri("ex:asset"))
        g.add_statement(iri("ex:sensor"), "HP11", iri("ex:sw"))
    elif edge == "types-as-a-plain-set":
        g.nodes[EX + "odd"] = {"HC6", "HC3"}
        g.add_entity(iri("ex:room"), "E53")
        g.add_statement(iri("ex:odd"), "P55", iri("ex:room"))
    else:  # an unchecked statement whose subject is no node, nor is its object rendered
        g.add_entity(iri("ex:a"), "HC3")
        g.statements[Statement(Iri(EX + "ghost"), "P55", Iri(ns.WD_IRI + "Q1"))] = None
    return g


@pytest.mark.parametrize("edge,expected", [
    ("types-and-no-statements", HEADER + HDTO + "\nex:a a hdto:HC3, hdto:HC6 .\n"),
    ("iris-and-literals-under-one-property",
     CRM + HEADER + HDTO + '\nex:a a hdto:HC3 ;\n    crm:P55 ex:p1, ex:p2, "b\\"\\\\q" .\n'
     "\nex:p1 a crm:E53 .\n\nex:p2 a crm:E53 .\n"),
    ("two-properties",
     "@prefix crmdig: <http://www.ics.forth.gr/isl/CRMdig/> .\n" + HEADER + HDTO
     + "@prefix rhdto: <https://example.org/ns/rhdto#> .\n\nex:asset a hdto:HC3 .\n"
     "\nex:sensor a rhdto:HC9 ;\n    rhdto:HP11 ex:sw ;\n    rhdto:HP15 ex:asset .\n"
     "\nex:sw a crmdig:D14 .\n"),
    ("types-as-a-plain-set",
     CRM + HEADER + HDTO + "\nex:odd a hdto:HC3, hdto:HC6 ;\n    crm:P55 ex:room .\n"
     "\nex:room a crm:E53 .\n"),
    ("unchecked-statement-off-the-nodes", HEADER + HDTO + "\nex:a a hdto:HC3 .\n"),
])
def test_block_layout_at_its_edges(edge, expected):
    graph = _block_edge_graph(edge)
    assert emit(graph) == expected
    out = io.StringIO()
    emit(graph, out)
    assert out.getvalue() == expected


def test_longest_prefix_match():
    g = Graph(load_seed(), {"ex": EX, "exdeep": EX + "deep/"})
    g.add_entity(g.resolve("<" + EX + "deep/a>"), "HC3")
    text = emit(g)
    assert "exdeep:a" in text


def test_a_base_whose_rest_is_no_local_name_gives_way_to_a_shorter_one():
    g = Graph(load_seed(), {"ex": EX, "exd": EX + "d"})
    # after exd: '//x', which no local name starts with
    g.add_entity(g.resolve("<" + EX + "d//x>"), "HC3")
    assert emit(g) == (f"@prefix ex: <{EX}> .\n@prefix exd: <{EX}d> .\n"
                       "@prefix hdto: <https://example.org/ns/hdto#> .\n"
                       "\nex:d//x a hdto:HC3 .\n")


def test_two_names_on_one_base_render_by_the_first_name():
    g = Graph(load_seed(), {"b": EX, "a": EX})
    g.add_entity(g.resolve("<" + EX + "x>"), "HC3")
    text = emit(g)
    assert "\na:x a hdto:HC3 .\n" in text
    assert "b:x" not in text


def _curie_by_loop(iri, prefixes):
    """The prefix rule as a plain loop, the reference for emit's one match."""
    for name, base in sorted(prefixes.items(), key=lambda kv: (-len(kv[1]), kv[0])):
        if iri.startswith(base) and re.match(ns.LOCAL_NAME + r"\Z", iri[len(base):]):
            return f"{name}:{iri[len(base):]}"
    return f"<{iri}>"


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(["a", "b", "ex", "exd"]),
                       st.sampled_from(["https://e/", "https://e/d", "https://e/d/",
                                        "https://e/d.", "https://e/d//"]), max_size=4),
       st.lists(st.text(alphabet="d/.x%", max_size=5), min_size=1, max_size=6, unique=True))
def test_each_iri_renders_by_the_prefix_rule(prefixes, tails):
    g = Graph(load_seed(), prefixes)
    for tail in tails:
        g.add_entity(g.resolve(f"<https://e/{tail}>"), "HC3")
    text = emit(g)
    for tail in tails:
        curie = _curie_by_loop("https://e/" + tail, {**ns.DEFAULT_PREFIXES, **prefixes})
        assert f"\n{curie} a hdto:HC3 .\n" in text


def test_a_prefix_used_only_by_a_literal_datatype_is_declared():
    registry = load_seed().register_property(PropertyDef(
        id="P83", label="dateTime", namespace="CRM", domain="E1", range="dateTime"))
    g = Graph(registry, {"ex": EX})
    g.add_entity(g.resolve("ex:a"), "HC3")
    g.add_statement(g.resolve("ex:a"), "P83", Literal.of("dateTime", "2026-05-01T12:00:00Z"))
    text = emit(g)
    assert "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n" in text
    assert 'crm:P83 "2026-05-01T12:00:00Z"^^xsd:dateTime .\n' in text


def test_a_prefix_used_only_by_an_unchecked_object_is_declared():
    g = Graph(load_seed(), {"ex": EX})
    g.add_entity(g.resolve("ex:a"), "HC3")
    g.statements[Statement(Iri(EX + "a"), "P55", Iri(ns.WD_IRI + "Q1"))] = None  # unchecked
    text = emit(g)
    assert f"@prefix wd: <{ns.WD_IRI}> .\n" in text
    assert "crm:P55 wd:Q1 .\n" in text


@pytest.mark.parametrize("with_statement", [False, True])
def test_a_prefix_used_only_by_a_subject_is_declared(with_statement):
    # the header goes out before the first block, so every subject is rendered first
    g = Graph(load_seed(), {"ex": EX})
    g.add_entity(g.resolve(f"<{ns.WD_IRI}Q1>"), "HC3")
    g.add_entity(g.resolve("ex:b"), "E53")
    if with_statement:
        g.add_statement(g.resolve(f"<{ns.WD_IRI}Q1>"), "P55", g.resolve("ex:b"))
    text = emit(g)
    assert f"@prefix wd: <{ns.WD_IRI}> .\n" in text
    assert "\nwd:Q1 a hdto:HC3" in text


@pytest.mark.parametrize("spoil", [None, "class", "property", "object"])
def test_emit_to_a_stream_writes_the_text_or_nothing(spoil):
    # what emit cannot render sits after a subject it can, and the stream stays empty
    g = Graph(load_seed(), {"ex": EX})
    g.add_entity(g.resolve("ex:a"), "HC3")
    g.add_entity(g.resolve("ex:b"), "E53")
    g.add_statement(g.resolve("ex:a"), "P55", g.resolve("ex:b"))
    if spoil == "class":
        g.nodes[EX + "z"] = frozenset({"NOPE"})
    elif spoil == "property":
        g.statements[Statement(Iri(EX + "b"), "P999", Iri(EX + "a"))] = None
    elif spoil == "object":
        g.statements[Statement(Iri(EX + "b"), "P55", "not a term")] = None
    out = io.StringIO()
    if spoil is None:
        assert emit(g, out) is None
        assert out.getvalue() == emit(g)
        return
    with pytest.raises((KeyError, AttributeError)):
        emit(g, out)
    assert out.getvalue() == ""


def test_invalid_local_name_falls_back_to_full_iri():
    g = Graph(load_seed(), {"ex": EX})
    g.add_entity(g.resolve("<" + EX + "weird's#弧>"), "HC3")
    text = emit(g)
    assert "<" + EX + "weird's#弧>" in text
    reparsed, diagnostics = parse(text, load_seed())
    assert not diagnostics
    assert reparsed.content_equal(g)


def test_uncarriable_iri_rejected_at_entry():
    g = Graph(load_seed(), {"ex": EX})
    with pytest.raises(ValueError):
        g.add_entity(g.resolve("ex:has space"), "HC3")
    with pytest.raises(ValueError):
        g.add_entity(g.resolve("<https://example.org/q?x=<y>>"), "HC3")


def test_emission_fixed_point_on_shipped_scenario_output():
    with open("examples/pisano/golden.rht.ttl", encoding="utf-8") as handle:
        golden = handle.read()
    graph, diagnostics = parse(golden, load_seed())
    assert graph is not None and not has_errors(diagnostics)
    assert emit(graph) == golden


def test_random_graph_round_trips():
    rng = random.Random(7)
    registry = load_seed().register_property(PropertyDef(
        id="P81", label="note", namespace="CRM", domain="E1", range="string"))
    for case in range(20):
        g = Graph(registry, {"ex": EX})
        names = [f"n{i}" for i in range(rng.randint(1, 12))]
        for name in names:
            g.add_entity(g.resolve(f"ex:{name}"), rng.choice(["HC3", "E53", "HC9", "D14"]))
        for _ in range(rng.randint(0, 18)):
            a, b = rng.choice(names), rng.choice(names)
            try:
                g.add_statement(g.resolve(f"ex:{a}"), rng.choice(["P55", "HP15", "HP11"]),
                                g.resolve(f"ex:{b}"))
            except Exception:
                pass
        if rng.random() < 0.5:
            g.add_statement(g.resolve(f"ex:{rng.choice(names)}"), "P81",
                            Literal.of("string", f"note {case}\n"))
        text = emit(g)
        reparsed, diagnostics = parse(text, registry)
        assert not has_errors(diagnostics), diagnostics
        assert reparsed.content_equal(g)
        assert emit(reparsed) == text


def test_iri_subject_is_not_read_as_a_curie():
    # a prefix named like a URI scheme does not rewrite <...> subjects
    text = ("@prefix https: <urn:x:> .\n"
            "<https://e.org/a> a crm:E1 .\n<https://e.org/b> a crm:E53 .\n"
            "<https://e.org/a> crm:P55 <https://e.org/b> .\n")
    graph, diagnostics = parse(text, load_seed())
    assert not diagnostics
    assert sorted(graph.nodes) == ["https://e.org/a", "https://e.org/b"]
    assert Statement(Iri("https://e.org/a"), "P55", Iri("https://e.org/b")) in graph.statements


def test_iri_and_curie_of_one_text_stay_two_nodes():
    # <urn:local> is an absolute IRI; urn:local is a CURIE under the prefix
    # named urn, whichever of the two comes first
    text = ("@prefix urn: <https://e.org/u/> .\n<urn:local> a hdto:HC3 .\n"
            "urn:local a hdto:HC3 .\n<urn:local> a hdto:HC3 .\n")
    raw = parse_raw(text)
    assert [t.subject for t in raw.types] == [
        "urn:local", "https://e.org/u/local", "urn:local"]
    graph, diagnostics = parse(text, load_seed())
    assert not diagnostics
    assert sorted(graph.nodes) == ["https://e.org/u/local", "urn:local"]


def test_scheme_named_prefix_round_trips():
    # a CURIE local name never begins with '//', so "https://..." is absolute
    # even where "https" names a prefix, and an IRI whose tail would need
    # one is written <...>
    g = Graph(load_seed(), {"https": "urn:x:"})
    for text in ("https://e.org/m", "<urn:x://e.org/m>", "https:local"):
        g.add_entity(g.resolve(text), "HC3")
    assert sorted(g.nodes) == ["https://e.org/m", "urn:x://e.org/m", "urn:x:local"]
    text = emit(g)
    assert text.splitlines()[2:] == ["", "<https://e.org/m> a hdto:HC3 .", "",
                                     "<urn:x://e.org/m> a hdto:HC3 .", "",
                                     "https:local a hdto:HC3 ."]
    reparsed, diagnostics = parse(text, load_seed())
    assert not diagnostics
    assert reparsed.content_equal(g)
    assert emit(reparsed) == text


def test_bare_absolute_iri_is_one_error():
    graph, diagnostics = parse("@prefix https: <urn:x:> .\n"
                               "https://e.org/m a hdto:HC3 .\nhttps:n a hdto:HC3 .\n",
                               load_seed())
    assert graph is None
    assert [(d.line, d.col, d.message) for d in diagnostics] == [
        (2, 1, "unexpected word 'https://e.org/m'")]


def test_parse_shares_one_iri_per_text():
    text = HEADER + ("ex:a a hdto:HC3 .\nex:b a crm:E53 .\nex:c a crm:E53 .\n"
                     "<https://example.org/t/a> crm:P55 ex:b .\nex:a crm:P55 ex:c .\n"
                     "ex:b crm:P55 ex:c .\n")
    triples = parse_raw(text).triples
    assert triples[0].subject is triples[1].subject  # an IRIREF and a CURIE
    assert triples[1].object is triples[2].object
    graph, diagnostics = parse(text, load_seed())
    assert not diagnostics
    first, second, third = graph.statements
    assert first.subject is second.subject and second.object is third.object


def _rebuilt_in_text_order(text, registry):
    """The graph of a text built through add_entity and add_statement, one
    call per type assertion and then per raw triple, in text order."""
    raw = parse_raw(text)
    graph = Graph(registry, dict(raw.prefixes))
    classes, properties = registry.class_iri_map(), registry.property_iri_map()
    for assertion in raw.types:
        graph.add_entity(Iri(assertion.subject), classes[assertion.class_iri])
    for triple in raw.triples:
        obj = triple.object
        obj = Literal.of(obj.datatype, obj.value) if isinstance(obj, RawLiteral) else Iri(obj)
        graph.add_statement(Iri(triple.subject), properties[triple.predicate], obj)
    return graph


def test_parse_inserts_in_text_order():
    # provenance's "earliest inserted" rule reads this order, and
    # content_equal, which compares key views, does not see it
    with open("examples/pisano/golden.rht.ttl", encoding="utf-8") as handle:
        golden = handle.read()
    with open("examples/pisano/scenario.json", encoding="utf-8") as handle:
        scenario = json.load(handle)
    scenario["duration"] = 40
    run = ScenarioRun(parse_scenario(json.dumps(scenario)))
    run.run()
    registry = load_seed()
    for text in (golden, emit(run.graph)):
        graph, diagnostics = parse(text, registry)
        assert graph is not None and not diagnostics
        rebuilt = _rebuilt_in_text_order(text, registry)
        assert list(graph.statements) == list(rebuilt.statements)
        assert list(graph.nodes) == list(rebuilt.nodes)


def test_parse_inserts_through_add_statement_by_name(monkeypatch):
    # bench/spans.py times graph-read's inserts by wrapping Graph.add_statement
    calls = []
    add_statement = Graph.add_statement

    def counted(self, *terms):
        calls.append(terms)
        return add_statement(self, *terms)

    monkeypatch.setattr(Graph, "add_statement", counted)
    text = HEADER + ('ex:a a hdto:HC3 .\nex:b a crm:E53 .\nex:c a crm:E53 .\n'
                     'ex:a crm:P55 ex:b, ex:c .\nex:b crm:P55 ex:c .\n')
    graph, diagnostics = parse(text, load_seed())
    assert not diagnostics
    assert len(calls) == len(parse_raw(text).triples) == len(graph.statements) == 3


def test_parse_peak_memory_per_text_byte():
    # About 10 traced bytes per text byte when tokens stream into the parser
    # and equal IRIs share one object, about 31 with a token list and a
    # fresh string and Iri per occurrence.
    with open("examples/pisano/scenario.json", encoding="utf-8") as handle:
        scenario = json.load(handle)
    scenario["duration"] = 200
    run = ScenarioRun(parse_scenario(json.dumps(scenario)))
    run.run()
    text = emit(run.graph)
    registry = load_seed()
    assert len(run.graph.statements) >= 2000
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        graph, diagnostics = parse(text, registry)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert graph is not None and not diagnostics
    assert peak < 20 * len(text.encode("utf-8"))


def test_parse_frees_raw_records_as_it_inserts():
    # About 6 traced bytes per text byte when each raw record is dropped once
    # inserted and nodes share one type set per class set (5.9-6.1 on
    # 3.10-3.13); 7.6-7.8 when the raw document stays alive until the graph
    # is done, 9.4 with per-node sets as well.
    with open("examples/pisano/scenario.json", encoding="utf-8") as handle:
        scenario = json.load(handle)
    scenario["duration"] = 200
    run = ScenarioRun(parse_scenario(json.dumps(scenario)))
    run.run()
    text = emit(run.graph)
    registry = load_seed()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        graph, diagnostics = parse(text, registry)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert graph is not None and not diagnostics
    assert peak < 7 * len(text.encode("utf-8"))
