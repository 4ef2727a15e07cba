"""Text serialization of graphs: a closed Turtle-style subset (.rht.ttl).

Grammar (no blank nodes, collections, language tags, multi-line strings, or
relative IRIs):

    doc      := (prefix | triple | comment | blank)*
    prefix   := '@prefix' NAME ':' '<' IRI '>' '.'
    triple   := subject predicate-list '.'
    predlist := pred objlist (';' pred objlist)*
    objlist  := object (',' object)*
    subject  := iriref | curie
    pred     := 'a' | curie | iriref
    object   := iriref | curie | literal
    literal  := '"' chars '"' ('^^' curie)? | number
    comment  := '#' to end of line

Parsing runs two passes over the raw triples: node type assertions ('a')
first, then statements, so forward references inside one document are legal.
Diagnostics carry 1-based line:column positions; any error means no graph is
returned.

Emission is canonical and byte-stable: prefixes sorted by name, subjects by
expanded IRI, 'a' types first, properties by id, objects sorted, one subject
block per node, LF line endings, trailing newline. The parser also accepts
CRLF input.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache
from itertools import groupby
from operator import attrgetter
from typing import NoReturn

from . import namespaces as ns
from .errors import (
    ParseDiagnostic,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    StatementViolationError,
    UnknownObjectError,
    UnknownSubjectError,
    has_errors,
)
from .graph import Graph, Iri, Literal, Statement, ViolationReason
from .lexer import EOF, Lines, Lookahead, Rejected, Token, master, scan
from .ontology import LITERAL_KINDS, Registry

FILE_EXTENSION = ".rht.ttl"

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}
_UNESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


# --- tokens ---

AT_PREFIX = "@prefix"
IRIREF = "iriref"
PNAME = "pname"
WORD_A = "a"
STRING = "string"
NUMBER = "number"
DTSEP = "^^"
PUNCT = "punct"
BAD = "bad"

_TOKENS = master(rf"""
    (?P<word>(?P<prefix>[A-Za-z][A-Za-z0-9_-]*)(?::(?P<local>{ns.LOCAL_NAME})|://{ns.LOCAL_NAME})?)
  | (?P<punct>[;,.])
  | (?P<number>[+-]?[0-9]+(?:\.[0-9]+)?)
  | (?P<string>"(?P<body>(?:[^"\\\n\r]+|\\[\s\S]?)*)(?P<closed>")?)  # '\' takes any next char
  | (?P<iri><[^>\n]*>?)
  | (?P<caret>\^\^?)
  | (?P<directive>@[A-Za-z]*)
  | (?P<rest>\#[^\n]*)
""")
_ESCAPE_RE = re.compile(r"\\([\s\S]?)")
_new = tuple.__new__  # a Token at half the cost of the namedtuple's Python-level __new__


def _bad(lines, diagnostics, message, text, pos) -> Token:
    diagnostics.append(lines.diagnostic(pos, message))
    return Token(BAD, text, pos)


def _token(kind, m, lines, diagnostics) -> Token | None:
    text = m.group(kind)
    pos = m.end() - len(text)
    if kind == "word":
        prefix, local = m.group("prefix", "local")
        if local is not None:
            return _new(Token, (PNAME, text, pos, prefix, local))
        if text == "a":
            return _new(Token, (WORD_A, text, pos, "", ""))
        return _bad(lines, diagnostics, f"unexpected word {text!r}", text, pos)
    if kind == PUNCT or kind == NUMBER:  # groups named after their kinds
        return _new(Token, (kind, text, pos, "", ""))
    if kind == "string":
        value = m.group("body")
        if "\\" in value:
            def unescape(escape):
                char = _ESCAPES.get(escape.group(1))
                if char is not None:
                    return char
                line, at = lines(pos + 1 + escape.start())
                diagnostics.append(ParseDiagnostic(
                    line, at, SEVERITY_ERROR, f"unknown escape sequence at column {at + 1}"))
                return ""
            value = _ESCAPE_RE.sub(unescape, value)
        if m.group("closed") is None:
            return _bad(lines, diagnostics, "unterminated string literal", value, pos)
        return _new(Token, (STRING, value, pos, "", ""))
    if kind == "iri":
        if text[-1] != ">":
            return _bad(lines, diagnostics, "unterminated IRI reference", text, pos)
        iri = text[1:-1]
        if any(c in iri for c in ns.IRI_FORBIDDEN):
            return _bad(lines, diagnostics, f"invalid character in IRI {text!r}", iri, pos)
        if not ns.is_absolute_iri(iri):
            return _bad(lines, diagnostics, f"relative IRIs are not allowed: {text}", iri, pos)
        return _new(Token, (IRIREF, iri, pos, "", ""))
    if kind == "caret":
        if text == DTSEP:
            return _new(Token, (DTSEP, text, pos, "", ""))
        return _bad(lines, diagnostics, "stray '^'", text, pos)
    if kind == "directive":
        if text == AT_PREFIX:
            return _new(Token, (AT_PREFIX, text, pos, "", ""))
        return _bad(lines, diagnostics, f"unknown directive {text}", text, pos)
    return None  # rest: a comment


# --- raw layer ---

@dataclass(slots=True)
class RawLiteral:
    value: str
    datatype: str


@dataclass(slots=True)
class RawTriple:  # each *_pos is an offset into the text; see RawDocument.lines
    subject: str
    subject_pos: int
    predicate: str
    predicate_pos: int
    object: "str | RawLiteral"
    object_pos: int


@dataclass(slots=True)
class RawType:
    subject: str
    subject_pos: int
    class_iri: str
    class_pos: int


class RawDocument:
    def __init__(self, lines: Lines, diagnostics: list[ParseDiagnostic]):
        self.lines = lines  # line:col of the text's offsets
        self.prefixes: dict[str, str] = {}
        self.triples: list[RawTriple] = []
        self.types: list[RawType] = []
        self.diagnostics = diagnostics


class _Parser(Lookahead):
    def __init__(self, tokens: Iterator[Token], lines: Lines):
        super().__init__(tokens, lines)
        self.doc = RawDocument(lines, self.diagnostics)
        self.iris: dict[str, str] = {}  # one string per distinct IRI text
        self.curies: dict[str, str] = {}  # CURIE text -> its IRI from iris

    def unexpected(self, token: Token, what: str) -> NoReturn:
        """Reject from a token with no place here; the scan reported a bad one."""
        if token.kind == BAD:
            raise Rejected(token)
        self.reject(token, f"expected {what}, found {token.text!r}", token)

    def skip_statement(self, just_took: Token | None = None) -> None:
        # already at a boundary when the offending token was the '.'
        token = just_took or self.take()
        while token.kind != EOF and not (token.kind == PUNCT and token.text == "."):
            token = self.take()

    def resolve(self, token: Token) -> str:
        """The interned IRI of an IRIREF or PNAME token; an undeclared prefix
        rejects the statement. curies memoizes CURIEs only (<p:x> is not
        p:x) and is cleared whenever @prefix stores a base."""
        if token.kind == IRIREF:
            return self.iris.setdefault(token.text, token.text)
        iri = self.curies.get(token.text)
        if iri is None:
            base = self.doc.prefixes.get(token.prefix, ns.DEFAULT_PREFIXES.get(token.prefix))
            if base is None:
                self.reject(token, f"undeclared prefix {token.prefix!r}")
            iri = base + token.local
            iri = self.curies[token.text] = self.iris.setdefault(iri, iri)
        return iri

    def run(self) -> RawDocument:
        while self.current.kind != EOF:
            try:
                if self.current.kind == AT_PREFIX:
                    self.prefix_directive()
                else:
                    self.triple()
            except Rejected as rejected:
                self.skip_statement(rejected.took)
        return self.doc

    def prefix_directive(self) -> None:
        self.take()
        name_token = self.take()
        if name_token.kind != PNAME or name_token.local:
            self.reject(name_token, "expected a prefix name ending in ':'")
        if not ns.PREFIX_NAME_RE.match(name_token.prefix):
            self.reject(name_token, f"invalid prefix name {name_token.prefix!r}")
        iri_token = self.take()
        if iri_token.kind != IRIREF:
            self.reject(iri_token, "expected an IRI reference in '@prefix'")
        dot = self.take()
        if dot.kind != PUNCT or dot.text != ".":  # reported, but the prefix stands
            self.error(dot, "expected '.' after '@prefix' declaration")
            self.skip_statement()
        if name_token.prefix in self.doc.prefixes:
            self.error(name_token, f"prefix {name_token.prefix!r} redeclared", SEVERITY_WARNING)
        self.doc.prefixes[name_token.prefix] = iri_token.text
        self.curies.clear()

    def triple(self) -> None:
        subject_token = self.take()
        if subject_token.kind not in (IRIREF, PNAME):
            self.unexpected(subject_token, "a subject")
        subject = self.resolve(subject_token)
        while True:
            pred_token = self.take()
            if pred_token.kind == WORD_A:
                predicate = None
            elif pred_token.kind in (PNAME, IRIREF):
                predicate = self.resolve(pred_token)
            else:
                self.unexpected(pred_token, "a predicate")
            while True:
                self.object_entry(subject, subject_token.pos, predicate, pred_token.pos)
                sep = self.take()
                if sep.kind == PUNCT and sep.text == ",":
                    continue
                if sep.kind == PUNCT and sep.text == ";":
                    break
                if sep.kind == PUNCT and sep.text == ".":
                    return
                self.reject(sep, f"expected ',', ';' or '.', found {sep.text!r}", sep)

    def object_entry(self, subject, subject_pos, predicate, predicate_pos) -> None:
        token = self.take()
        if token.kind in (PNAME, IRIREF):
            obj = self.resolve(token)
        elif token.kind == NUMBER:
            obj = RawLiteral(token.text, "decimal")
        elif token.kind == STRING:
            obj = self.string_literal(token)
        else:
            self.unexpected(token, "an object")
        if predicate is None:
            if isinstance(obj, RawLiteral):
                self.reject(token, "'a' takes a class reference, not a literal")
            self.doc.types.append(RawType(subject, subject_pos, obj, token.pos))
        else:
            self.doc.triples.append(RawTriple(
                subject, subject_pos, predicate, predicate_pos, obj, token.pos))

    def string_literal(self, token: Token) -> RawLiteral:
        if self.current.kind != DTSEP:
            return RawLiteral(token.text, "string")
        self.take()
        dt_token = self.take()
        if dt_token.kind not in (PNAME, IRIREF):
            self.reject(dt_token, "expected a datatype after '^^'")
        dt_iri = self.resolve(dt_token)
        if not dt_iri.startswith(ns.XSD_IRI) or dt_iri[len(ns.XSD_IRI):] not in LITERAL_KINDS:
            self.reject(dt_token, f"unsupported datatype <{dt_iri}>")
        return RawLiteral(token.text, dt_iri[len(ns.XSD_IRI):])


def parse_raw(text: str) -> RawDocument:
    """Syntax-only parse: prefixes, type assertions, and raw triples. Scan
    diagnostics come before syntax diagnostics, each kind in text order.
    The records are slotted, not frozen (a frozen __init__ costs twice as
    much), and hold IRIs expanded and interned, each CURIE text once."""
    lines, scanned = Lines(text), []
    doc = _Parser(scan(lines, _TOKENS, _token, scanned, BAD), lines).run()
    doc.diagnostics[:0] = scanned
    return doc


# --- graph building ---

def _drain(records: list):
    """The records in order, each removed from the list as it is taken."""
    records.reverse()
    while records:
        yield records.pop()


def parse(text: str, registry: Registry) -> tuple[Graph | None, list[ParseDiagnostic]]:
    """Parse a document into a validated graph.

    Returns (graph, diagnostics); the graph is None whenever any diagnostic
    has error severity. Warnings alone do not block. parse consumes its own
    raw document, in text order: each record is dropped once inserted, so
    the raw records and the graph do not peak together.
    """
    raw = parse_raw(text)
    diagnostics = list(raw.diagnostics)
    graph = Graph(registry, prefixes=dict(raw.prefixes))
    class_map = registry.class_iri_map()
    property_map = registry.property_iri_map()
    iri = cache(Iri)  # one Iri per distinct text

    def fail(pos, message):
        diagnostics.append(raw.lines.diagnostic(pos, message))

    for assertion in _drain(raw.types):
        class_id = class_map.get(assertion.class_iri)
        if class_id is None:
            fail(assertion.class_pos, f"unknown ontology class <{assertion.class_iri}>")
            continue
        graph.add_entity(iri(assertion.subject), class_id)

    for triple in _drain(raw.triples):
        property_id = property_map.get(triple.predicate)
        if property_id is None:
            fail(triple.predicate_pos, f"UnknownProperty: unknown property "
                 f"<{triple.predicate}>")
            continue
        if isinstance(triple.object, RawLiteral):
            try:
                obj = Literal.of(triple.object.datatype, triple.object.value)
            except ValueError as exc:
                fail(triple.object_pos, f"DatatypeViolation: {exc}")
                continue
        else:
            obj = iri(triple.object)
        try:
            graph.insert(Statement(iri(triple.subject), property_id, obj))
        except UnknownSubjectError as exc:
            fail(triple.subject_pos, f"UnknownSubject: {exc}")
        except UnknownObjectError as exc:
            fail(triple.object_pos, f"UnknownObject: {exc}")
        except StatementViolationError as exc:
            pos = (triple.predicate_pos
                   if exc.reason is ViolationReason.DOMAIN_VIOLATION
                   else triple.object_pos)
            fail(pos, f"{exc.reason.value}: {exc}")

    if has_errors(diagnostics):
        return None, diagnostics
    return graph, diagnostics


# --- canonical emission ---

def emit(graph: Graph) -> str:
    """Canonical text for a graph; a byte-level fixed point under parse."""
    rendering = dict(ns.DEFAULT_PREFIXES)
    rendering.update(graph.prefixes)
    # Longest declared IRI wins; name breaks ties. Precomputed and sorted so
    # rendering is deterministic.
    candidates = sorted(rendering.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    used: set[str] = set()

    @cache  # each distinct IRI text is rendered once per call
    def render_iri(iri: str) -> str:
        for name, base in candidates:
            if iri.startswith(base):
                local = iri[len(base):]
                if ns.LOCAL_NAME_RE.match(local):
                    used.add(name)
                    return f"{name}:{local}"
        return f"<{iri}>"

    def render_literal(literal: Literal) -> str:
        if literal.datatype == "decimal":
            return literal.value
        escaped = "".join(_UNESCAPES.get(c, c) for c in literal.value)
        if literal.datatype == "string":
            return f'"{escaped}"'
        return f'"{escaped}"^^{render_iri(ns.XSD_IRI + literal.datatype)}'

    def statement_sort_key(statement):  # property, then IRIs before literals
        obj = statement.object
        if isinstance(obj, Iri):
            return (statement.property, 0, obj.value, "")
        return (statement.property, 1, obj.datatype, obj.value)

    def render_object(obj) -> str:
        return render_iri(obj.value) if isinstance(obj, Iri) else render_literal(obj)

    by_subject: dict[str, list] = {}
    for statement in graph.statements:
        by_subject.setdefault(statement.subject.value, []).append(statement)

    blocks = [""]  # slot 0: the header, set last as it names the prefixes used
    for subject in sorted(graph.nodes):
        types = sorted(render_iri(graph.registry.class_iri(t))
                       for t in graph.nodes[subject])
        lines = [f"\n{render_iri(subject)} a {', '.join(types)}"]
        statements = sorted(by_subject.pop(subject, ()), key=statement_sort_key)
        for property_id, group in groupby(statements, key=attrgetter("property")):
            lines.append(f"    {render_iri(graph.registry.property_iri(property_id))} "
                         f"{', '.join(render_object(s.object) for s in group)}")
        blocks.append(" ;\n".join(lines) + " .\n")

    declared = {name: rendering[name] for name in set(graph.prefixes) | used}
    blocks[0] = "".join(f"@prefix {name}: <{declared[name]}> .\n" for name in sorted(declared))
    return "".join(blocks)
