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

parse_raw reads the raw records in one loop over the scan's matches, with
one state per grammar position; a statement's first error resyncs at the
next '.'. A predicate line (a verb, a CURIE object and a separator), most
of a run's graph, is one match: one step where a predicate is due, else its
three tokens in turn. parse then runs two passes over them: node type
assertions ('a') first, then statements, so forward references inside one
document are legal. Diagnostics carry 1-based line:column positions; any
error means no graph is returned.

Emission is canonical and byte-stable: prefixes sorted by name, subjects by
expanded IRI, 'a' types first, properties by id, objects sorted, one subject
block per node, LF line endings, trailing newline. The parser also accepts
CRLF input. emit renders all it prints in a pre-pass, then streams the
header and each subject block in turn when given a stream.
"""

from __future__ import annotations

import re
from functools import cache
from typing import NamedTuple

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
from .graph import Graph, Iri, Literal, ViolationReason
from .lexer import EOF, Lines, Token, master, step
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

LINE = "line"  # a predicate line: a verb, its PNAME object and a separator in one match
_PNAME = rf"[A-Za-z][A-Za-z0-9_-]*:{ns.LOCAL_NAME}"
_TOKENS = master(rf"""  # (?=(?P<x>...))(?P=x) takes x whole, never shorter: (?>...) is 3.11+
    (?=(?P<verb>{_PNAME}|a))(?P=verb)[ \t\r\n]+(?=(?P<object>{_PNAME}))(?P=object)
        [ \t\r\n]*(?P<line>[;,.])  # the separator closes last, so it names the match
  | (?P<pname>{_PNAME})
  | (?P<a>a)(?![A-Za-z0-9_-]|:(?!////))  # no ':' that starts a PNAME or a word
  | (?P<punct>[;,.])
  | (?P<number>[+-]?[0-9]+(?:\.[0-9]+)?)
  | (?P<string>"(?P<body>(?:[^"\\\n\r]+|\\[\s\S]?)*)(?P<closed>")?)  # '\' takes any next char
  | (?P<iri><[^>\n]*>?)
  | (?P<caret>\^\^?)
  | (?P<directive>@[A-Za-z]*)
  | (?P<rest>\#[^\n]*)
  | (?P<word>[A-Za-z][A-Za-z0-9_-]*(?:://{ns.LOCAL_NAME})?)  # no PNAME and not 'a': bad
""")
_PLAIN = frozenset((PNAME, WORD_A, PUNCT, NUMBER))  # groups named after their kinds
# a predicate line's groups, by number: a group's name costs a lookup per call
_VERB_GROUP, _OBJECT_GROUP, _LINE_GROUP = map(_TOKENS.groupindex.get, ("verb", "object", LINE))
_ESCAPE_RE = re.compile(r"\\([\s\S]?)")
_new = tuple.__new__  # a record at half the cost of the NamedTuple's Python-level __new__


def _bad(lines, diagnostics, message, text, pos) -> Token:
    diagnostics.append(lines.diagnostic(pos, message))
    return Token(BAD, text, pos)


def _token(kind, m, lines, diagnostics) -> Token | list[Token] | None:
    if kind == LINE:
        verb = m.group("verb")
        return [_new(Token, (WORD_A if verb == WORD_A else PNAME, verb, m.start("verb"))),
                _new(Token, (PNAME, m.group("object"), m.start("object"))),
                _new(Token, (PUNCT, m.group(kind), m.start(kind)))]
    text = m.group(kind)
    pos = m.end() - len(text)
    if kind == "word":
        return _bad(lines, diagnostics, f"unexpected word {text!r}", text, pos)
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
        return _new(Token, (STRING, value, pos))
    if kind == "iri":
        if text[-1] != ">":
            return _bad(lines, diagnostics, "unterminated IRI reference", text, pos)
        iri = text[1:-1]
        if any(c in iri for c in ns.IRI_FORBIDDEN):
            return _bad(lines, diagnostics, f"invalid character in IRI {text!r}", iri, pos)
        if not ns.is_absolute_iri(iri):
            return _bad(lines, diagnostics, f"relative IRIs are not allowed: {text}", iri, pos)
        return _new(Token, (IRIREF, iri, pos))
    if kind == "caret":
        if text == DTSEP:
            return _new(Token, (DTSEP, text, pos))
        return _bad(lines, diagnostics, "stray '^'", text, pos)
    if kind == "directive":
        if text == AT_PREFIX:
            return _new(Token, (AT_PREFIX, text, pos))
        return _bad(lines, diagnostics, f"unknown directive {text}", text, pos)
    return None  # rest: a comment


# --- raw layer ---

class RawLiteral(NamedTuple):
    value: str
    datatype: str


class RawTriple(NamedTuple):  # each *_pos is an offset into the text; see RawDocument.lines
    subject: str
    subject_pos: int
    predicate: str
    predicate_pos: int
    object: "str | RawLiteral"
    object_pos: int


class RawType(NamedTuple):
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


# The parser's states, one per grammar position: what the next token may be.
# _HELD holds a string one token, for its '^^'; _SKIP resyncs at the next '.'.
(_SUBJECT, _VERB, _OBJECT, _SEPARATOR, _HELD, _DATATYPE,
 _PREFIX_NAME, _PREFIX_IRI, _PREFIX_DOT, _SKIP) = range(10)
_AFTER = {",": _OBJECT, ";": _VERB, ".": _SUBJECT}  # the state after each separator


def parse_raw(text: str) -> RawDocument:
    """Syntax-only parse: prefixes, type assertions, and raw triples. Scan
    diagnostics come before syntax diagnostics, each kind in text order.
    The records are NamedTuples and hold IRIs expanded and interned, each
    distinct CURIE text split and expanded once. One loop over the scan's
    matches makes each token, through lexer.step unless its group is plain,
    and moves the state; a predicate line at _VERB makes no token and moves
    it as its three would. EOF leaves every state at _SUBJECT or _SKIP, which ignore a
    second one from an `end` match after it."""
    lines, scanned = Lines(text), []
    doc = RawDocument(lines, [])
    prefixes, types, triples = doc.prefixes, doc.types, doc.triples
    iris: dict[str, str] = {}  # one string per distinct IRI text
    curies: dict[str, str] = {}  # CURIE text -> its IRI from iris

    def error(pos, message, severity=SEVERITY_ERROR) -> int:
        doc.diagnostics.append(lines.diagnostic(pos, message, severity))
        return _SKIP  # where a statement's first error resyncs

    def unexpected(kind, word, pos, what) -> int:  # resyncs from it; the scan reported BAD
        if kind != BAD:
            error(pos, f"expected {what}, found {word!r}")
        return _SUBJECT if kind == PUNCT and word == "." else _SKIP

    def resolve(kind, word, pos) -> str | None:
        """The interned IRI of an IRIREF or PNAME token; None, reported, for an
        undeclared prefix. curies memoizes CURIEs only (<p:x> is not p:x), read
        inline, so each distinct CURIE text is split at its ':' once; it is
        cleared whenever @prefix stores a base."""
        if kind == IRIREF:
            return iris.setdefault(word, word)
        prefix, _, local = word.partition(":")
        base = prefixes.get(prefix, ns.DEFAULT_PREFIXES.get(prefix))
        if base is None:
            error(pos, f"undeclared prefix {prefix!r}")
            return None
        iri = base + local
        iri = curies[word] = iris.setdefault(iri, iri)
        return iri

    def literal(value, datatype, pos) -> int:
        if predicate is None:
            return error(pos, "'a' takes a class reference, not a literal")
        triples.append(_new(RawTriple, (subject, subject_pos, predicate, predicate_pos,
                                        RawLiteral(value, datatype), pos)))
        return _SEPARATOR

    state = _SUBJECT
    for m in _TOKENS.finditer(text):
        kind = m.lastgroup
        if kind == LINE and state == _VERB:  # the line in one step, as its tokens would go
            verb, word, separator = m.group(_VERB_GROUP, _OBJECT_GROUP, _LINE_GROUP)
            predicate_pos, pos = m.start(_VERB_GROUP), m.start(_OBJECT_GROUP)
            if verb == WORD_A:
                predicate = None
            elif (predicate := curies.get(verb) or resolve(PNAME, verb, predicate_pos)) is None:
                word = None  # an undeclared verb is reported alone: the object goes unread
            if word is None or (obj := curies.get(word) or resolve(PNAME, word, pos)) is None:
                state = _SUBJECT if separator == "." else _SKIP  # resynced by the separator
                continue
            if predicate is None:
                types.append(_new(RawType, (subject, subject_pos, obj, pos)))
            else:
                triples.append(_new(RawTriple, (
                    subject, subject_pos, predicate, predicate_pos, obj, pos)))
            state = _AFTER[separator]
            continue
        if kind in _PLAIN:
            tokens = ((kind, m.group(kind), m.start(kind)),)
        elif (tokens := step(m, kind, lines, _token, scanned, BAD)) is None:
            continue
        elif kind != LINE:  # one token; a predicate line off _VERB is a list of three
            tokens = (tokens,)

        for kind, word, pos in tokens:
            if state == _HELD:
                if kind == DTSEP:
                    state = _DATATYPE
                    continue
                state = literal(held, "string", held_pos)  # the token goes on to that state
            if state == _OBJECT:
                if kind == PNAME or kind == IRIREF:
                    obj = (kind == PNAME and curies.get(word)) or resolve(kind, word, pos)
                    state = _SEPARATOR
                    if obj is None:  # an undeclared prefix resyncs after the token
                        state = _SKIP
                    elif predicate is None:
                        types.append(_new(RawType, (subject, subject_pos, obj, pos)))
                    else:
                        triples.append(_new(RawTriple, (
                            subject, subject_pos, predicate, predicate_pos, obj, pos)))
                elif kind == STRING:
                    held, held_pos, state = word, pos, _HELD
                elif kind == NUMBER:
                    state = literal(word, "decimal", pos)
                else:
                    state = unexpected(kind, word, pos, "an object")
            elif state == _SEPARATOR:
                if kind == PUNCT:
                    state = _AFTER[word]
                else:
                    state = error(pos, f"expected ',', ';' or '.', found {word!r}")
            elif state == _VERB:
                predicate_pos, state = pos, _OBJECT
                if kind == WORD_A:
                    predicate = None
                elif kind == PNAME or kind == IRIREF:
                    predicate = (kind == PNAME and curies.get(word)) or resolve(kind, word, pos)
                    if predicate is None:
                        state = _SKIP
                else:
                    state = unexpected(kind, word, pos, "a predicate")
            elif state == _SUBJECT:
                if kind == PNAME or kind == IRIREF:
                    subject = (kind == PNAME and curies.get(word)) or resolve(kind, word, pos)
                    subject_pos, state = pos, _SKIP if subject is None else _VERB
                elif kind == AT_PREFIX:
                    state = _PREFIX_NAME
                elif kind != EOF:
                    state = unexpected(kind, word, pos, "a subject")
            elif state == _SKIP:
                state = _SUBJECT if kind == PUNCT and word == "." else _SKIP
            # from here on, an error resyncs after the token
            elif state == _DATATYPE:
                if kind != PNAME and kind != IRIREF:
                    state = error(pos, "expected a datatype after '^^'")
                elif (iri := (kind == PNAME and curies.get(word))
                      or resolve(kind, word, pos)) is None:
                    state = _SKIP
                elif iri.startswith(ns.XSD_IRI) and iri[len(ns.XSD_IRI):] in LITERAL_KINDS:
                    state = literal(held, iri[len(ns.XSD_IRI):], held_pos)
                else:
                    state = error(pos, f"unsupported datatype <{iri}>")
            elif state == _PREFIX_NAME:
                name, _, local = word.partition(":")  # a PNAME name fits PREFIX_NAME_RE
                if kind == PNAME and not local:
                    name_pos, state = pos, _PREFIX_IRI
                else:
                    state = error(pos, "expected a prefix name ending in ':'")
            elif state == _PREFIX_IRI:
                if kind == IRIREF:
                    base, state = word, _PREFIX_DOT
                else:
                    state = error(pos, "expected an IRI reference in '@prefix'")
            else:  # _PREFIX_DOT: a missing '.' is reported, but the prefix stands
                if kind == PUNCT and word == ".":
                    state = _SUBJECT
                else:
                    state = error(pos, "expected '.' after '@prefix' declaration")
                if name in prefixes:
                    error(name_pos, f"prefix {name!r} redeclared", SEVERITY_WARNING)
                prefixes[name] = base
                curies.clear()
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
            graph.add_statement(iri(triple.subject), property_id, obj)
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

class _Texts(dict):
    """Each printed term's text, keyed by the term (an Iri or a Literal) and rendered
    on its first lookup. An IRI takes the longest base, then the first name, whose
    rest is a local name: the alternation backtracks to the next base if it is not."""

    def __init__(self, prefixes: dict[str, str]):
        super().__init__()
        self.names = sorted(prefixes, key=lambda name: (-len(prefixes[name]), name))
        bases = "|".join([f"({re.escape(prefixes[name])})" for name in self.names])
        self.match = re.compile(f"(?:{bases})(?={ns.LOCAL_NAME}\\Z)").match
        self.used: set[str] = set()  # the names of the prefixes the texts use

    def __missing__(self, term) -> str:
        if isinstance(term, Iri):
            found = self.match(term.value)
            if found is None:
                text = f"<{term.value}>"
            else:
                self.used.add(name := self.names[found.lastindex - 1])
                text = f"{name}:{term.value[found.end():]}"
        elif term.datatype == "decimal":
            text = term.value
        else:
            escaped = "".join(_UNESCAPES.get(c, c) for c in term.value)
            text = f'"{escaped}"' if term.datatype == "string" else \
                f'"{escaped}"^^{self[Iri(ns.XSD_IRI + term.datatype)]}'
        self[term] = text
        return text


def emit(graph: Graph, out=None) -> str | None:
    """Canonical text for a graph; a byte-level fixed point under parse. It is
    returned, or written to the text stream `out` one subject block at a time.
    A pre-pass renders every IRI, type list, property head and object the text
    prints, once each, and sorts each subject's statements, so whatever emit
    raises, it raises before it writes anything. Each block is one loop over its
    statements, each adding its property's head (', ' for a repeat) and object."""
    rendering = {**ns.DEFAULT_PREFIXES, **graph.prefixes}
    text = _Texts(rendering)

    def statement_sort_key(statement):  # property, then IRIs before literals
        obj = statement.object
        if isinstance(obj, Iri):
            return (statement.property, 0, obj.value, "")
        return (statement.property, 1, obj.datatype, obj.value)

    @cache  # each type set's 'a' list; frozenset() of an interned set is that set
    def type_list(types: frozenset[str]) -> str:
        return ", ".join(sorted(text[Iri(graph.registry.class_iri(t))] for t in types))

    @cache  # and each property's ' ;\n    prefix:Pxx ' head, which ends the line before it
    def head(property_id: str) -> str:
        return f" ;\n    {text[Iri(graph.registry.property_iri(property_id))]} "

    # The pre-pass. A statement whose subject is not a node is not printed. A
    # subject's key is its statements' own Iri, so no key is built for it.
    nodes = graph.nodes
    by_subject: dict[str, list] = {}
    for statement in graph.statements:
        subject, property_id, obj = statement
        if subject.value in nodes:
            by_subject.setdefault(subject.value, []).append(statement)
            head(property_id)
            text[obj]
    subjects = sorted(nodes)
    for subject in subjects:
        statements = by_subject.get(subject, ())
        text[statements[0].subject if statements else Iri(subject)]
        type_list(frozenset(nodes[subject]))
        if len(statements) > 1:
            statements.sort(key=statement_sort_key)
    declared = {name: rendering[name] for name in set(graph.prefixes) | text.used}

    def blocks():
        yield "".join(f"@prefix {name}: <{declared[name]}> .\n" for name in sorted(declared))
        for subject in subjects:
            statements = by_subject.pop(subject, ())
            term = statements[0].subject if statements else Iri(subject)
            parts = [f"\n{text[term]} a {type_list(frozenset(nodes[subject]))}"]
            last = None
            for _, property_id, obj in statements:  # a repeated property takes ', '
                parts += (", " if property_id == last else head(property_id), text[obj])
                last = property_id
            yield "".join(parts) + " .\n"

    return "".join(blocks()) if out is None else out.writelines(blocks())
