"""Validated statement store over an ontology registry.

A graph holds typed entity nodes and (subject, property, object) statements.
Every statement is checked eagerly against the registry: both ends must be
known nodes, the property must be registered, a literal must parse as its
datatype, and the node types must satisfy the property's domain and range.
A graph built through this API can therefore never hold an ill-typed
statement; validate() re-checks by the same rule for statements inserted by
other means.

The statements are one append-only ordered set, a dict keyed by statement:
duplicates collapse and insertion order is kept for queries and provenance
walks. A statement inserted unchecked (graph.statements[s] = None) is seen by
every reader. objects_of and provenance_chain index the statements appended
since their last call, so they write too: use a graph from one thread at a
time, or share it after writes stop and one ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import NamedTuple

from . import namespaces as ns
from .canon import canonical_decimal, format_datetime_utc, parse_datetime_utc, parse_decimal
from .errors import (
    NotAProvenanceNodeError,
    StatementViolationError,
    UnknownClassError,
    UnknownObjectError,
    UnknownPropertyError,
    UnknownSubjectError,
)
from .ontology import LITERAL_KINDS, Registry


@dataclass(frozen=True, order=True, slots=True)
class Iri:
    """An absolute IRI; equality and order follow the expanded text."""

    value: str

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class Literal:
    """A typed literal in canonical lexical form. Build via Literal.of."""

    datatype: str
    value: str

    @classmethod
    def of(cls, datatype: str, value) -> "Literal":
        return cls(datatype, _canonical_lexical(datatype, value))

    def __str__(self) -> str:
        return f'"{self.value}"^^{self.datatype}'


def _canonical_lexical(datatype: str, value) -> str:
    if datatype == "string":
        if not isinstance(value, str):
            raise ValueError("string literal takes text")
        return value
    if datatype == "decimal":
        from decimal import Decimal
        if isinstance(value, Decimal):
            return canonical_decimal(value)
        return canonical_decimal(parse_decimal(str(value)))
    if datatype == "integer":
        text = str(value).strip()
        stripped = text[1:] if text[:1] in "+-" else text
        if not (stripped.isascii() and stripped.isdigit()):
            raise ValueError(f"not an integer numeral: {text!r}")
        digits = stripped.lstrip("0") or "0"
        return "-" + digits if text[0] == "-" and digits != "0" else digits
    if datatype == "dateTime":
        if isinstance(value, str):
            return format_datetime_utc(parse_datetime_utc(value))
        return format_datetime_utc(value)
    if datatype == "anyURI":
        text = str(value)  # absolute, and carried by the text form as is
        if not ns.is_absolute_iri(text) or any(
                ch.isspace() or ch in ns.IRI_FORBIDDEN for ch in text):
            raise ValueError(f"not a valid anyURI: {text!r}")
        return text
    raise ValueError(f"unknown literal datatype {datatype!r}")


@dataclass(frozen=True, slots=True)
class Statement:
    subject: Iri
    property: str
    object: "Iri | Literal"


class ViolationReason(Enum):
    UNKNOWN_SUBJECT = "UnknownSubject"
    UNKNOWN_OBJECT = "UnknownObject"
    UNKNOWN_PROPERTY = "UnknownProperty"
    DOMAIN_VIOLATION = "DomainViolation"
    RANGE_VIOLATION = "RangeViolation"
    DATATYPE_VIOLATION = "DatatypeViolation"


class Violation(NamedTuple):
    reason: ViolationReason
    message: str
    statement: Statement


class ValidationReport(NamedTuple):
    ok: bool
    violations: list[Violation]


# Backward provenance walk, outermost start first. Each step names the
# property to follow and whether the current node sits at the object ("in")
# or subject ("out") end of the matching statement.
_CHAIN_STEPS = (
    (("O13",), "in"),
    (("HP12",), "in"),
    (("L20",), "in"),
    (("L12",), "out"),
    (("HP15", "P55"), "out"),
)
# Minted activations and signals share "<sensor>/<index>" (FORMAT.md).
_RUN_ACT, _RUN_SIG = ns.RUN_IRI + "act/", ns.RUN_IRI + "sig/"


# insert raises these for existence; StatementViolationError otherwise.
_UNKNOWN_ERRORS = {
    ViolationReason.UNKNOWN_PROPERTY: UnknownPropertyError,
    ViolationReason.UNKNOWN_SUBJECT: UnknownSubjectError,
    ViolationReason.UNKNOWN_OBJECT: UnknownObjectError,
}


class Graph:
    def __init__(self, registry: Registry, prefixes: dict[str, str] | None = None):
        self.registry = registry
        self.prefixes: dict[str, str] = dict(prefixes or {})
        # Each node's classes, one shared frozenset per distinct combination.
        self.nodes: dict[str, frozenset[str]] = {}
        self._type_sets: dict[frozenset[str], frozenset[str]] = {}
        # Append-only ordered set: the keys, in insertion order.
        self.statements: dict[Statement, None] = {}
        self._out: dict[str, list[Statement]] = {}
        self._in: dict[str, list[Statement]] = {}
        self._indexed = 0

    # --- identifiers ---

    def resolve(self, text) -> Iri:
        if isinstance(text, Iri):
            return text
        return Iri(ns.resolve_iri(text, self.prefixes))

    # --- construction ---

    def add_entity(self, iri, class_ids) -> Iri:
        """Create or extend a node; merged types make a new interned frozenset."""
        node = self.resolve(iri)
        types = [class_ids] if isinstance(class_ids, str) else list(class_ids)
        if not types:
            raise UnknownClassError("a node needs at least one class")
        for cid in types:
            if cid not in self.registry.classes:
                raise UnknownClassError(f"unknown class {cid}")
        merged = frozenset(types).union(self.nodes.get(node.value, ()))
        self.nodes[node.value] = self._type_sets.setdefault(merged, merged)
        return node

    def add_statement(self, subject, property_id: str, obj) -> Statement:
        """Validate and insert one statement; duplicates collapse silently."""
        return self.insert(self._statement(subject, property_id, obj))

    def insert(self, statement: Statement) -> Statement:
        """The one checked insert, for a Statement of Iri and Literal terms."""
        found = self._violation(statement)
        if found is not None:
            error = _UNKNOWN_ERRORS.get(found[0])
            raise error(found[1]) if error else StatementViolationError(*found)
        self.statements[statement] = None
        return statement

    def has_statement(self, subject, property_id: str, obj) -> bool:
        return self._statement(subject, property_id, obj) in self.statements

    def _statement(self, subject, property_id: str, obj) -> Statement:
        if isinstance(obj, (str, Iri)):
            obj = self.resolve(obj)
        return Statement(self.resolve(subject), property_id, obj)

    def _violation(self, statement: Statement) -> tuple[ViolationReason, str] | None:
        """The first rule the statement breaks, or None. In order: property,
        subject and object exist; a literal is its datatype's canonical form; no IRI on
        a literal range; domain; class range (no literal there); datatype. A
        node typed outside the registry raises UnknownClassError."""
        pdef = self.registry.properties.get(statement.property)
        if pdef is None:
            return ViolationReason.UNKNOWN_PROPERTY, f"unknown property {statement.property}"
        subject_types = self.nodes.get(statement.subject.value)
        if not subject_types:
            return ViolationReason.UNKNOWN_SUBJECT, f"unknown subject {statement.subject}"
        obj = statement.object
        if isinstance(obj, Iri):
            object_types = self.nodes.get(obj.value)
            if not object_types:
                return ViolationReason.UNKNOWN_OBJECT, f"unknown object {obj}"
            if pdef.range in LITERAL_KINDS:
                return (ViolationReason.RANGE_VIOLATION,
                        f"{statement.property} expects a {pdef.range} literal, got an IRI")
        else:
            try:
                canonical = _canonical_lexical(obj.datatype, obj.value)
            except ValueError as exc:
                return ViolationReason.DATATYPE_VIOLATION, str(exc)
            if canonical != obj.value:  # emit writes it as is; it would not read back equal
                return (ViolationReason.DATATYPE_VIOLATION,
                        f"{obj.value!r} is not canonical; the {obj.datatype} form is {canonical!r}")
        if not self.registry.falls_under(subject_types, pdef.domain):
            return (ViolationReason.DOMAIN_VIOLATION,
                    f"subject of {statement.property} must fall under {pdef.domain}; "
                    f"found {sorted(subject_types)}")
        if isinstance(obj, Iri):
            if not self.registry.falls_under(object_types, pdef.range):
                return (ViolationReason.RANGE_VIOLATION,
                        f"object of {statement.property} must fall under {pdef.range}; "
                        f"found {sorted(object_types)}")
        elif pdef.range not in LITERAL_KINDS:
            return (ViolationReason.RANGE_VIOLATION,
                    f"{statement.property} expects a {pdef.range}, got a literal")
        elif obj.datatype != pdef.range:
            return (ViolationReason.DATATYPE_VIOLATION,
                    f"{statement.property} expects a {pdef.range} literal, got {obj.datatype}")
        return None

    # --- validation ---

    def validate(self) -> ValidationReport:
        """Re-check every statement; never raises."""
        violations: list[Violation] = []
        for statement in self.statements:
            try:
                found = self._violation(statement)
            except UnknownClassError as exc:
                found = ViolationReason.UNKNOWN_SUBJECT, str(exc)
            if found is not None:
                violations.append(Violation(*found, statement))
        return ValidationReport(ok=not violations, violations=violations)

    # --- queries ---

    def instances_of(self, class_id: str, transitive: bool = False) -> list[Iri]:
        """Nodes typed with class_id, optionally via any subclass; IRI order."""
        descendants = self.registry.subclass_closure(class_id)  # or UnknownClassError
        accepted = descendants if transitive else {class_id}
        found = [iri for iri, types in self.nodes.items() if types & accepted]
        return [Iri(v) for v in sorted(found)]

    def objects_of(self, subject, property_id: str) -> list:
        """Objects of (subject, property) statements in insertion order."""
        resolved = self.resolve(subject)
        if property_id not in self.registry.properties:
            raise UnknownPropertyError(f"unknown property {property_id}")
        return [s.object for s in self._adjacency()[0].get(resolved.value, ())
                if s.property == property_id]

    def _adjacency(self) -> tuple[dict[str, list[Statement]], dict[str, list[Statement]]]:
        """Statements by subject (out) and IRI object (in), caught up on each call."""
        out, into = self._out, self._in
        new = len(self.statements) - self._indexed
        if new:
            # The tail from the end: islice from the front walks the prefix.
            for statement in reversed(list(islice(reversed(self.statements), new))):
                out.setdefault(statement.subject.value, []).append(statement)
                if isinstance(statement.object, Iri):
                    into.setdefault(statement.object.value, []).append(statement)
            self._indexed = len(self.statements)
        return out, into

    # --- provenance ---

    def provenance_chain(self, start) -> list[Statement]:
        """Walk an activation, signal, or measurement back toward its asset.

        Follows O13, HP12, L20 upstream and L12 plus the sensor attachment
        downstream, stopping quietly at the first missing link. From
        run:act/<s>/<i>, the HP12 hop takes run:sig/<s>/<i>, the signal it
        answered, when that reaches the decider; otherwise the earliest
        inserted matching statement wins. A hop reads one node's statements.
        """
        resolved = self.resolve(start)
        types = self.nodes.get(resolved.value)
        if not types:
            raise UnknownSubjectError(f"unknown node {resolved}")
        skip = None
        for offset, class_id in ((0, "HC14"), (2, "HC12"), (3, "HC13")):
            if self.registry.falls_under(types, class_id):
                skip = offset
                break
        if skip is None:
            raise NotAProvenanceNodeError(
                f"{resolved} is not an activation event, signal, or measurement")
        out, into = self._adjacency()
        minted = skip == 0 and resolved.value.startswith(_RUN_ACT)
        cause = _RUN_SIG + resolved.value[len(_RUN_ACT):] if minted else None
        path: list[Statement] = []
        current = resolved
        for properties, direction in _CHAIN_STEPS[skip:]:
            adjacent = into if direction == "in" else out
            hit = next((s for s in adjacent.get(current.value, ())
                        if s.property in properties), None)
            if hit is None:
                break
            if cause is not None and "HP12" in properties:
                hit = next((s for s in out.get(cause, ())
                            if s.property == "HP12" and s.object == current), hit)
            path.append(hit)
            current = hit.subject if direction == "in" else hit.object
        return path

    # --- equality for tests and tools ---

    def content_equal(self, other: "Graph") -> bool:
        return (self.nodes == other.nodes
                and self.statements.keys() == other.statements.keys())
