"""Ontology registry: class and property definitions with subclass reasoning.

The registry is a small in-memory schema. Classes form a DAG under multiple
inheritance; properties carry a domain class and either a range class or a
literal kind. A built-in seed covers the heritage digital twin vocabulary
drawn from CIDOC CRM and its digital, scientific, service, and twin
extensions, including the reactive layer (sensors, signals, deciders,
activation events).

Registering returns a new registry and never changes the receiver. A class
stores only its parents and comes after them: one pass finds its descendants.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from typing import NamedTuple

from . import namespaces as ns
from .errors import (
    CycleDetectedError,
    DuplicateIdError,
    InvalidDefinitionError,
    RegistryError,
    UnknownClassError,
    UnknownParentError,
    UnknownPropertyError,
)

SEED_VERSION = "2026.1"

# Literal kinds a property range may name instead of a class.
LITERAL_KINDS = ("string", "decimal", "integer", "dateTime", "anyURI")


class OntologyClassDef(NamedTuple):
    id: str
    label: str
    namespace: str
    parents: tuple[str, ...]
    scope_note: str = ""


class PropertyDef(NamedTuple):
    id: str
    label: str
    namespace: str
    domain: str
    range: str  # class id or literal kind
    scope_note: str = ""


class Registry:
    __slots__ = ("classes", "properties", "_descendants")

    def __init__(self, classes=None, properties=None):
        self.classes: dict[str, OntologyClassDef] = classes or {}
        self.properties: dict[str, PropertyDef] = properties or {}
        # class id -> that class and all its descendants, filled on first use
        self._descendants: dict[str, frozenset[str]] = {}

    # --- mutation (returns a new registry) ---

    def register_class(self, cdef: OntologyClassDef) -> "Registry":
        return Registry(dict(self.classes), dict(self.properties))._add_class(cdef)

    def register_property(self, pdef: PropertyDef) -> "Registry":
        return Registry(dict(self.classes), dict(self.properties))._add_property(pdef)

    # in place, so only on a registry no caller holds yet: its memo is empty
    def _add_class(self, cdef: OntologyClassDef) -> "Registry":
        if cdef.id in self.classes:
            raise DuplicateIdError(f"class {cdef.id} already registered")
        if cdef.namespace not in ns.symbol_namespaces(cdef.id, ns.CLASS_MARKERS):
            raise InvalidDefinitionError(
                f"class id {cdef.id} does not match namespace {cdef.namespace}")
        for parent in cdef.parents:
            if parent == cdef.id:
                raise CycleDetectedError(f"class {cdef.id} cannot be its own ancestor")
            if parent not in self.classes:
                raise UnknownParentError(f"class {cdef.id}: unknown parent {parent}")
        self.classes[cdef.id] = cdef
        return self

    def _add_property(self, pdef: PropertyDef) -> "Registry":
        if pdef.id in self.properties:
            raise DuplicateIdError(f"property {pdef.id} already registered")
        if pdef.namespace not in ns.symbol_namespaces(pdef.id, ns.PROPERTY_MARKERS):
            raise InvalidDefinitionError(
                f"property id {pdef.id} does not match namespace {pdef.namespace}")
        if pdef.domain not in self.classes:
            raise UnknownClassError(f"property {pdef.id}: unknown domain {pdef.domain}")
        if pdef.range not in self.classes and pdef.range not in LITERAL_KINDS:
            raise UnknownClassError(f"property {pdef.id}: unknown range {pdef.range}")
        self.properties[pdef.id] = pdef
        return self

    # --- reasoning ---

    def is_subclass_of(self, a: str, b: str) -> bool:
        """Reflexive-transitive subclass test."""
        self._require_class(a)
        return a in self.subclass_closure(b)  # which requires b

    def subclass_closure(self, c: str) -> frozenset[str]:
        """All registered descendants of c, including c itself."""
        if c not in self._descendants:
            self._require_class(c)
            below = {c}
            for d, cdef in self.classes.items():  # parents first, so one pass
                if not below.isdisjoint(cdef.parents):
                    below.add(d)
            self._descendants[c] = frozenset(below)
        return self._descendants[c]

    def falls_under(self, class_ids: AbstractSet[str], class_id: str) -> bool:
        """Whether some class of class_ids is class_id or a subclass of it."""
        if self.subclass_closure(class_id).isdisjoint(class_ids):
            for c in class_ids:  # no match: an unregistered class is an error
                self._require_class(c)
            return False
        return True

    def check_applicability(self, prop_id: str, subject_classes: AbstractSet[str],
                            object_classes: AbstractSet[str]) -> bool:
        """Whether a statement typed this way satisfies domain and range.

        True iff some subject class falls under the property's domain and,
        for class-valued ranges, some object class falls under the range.
        Literal-kind ranges place no constraint on object classes here; the
        statement store checks the actual literal's datatype.
        """
        pdef = self.properties.get(prop_id)
        if pdef is None:
            raise UnknownPropertyError(f"unknown property {prop_id}")
        if not self.falls_under(subject_classes, pdef.domain):
            return False
        if pdef.range in LITERAL_KINDS:
            for oc in object_classes:
                self._require_class(oc)
            return True
        return self.falls_under(object_classes, pdef.range)

    # --- IRI mapping for the text serialization ---

    def class_iri(self, class_id: str) -> str:
        cdef = self.classes[class_id]
        return ns.NAMESPACE_IRI[cdef.namespace] + cdef.id

    def property_iri(self, prop_id: str) -> str:
        pdef = self.properties[prop_id]
        return ns.NAMESPACE_IRI[pdef.namespace] + pdef.id

    def class_iri_map(self) -> dict[str, str]:
        return {self.class_iri(cid): cid for cid in self.classes}

    def property_iri_map(self) -> dict[str, str]:
        return {self.property_iri(pid): pid for pid in self.properties}

    def _require_class(self, class_id: str) -> None:
        if class_id not in self.classes:
            raise UnknownClassError(f"unknown class {class_id}")


_SEED_CLASSES = tuple(OntologyClassDef(*row) for row in (
    ("E1", "CRM Entity", ns.CRM, (), "Root of the class hierarchy."),
    ("E3", "Condition State", ns.CRM, ("E1",), "State an item is in over a period."),
    ("E5", "Event", ns.CRM, ("E1",), "Something that happens."),
    ("E39", "Actor", ns.CRM, ("E1",), "Person or group able to act."),
    ("E53", "Place", ns.CRM, ("E1",), "Extent in space."),
    ("E55", "Type", ns.CRM, ("E1",), "Category used to classify items."),
    ("D8", "Digital Device", ns.CRMDIG, ("E1",), "Machine that processes or produces data."),
    ("D9", "Data Object", ns.CRMDIG, ("E1",), "Self-contained chunk of digital data."),
    ("D14", "Software", ns.CRMDIG, ("D9",), "Executable digital object."),
    ("S21", "Measurement", ns.CRMSCI, ("E5",), "Observation that yields quantities."),
    ("PE1", "Service", ns.CRMPE, ("E1",), "Provision of value through an activity."),
    ("HC1", "Heritage Entity", ns.HDTO, ("E1",), "Item of cultural heritage interest."),
    ("HC2", "Digital Twin", ns.HDTO, ("E1",), "Digital counterpart of a heritage entity."),
    ("HC3", "Tangible Aspect", ns.HDTO, ("HC1",), "Physical side of a heritage entity."),
    ("HC4", "Intangible Aspect", ns.HDTO, ("HC1",), "Non-material side of a heritage entity."),
    ("HC6", "Digital Heritage Document", ns.HDTO, ("E1",), "Document about a heritage entity."),
    ("HC7", "Digital Visual Object", ns.HDTO, ("E1",), "Visual digital representation."),
    ("HC8", "3D Model", ns.HDTO, ("HC7",), "Three-dimensional digital representation."),
    ("HC9", "Sensor", ns.RHDTO, ("D8",), "Device measuring a quantity on or near an asset."),
    ("HC10", "Decider", ns.RHDTO, ("PE1",), "Service that evaluates signals against rules."),
    ("HC11", "Activator", ns.RHDTO, ("D8",), "Device that performs a physical action on demand."),
    ("HC12", "Signal", ns.RHDTO, ("D9",), "Data object a measurement emits toward a decider."),
    ("HC13", "Sensor Measurement", ns.RHDTO, ("S21",), "Single sampling act of a sensor."),
    ("HC14", "Activation Event", ns.RHDTO, ("E5",), "Event in which a decider triggers actions."),
))

_SEED_PROPERTIES = tuple(PropertyDef(*row) for row in (
    ("HP1", "is digital twin of", ns.HDTO, "HC2", "HC1",
     "Links a digital twin to the heritage entity it mirrors."),
    ("HP11", "is operated by", ns.RHDTO, "HC9", "D14",
     "Software that operates a sensor."),
    ("HP12", "was transmitted to", ns.RHDTO, "HC12", "HC10",
     "Decider a signal was delivered to."),
    ("HP13", "activated", ns.RHDTO, "HC14", "HC11",
     "Activator engaged by an activation event."),
    ("HP14", "alerted", ns.RHDTO, "HC14", "E39",
     "Actor notified by an activation event."),
    ("HP15", "is positioned on", ns.RHDTO, "HC9", "HC3",
     "Tangible aspect a sensor sits on."),
    ("P55", "has current location", ns.CRM, "E1", "E53",
     "Place where an item currently is."),
    ("L12", "happened on device", ns.CRMDIG, "S21", "D8",
     "Device on which a measurement event ran."),
    ("L17", "measured thing of type", ns.CRMDIG, "HC13", "E55",
     "Kind of quantity a measurement sampled."),
    ("L20", "has created", ns.CRMDIG, "S21", "D9",
     "Data object a measurement produced."),
    ("O13", "triggered", ns.CRMSCI, "HC10", "HC14",
     "Activation event a decider set off."),
    ("O24", "measured", ns.CRMSCI, "S21", "E5",
     "Observed phenomenon a measurement belongs to."),
))


def load_seed() -> Registry:
    """The built-in vocabulary, identical on every call."""
    reg = Registry()
    for cdef in _SEED_CLASSES:
        reg._add_class(cdef)
    for pdef in _SEED_PROPERTIES:
        reg._add_property(pdef)
    return reg


def seed_class_table() -> tuple[OntologyClassDef, ...]:
    return _SEED_CLASSES


def seed_property_table() -> tuple[PropertyDef, ...]:
    return _SEED_PROPERTIES


# --- extension files ---


def load_extension(registry: Registry, text: str):
    """Grow a registry from an extension document.

    The document uses the graph text syntax with the reg: vocabulary
    (subClassOf, domain, range, label, scopeNote). Returns
    (new registry or None, diagnostics); any error leaves the input
    registry unused.
    """
    from heapq import heappop, heappush  # only extension files need it
    from . import textformat
    from .errors import has_errors

    raw = textformat.parse_raw(text)
    diagnostics = list(raw.diagnostics)

    def fail(pos, message):
        diagnostics.append(raw.lines.diagnostic(pos, message))

    for assertion in raw.types:
        fail(assertion.subject_pos, "'a' assertions are not part of extension files")

    # One entry per subject, in declaration order: its position and, keyed by
    # verb, the last label, scopeNote, domain and range and every subClassOf.
    subjects: dict[str, dict] = {}
    for triple in raw.triples:
        entry = subjects.setdefault(triple.subject, {"pos": triple.subject_pos})
        if not triple.predicate.startswith(ns.REG_IRI):
            fail(triple.predicate_pos, "extension statements must use the reg: vocabulary")
            continue
        verb = triple.predicate[len(ns.REG_IRI):]
        obj, pos = triple.object, triple.object_pos
        literal = isinstance(obj, textformat.RawLiteral)
        if verb in ("label", "scopeNote"):
            if literal and obj.datatype == "string":
                entry[verb] = obj.value
            else:
                fail(pos, f"reg:{verb} takes a string literal")
        elif verb not in ("subClassOf", "domain", "range"):
            fail(triple.predicate_pos, f"unknown extension verb reg:{verb}")
        elif literal and not (verb == "range" and obj.datatype == "string"
                              and obj.value in LITERAL_KINDS):
            fail(pos, f"reg:{verb} takes a class reference"
                 + (" or a literal kind name" if verb == "range" else ""))
        elif verb == "subClassOf":
            entry.setdefault(verb, []).append((obj, pos))
        else:
            entry[verb] = (obj.value if literal else obj, pos)

    if has_errors(diagnostics):
        return None, diagnostics

    def split_symbol(iri, pos):
        for namespace, base in ns.NAMESPACE_IRI.items():
            if iri.startswith(base):
                return iri[len(base):], namespace
        fail(pos, f"extension subject or reference outside the ontology namespaces: {iri}")
        return None, None

    classes, propdefs = [], []
    for subject_iri, entry in subjects.items():
        symbol, namespace = split_symbol(subject_iri, entry["pos"])
        if symbol is None:
            continue
        is_property = "domain" in entry or "range" in entry
        if is_property == ("subClassOf" in entry):  # both kinds of verb, or neither
            fail(entry["pos"], f"{symbol} mixes class and property verbs" if is_property
                 else f"{symbol} needs reg:subClassOf or reg:domain and reg:range")
            continue
        (propdefs if is_property else classes).append((symbol, namespace, entry))

    if has_errors(diagnostics):
        return None, diagnostics

    # Classes first, by Kahn's algorithm (1962) in the (scan, file index) order of a
    # rescan until nothing changes; a class waits on its first missing parent, then reads on.
    reg = Registry(dict(registry.classes), dict(registry.properties))
    waiting: dict[str, list] = {}
    ready = [(1, i, None) for i in range(len(classes))]  # sorted, so already a heap
    while ready:
        scan, i, unchecked = heappop(ready)
        symbol, namespace, entry = classes[i]
        if unchecked is None:
            entry["ids"] = [split_symbol(*parent)[0] for parent in entry["subClassOf"]]
            if has_errors(diagnostics):
                return None, diagnostics
            unchecked = iter(entry["ids"])
        missing = next((p for p in unchecked if p not in reg.classes), None)
        if missing is not None:
            waiting.setdefault(missing, []).append((i, unchecked))
            continue
        try:
            reg._add_class(OntologyClassDef(
                symbol, entry.get("label") or symbol, namespace,
                tuple(entry["ids"]), entry.get("scopeNote", "")))
        except RegistryError as exc:
            fail(entry["pos"], str(exc))
            return None, diagnostics
        for j, rest in waiting.pop(symbol, ()):  # one declared before i waits a scan
            heappush(ready, (scan + (j < i), j, rest))
    for i in sorted(i for waiters in waiting.values() for i, _ in waiters):
        fail(classes[i][2]["pos"], f"class {classes[i][0]} has unresolved parents")

    for symbol, namespace, entry in propdefs:
        if "domain" not in entry or "range" not in entry:
            fail(entry["pos"], f"property {symbol} needs both reg:domain and reg:range")
            continue
        domain_id = split_symbol(*entry["domain"])[0]
        range_id = entry["range"][0]
        if range_id not in LITERAL_KINDS:
            range_id = split_symbol(*entry["range"])[0]
        if has_errors(diagnostics):
            return None, diagnostics
        try:
            reg._add_property(PropertyDef(
                symbol, entry.get("label") or symbol, namespace,
                domain_id, range_id, entry.get("scopeNote", "")))
        except RegistryError as exc:
            fail(entry["pos"], str(exc))

    if has_errors(diagnostics):
        return None, diagnostics
    return reg, diagnostics
