"""Namespace IRIs, prefix handling, CURIE resolution, and the IRI rule.

The engine ships a fixed set of well-known prefixes. Six of them carry the
ontology vocabulary itself; wd covers external entity references and xsd the
literal datatypes. Prefixes declared on a graph or document always win a name
clash with these defaults.

carriable states the one IRI rule (absolute, no character of IRI_FORBIDDEN);
every IRI or prefix base that text or a caller supplies must pass it.
"""

from __future__ import annotations

import re

from .errors import InvalidIriError, UnknownPrefixError

CRM = "CRM"
CRMDIG = "CRMdig"
CRMSCI = "CRMsci"
CRMPE = "CRMpe"
HDTO = "HDTO"
RHDTO = "RHDTO"

# Each ontology namespace's IRI; its default prefix is its name in lower case.
NAMESPACE_IRI = {
    CRM: "http://www.cidoc-crm.org/cidoc-crm/",
    CRMDIG: "http://www.ics.forth.gr/isl/CRMdig/",
    CRMSCI: "http://www.ics.forth.gr/isl/CRMsci/",
    CRMPE: "http://parthenos.d4science.org/CRMext/CRMpe.rdfs/",
    HDTO: "https://example.org/ns/hdto#",
    RHDTO: "https://example.org/ns/rhdto#",
}

XSD_IRI = "http://www.w3.org/2001/XMLSchema#"
WD_IRI = "http://www.wikidata.org/entity/"

# Reserved prefix for individuals minted by the reactive runtime.
RUN_PREFIX = "run"
RUN_IRI = "https://example.org/run/"

# Reserved vocabulary for ontology extension files.
REG_IRI = "https://example.org/ns/registry#"

# Emitter-known prefixes: declared automatically when rendered output uses
# them, unless the graph declares the same name itself.
DEFAULT_PREFIXES: dict[str, str] = {
    **{ns.lower(): iri for ns, iri in NAMESPACE_IRI.items()}, "wd": WD_IRI, "xsd": XSD_IRI}

# Class ids and property ids must start with the marker of their
# namespace. Longest marker wins.
CLASS_MARKERS = {
    "E": (CRM,),
    "D": (CRMDIG,),
    "S": (CRMSCI,),
    "PE": (CRMPE,),
    "HC": (HDTO, RHDTO),
}

PROPERTY_MARKERS = {
    "P": (CRM,),
    "L": (CRMDIG,),
    "O": (CRMSCI,),
    "PP": (CRMPE,),
    "HP": (HDTO, RHDTO),
}

PREFIX_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")

# The ASCII characters of a CURIE local name, the one class both text
# grammars and the emitter use. A local name never ends in '.', which ends
# a graph-text statement, nor begins with '//', which marks an absolute IRI.
_LOCAL_CHARS = "A-Za-z0-9_%~/-"  # and '.'
LOCAL_CHAR = f"[.{_LOCAL_CHARS}]"
LOCAL_NAME = f"(?!//)[{_LOCAL_CHARS}]*(?:\\.+[{_LOCAL_CHARS}]+)*"

IRI_FORBIDDEN = ' \t\r\n"<>'  # the text form could not carry them inside <...>

_ABSOLUTE_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*://")


def symbol_namespaces(symbol_id: str, markers: dict[str, tuple[str, ...]]) -> tuple[str, ...]:
    """Namespaces an id may belong to, judged by its leading marker."""
    best = ""
    for marker in markers:
        if symbol_id.startswith(marker) and len(marker) > len(best):
            best = marker
    return markers.get(best, ())


def is_absolute_iri(text: str) -> bool:
    return bool(_ABSOLUTE_RE.match(text)) or text.startswith("urn:") or text.startswith("mailto:")


def carriable(iri: str) -> bool:
    """The IRI rule: a str, absolute, with no character the text form cannot carry."""
    return isinstance(iri, str) and is_absolute_iri(iri) and not any(
        c in iri for c in IRI_FORBIDDEN)


def resolve_iri(text: str, prefixes: dict[str, str]) -> str:
    """Expand a CURIE or pass through an absolute IRI.

    <...> wrapping is stripped. CURIE prefixes resolve against the given map
    with the defaults as fallback; "name://..." is never a CURIE. The result
    must be carriable, or InvalidIriError says which half of the rule fails.
    """
    if not isinstance(text, str):
        raise InvalidIriError(f"not an IRI or CURIE: {text!r}")
    if text.startswith("<") and text.endswith(">"):
        return _checked(text[1:-1])
    head, sep, local = text.partition(":")
    if sep and PREFIX_NAME_RE.match(head) and not local.startswith("//"):
        base = prefixes.get(head, DEFAULT_PREFIXES.get(head))
        if base is not None:
            return _checked(base + local)
    if is_absolute_iri(text):
        return _checked(text)
    raise UnknownPrefixError(f"cannot resolve IRI or CURIE {text!r}")


def _checked(iri: str) -> str:
    if carriable(iri):
        return iri
    if any(c in iri for c in IRI_FORBIDDEN):
        raise InvalidIriError(f"IRI contains characters the text form cannot carry: {iri!r}")
    raise InvalidIriError(f"not an absolute IRI: {iri!r}")


def local_name(iri: str) -> str:
    """Last path-ish segment of an IRI, used for run-minted names."""
    for sep in ("#", "/", ":"):
        if sep in iri:
            tail = iri.rsplit(sep, 1)[1]
            if tail:
                return tail
    return iri


def slug(label: str) -> str:
    """Deterministic IRI-safe token for a free-text label: '-' for each non-word character."""
    return re.sub(r"[^\w-]", "-", label.strip()) or "x"
