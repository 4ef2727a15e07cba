"""Exception types and diagnostics shared across the engine."""

from __future__ import annotations

from typing import NamedTuple


class TwingraphError(Exception):
    """Base class for all engine errors."""


# --- ontology registry ---

class RegistryError(TwingraphError):
    pass


class DuplicateIdError(RegistryError):
    pass


class UnknownParentError(RegistryError):
    pass


class CycleDetectedError(RegistryError):
    pass


class UnknownClassError(RegistryError):
    pass


class UnknownPropertyError(RegistryError):
    pass


class InvalidDefinitionError(RegistryError):
    pass


# --- graph store ---

class GraphError(TwingraphError):
    pass


class UnknownPrefixError(GraphError):
    pass


class InvalidIriError(GraphError, ValueError):
    """An IRI holds characters the text form cannot carry."""


class UnknownSubjectError(GraphError):
    pass


class UnknownObjectError(GraphError):
    pass


class StatementViolationError(GraphError):
    """A statement failed domain, range, or datatype validation.

    reason is a graph.ViolationReason member; the message names the
    property and the classes or datatype found.
    """

    def __init__(self, reason, message: str):
        super().__init__(message)
        self.reason = reason


class NotAProvenanceNodeError(GraphError):
    pass


# --- reactive runtime ---

class ScenarioError(TwingraphError):
    pass


class ConfigError(ScenarioError):
    pass


# --- parse diagnostics ---

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


class ParseDiagnostic(NamedTuple):
    """A finding at a 1-based line:column position in a source text."""

    line: int
    col: int
    severity: str
    message: str

    def render(self) -> str:
        return f"{self.line}:{self.col} {self.severity} {self.message}"


def has_errors(diagnostics: list[ParseDiagnostic]) -> bool:
    return any(d.severity == SEVERITY_ERROR for d in diagnostics)
