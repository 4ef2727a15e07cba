"""Reactive digital-twin knowledge graph engine.

A small semantic stack for monitored heritage assets: an ontology registry
with subclass and applicability reasoning, a validated statement store, a
canonical text serialization, a threshold rule DSL, and a deterministic
reactive runtime that turns sensor series into signals, decisions, and
activation events.
"""

from .config import (
    ConstantGen,
    ListGen,
    NoisyGen,
    RampGen,
    ScenarioConfig,
    SensorSpec,
    SineGen,
    build_scenario,
    load_scenario,
    parse_scenario,
)
from .errors import (
    ConfigError,
    GraphError,
    ParseDiagnostic,
    RegistryError,
    ScenarioError,
    StatementViolationError,
    TwingraphError,
)
from .graph import (
    Graph,
    Iri,
    Literal,
    Statement,
    ValidationReport,
    ViolationReason,
)
from .ontology import (
    LITERAL_KINDS,
    OntologyClassDef,
    PropertyDef,
    Registry,
    SEED_VERSION,
    load_extension,
    load_seed,
    seed_class_table,
    seed_property_table,
)
from .rules import Action, ActionKind, Rule, TriggerMode, evaluate_rule, parse_rules
from .runtime import EventRecord, ScenarioRun, StepFailure, render_log, run_scenario, schedule_due
from .textformat import FILE_EXTENSION, emit, parse

__version__ = "0.1.0"

__all__ = [
    "Action", "ActionKind", "ConfigError", "ConstantGen",
    "EventRecord", "FILE_EXTENSION", "Graph", "GraphError", "Iri", "ListGen",
    "Literal", "LITERAL_KINDS", "NoisyGen",
    "OntologyClassDef", "ParseDiagnostic", "PropertyDef", "RampGen",
    "Registry", "RegistryError", "Rule", "ScenarioConfig", "ScenarioError",
    "ScenarioRun", "SEED_VERSION", "SensorSpec", "SineGen",
    "Statement", "StatementViolationError", "StepFailure", "TriggerMode",
    "TwingraphError", "ValidationReport", "ViolationReason", "build_scenario",
    "emit", "evaluate_rule", "load_extension", "load_scenario", "load_seed",
    "parse", "parse_rules", "parse_scenario", "render_log", "run_scenario",
    "schedule_due", "seed_class_table", "seed_property_table", "__version__",
]
