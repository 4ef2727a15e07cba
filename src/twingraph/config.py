"""Scenario configuration: JSON loading, the scenario check, and typed specs.

A scenario names the static world (assets, places, twin, software, actors,
activators), the sensors with their generators, one decider with a rule
block, and the clock. The JSON schema ships in docs/scenario.schema.json.
A document loads in two passes. The shape pass reads keys, objects and
arrays, expands CURIEs and reads numbers as Decimals, never binary floats;
every other value it copies as it stands. check_scenario then states every
rule about values, and ScenarioRun runs it on a config built by hand too.
Every finding raises ConfigError, so the CLI can exit with a usage error.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal
from functools import partial
from typing import NamedTuple

from . import namespaces as ns
from .canon import parse_datetime_utc
from .errors import ConfigError, InvalidIriError, UnknownPrefixError
from .rules import COMPARATORS, Action, ActionKind, Rule, TriggerMode, parse_rules

MAX_SEED = 2 ** 64 - 1
_LATEST = parse_datetime_utc("9999-12-31T23:59:59Z")  # a scenario clock ends by then
_TYPE_NAMES = {str: "a string", dict: "an object", list: "an array"}  # _require's type words


# --- generators ---

class ConstantGen(NamedTuple):
    value: Decimal


class RampGen(NamedTuple):
    start: Decimal
    slope: Decimal  # per tick at the sensor's sampling cadence


class SineGen(NamedTuple):
    mean: Decimal
    amplitude: Decimal
    period: int  # samples per cycle


class ListGen(NamedTuple):
    values: tuple[Decimal, ...]  # last value repeats


class NoisyGen(NamedTuple):
    inner: "Generator"
    stddev: Decimal
    seed: int = 0


Generator = ConstantGen | RampGen | SineGen | ListGen | NoisyGen
_KINDS = {"constant": ConstantGen, "ramp": RampGen, "sine": SineGen, "list": ListGen,
          "noisy": NoisyGen}  # by the JSON's "kind"
_DECIMALS = {ConstantGen: ("value",), RampGen: ("start", "slope"), SineGen: ("mean", "amplitude"),
             ListGen: (), NoisyGen: ("stddev",)}  # each one's Decimal fields; ListGen's values too
_IRI_FIELDS = {"iri", "located_in", "twin_of", "software", "positioned_on"}  # a spec's IRIs
_CONTAINERS = {"generator": dict, "inner": dict, "values": list}  # the JSON type each needs


# --- static entities and sensors ---

class AssetSpec(NamedTuple):
    iri: str
    located_in: str | None = None


class TwinSpec(NamedTuple):
    iri: str
    twin_of: str


class ActivatorSpec(NamedTuple):
    iri: str
    action: str


class SensorSpec(NamedTuple):
    iri: str
    measured_type: str
    unit: str
    software: str
    generator: Generator
    positioned_on: str | None = None  # on a tangible asset, or
    located_in: str | None = None  # near it, in a place
    period: int = 1
    phase: int = 0
    observed_event: str = ""  # label for the shared observed-event node


class DeciderSpec(NamedTuple):
    iri: str
    rules: tuple[Rule, ...]


class ScenarioConfig(NamedTuple):
    prefixes: dict[str, str]
    start: str
    tick_seconds: int
    duration: int
    seed: int
    assets: tuple[AssetSpec, ...]
    places: tuple[str, ...]
    twin: TwinSpec | None
    software: tuple[str, ...]
    actors: tuple[str, ...]
    activators: tuple[ActivatorSpec, ...]
    sensors: tuple[SensorSpec, ...]
    decider: DeciderSpec


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    return parse_scenario(text)


def parse_scenario(text: str) -> ScenarioConfig:
    try:
        data = json.loads(text, parse_float=Decimal)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"scenario is not valid JSON: {exc}") from exc
    except ArithmeticError as exc:  # decimal.InvalidOperation, whose text names no cause
        raise ConfigError("scenario holds a number beyond Decimal's exponent range") from exc
    return build_scenario(data)


def build_scenario(data) -> ScenarioConfig:
    """A loaded document's config: its shape, then check_scenario."""
    return check_scenario(_shape(data))


# --- the shape pass: what only the JSON can tell ---

def _require(data: dict, key: str, kind, where: str):
    if key not in data:
        raise ConfigError(f"{where}: missing required field {key!r}")
    value = data[key]
    if kind in _TYPE_NAMES and not isinstance(value, kind):
        raise ConfigError(f"{where}: field {key!r} must be {_TYPE_NAMES[kind]}")
    return value


def _reject_unknown(data: dict, allowed: set[str], where: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {sorted(unknown)}")


def _number(value):
    """A JSON integer as a Decimal; any other value as it stands."""
    return Decimal(value) if type(value) is int else value


def _expand(text, prefixes: dict, where: str):
    """A str expanded against the prefixes; any other value as it stands."""
    if not isinstance(text, str):
        return text
    try:
        return ns.resolve_iri(text, prefixes)
    except (InvalidIriError, UnknownPrefixError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _spec(make, prefixes: dict, data, where: str, extra=()):
    """An object as a `make` tuple: each key one of its fields (or extra), each
    field without a default required; IRIs expanded, generators and numbers read."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: must be an object")
    _reject_unknown(data, {*make._fields, *extra}, where)
    args = {}
    for field in make._fields:
        if field in data or field not in make._field_defaults:
            value = _require(data, field, _CONTAINERS.get(field), where)
            if field in _IRI_FIELDS:
                value = _expand(value, prefixes, where)
            elif field in ("generator", "inner"):  # a generator, read by its kind
                kind = _require(value, "kind", str, f"{where}.{field}")
                if kind not in _KINDS:
                    raise ConfigError(f"{where}.{field}: unknown generator kind {kind!r}")
                value = _spec(_KINDS[kind], prefixes, value, f"{where}.{field}", extra={"kind"})
            elif field == "values":
                value = tuple(map(_number, value))
            elif field in _DECIMALS.get(make, ()):
                value = _number(value)
            args[field] = value
    return make(**args)


def _shape(data) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("scenario: top level must be an object")
    _reject_unknown(data, {"prefixes", "start", "tick_seconds", "duration", "seed",
                           "entities", "sensors", "decider"}, "scenario")
    prefixes = dict(_require(data, "prefixes", dict, "scenario"))
    bases = {name: base for name, base in prefixes.items() if isinstance(base, str)}
    entities = _require(data, "entities", dict, "scenario")
    _reject_unknown(entities, {"assets", "places", "twin", "software",
                               "actors", "activators"}, "entities")

    def iri(item, where):  # an entity named by its IRI alone, or by an object holding it
        if isinstance(item, dict):
            _reject_unknown(item, {"iri"}, where)
            item = _require(item, "iri", None, where)
        return _expand(item, bases, where)

    def section(key, read) -> tuple:
        items = entities.get(key, [])
        if not isinstance(items, list):
            raise ConfigError(f"entities.{key}: must be an array")
        return tuple(read(item, f"entities.{key}[{i}]") for i, item in enumerate(items))

    def sensor(item, where):
        spec = _spec(SensorSpec, bases, item, where, extra={"condition_state"})
        condition_state = item.get("condition_state")  # checked here, as no spec holds it
        if condition_state is not None and not isinstance(condition_state, str):
            raise ConfigError(f"{where}: condition_state must be a string")
        return spec._replace(observed_event=item.get("observed_event", spec.measured_type))

    decider = _require(data, "decider", dict, "scenario")
    _reject_unknown(decider, {"iri", "rules"}, "decider")
    rules, diagnostics = parse_rules(_require(decider, "rules", str, "decider"))
    if rules is None:
        findings = "; ".join(d.render() for d in diagnostics)
        raise ConfigError(f"decider.rules: {findings}")
    rules = tuple(rule._replace(actions=tuple(
        action._replace(target=_expand(action.target, bases, f"decider.rules({rule.id})"))
        for action in rule.actions)) for rule in rules)

    twin = entities.get("twin")
    return ScenarioConfig(
        prefixes, *(_require(data, key, None, "scenario")
                    for key in ("start", "tick_seconds", "duration", "seed")),
        assets=section("assets", partial(_spec, AssetSpec, bases)), places=section("places", iri),
        twin=None if twin is None else _spec(TwinSpec, bases, twin, "entities.twin"),
        software=section("software", iri), actors=section("actors", iri),
        activators=section("activators", partial(_spec, ActivatorSpec, bases)),
        sensors=tuple(sensor(item, f"sensors[{i}]") for i, item in
                      enumerate(_require(data, "sensors", list, "scenario"))),
        decider=DeciderSpec(_expand(_require(decider, "iri", None, "decider"), bases, "decider"),
                            rules))


# --- the check: every rule about values ---

def _text(value, where: str, what: str) -> str:
    """value, if it is a str that UTF-8 can encode, as the graph and log files are."""
    try:
        str.encode(value, "utf-8")
    except (TypeError, UnicodeEncodeError):  # not a str; a lone surrogate
        raise ConfigError(f"{where}: {what} must be text UTF-8 can encode, not {value!r}") from None
    return value


def _integer(value, where: str, rule: str, low: int = 1, high: float = math.inf) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value <= high:
        raise ConfigError(f"{where}: {rule}")
    return value


def _typed(value, kind: type, where: str):
    if not isinstance(value, kind):
        raise ConfigError(f"{where}: must be of type {kind.__name__}, not {value!r}")
    return value


def _items(value, where: str, kind: type = object) -> list[tuple[str, object]]:
    """(path, member) for each member, if value is a tuple or list of `kind`."""
    if not isinstance(value, (tuple, list)):
        raise ConfigError(f"{where}: must be a tuple, not {value!r}")
    return [(f"{where}[{i}]", _typed(item, kind, f"{where}[{i}]")) for i, item in enumerate(value)]


def _iri(value, where: str) -> str:
    """value, if it is an IRI the graph text can carry, outside the run namespace."""
    if not ns.carriable(value):
        raise ConfigError(f"{where}: {value!r} is not an absolute IRI the graph text can carry")
    if value.startswith(ns.RUN_IRI):
        raise ConfigError(f"{where}: {value!r} lies under {ns.RUN_IRI}, which is reserved "
                          "for runtime-minted IRIs")
    return _text(value, where, "IRI")


def _declared(value, where: str, field: str, members: set, what: str) -> None:
    if not (isinstance(value, str) and value in members):
        raise ConfigError(f"{where}: {field} {value!r} is not {what}")


def _decimal(value, where: str, what: str) -> None:
    if not isinstance(value, Decimal) or not value.is_finite():
        raise ConfigError(f"{where}: {what} must be a number (a finite Decimal), not {value!r}")


def _check_generator(generator, where: str) -> None:
    if type(generator) not in _DECIMALS:
        raise ConfigError(f"{where}: not a generator: {generator!r}")
    for field in _DECIMALS[type(generator)]:
        _decimal(getattr(generator, field), where, field)
    if isinstance(generator, ListGen):
        values = _items(generator.values, where + ".values")
        if not values:
            raise ConfigError(f"{where}: list generator needs at least one value")
        for path, value in values:
            _decimal(value, path, "a value")
    if isinstance(generator, SineGen):
        _integer(generator.period, where, "sine period must be an integer of at least 1")
    if isinstance(generator, NoisyGen):
        if generator.stddev < 0:
            raise ConfigError(f"{where}: stddev must not be negative")
        _integer(generator.seed, where, "noisy seed must be an integer in [0, 2^64)", 0, MAX_SEED)
        _check_generator(generator.inner, where + ".inner")


def check_scenario(config: ScenarioConfig) -> ScenarioConfig:
    """config, if a scenario file may hold it, else ConfigError: the one statement
    of the rules about values, for loaded and hand-built configs alike. Each message
    names its place by the document's path (sensors[0]: ...), as loading keeps its order."""
    for name, base in _typed(config.prefixes, dict, "prefixes").items():
        if not (isinstance(name, str) and isinstance(base, str) and ns.PREFIX_NAME_RE.match(name)):
            raise ConfigError(f"scenario: bad prefix declaration {name!r}")
        if not ns.carriable(_text(base, "scenario", f"prefix {name!r}")):
            raise ConfigError(f"scenario: prefix {name!r} must map to an absolute IRI")
        if name == ns.RUN_PREFIX and base != ns.RUN_IRI:
            raise ConfigError(f"scenario: prefix {name!r} is reserved for runtime-minted IRIs")
        if name != ns.RUN_PREFIX and base.startswith(ns.RUN_IRI):
            raise ConfigError(f"scenario: prefix {name!r} maps under {ns.RUN_IRI}, kept for 'run'")

    try:
        start = parse_datetime_utc(_text(config.start, "scenario", "start"))
    except ValueError as exc:
        raise ConfigError(f"scenario: bad start: {exc}") from exc
    _integer(config.tick_seconds, "scenario", "tick_seconds must be an integer of at least 1")
    _integer(config.duration, "scenario", "duration must be an integer and must not be negative", 0)
    # in whole seconds (exact, as ticks are); a timedelta of the run could overflow
    headroom = _LATEST - start
    if config.duration * config.tick_seconds > headroom.days * 86400 + headroom.seconds:
        raise ConfigError("scenario: the clock must end by 9999-12-31T23:59:59Z "
                          "(start + duration * tick_seconds)")
    _integer(config.seed, "scenario", "seed must be an integer in [0, 2^64)", 0, MAX_SEED)

    places, software, actors = ({_iri(iri, where) for where, iri in _items(
        getattr(config, key), f"entities.{key}")} for key in ("places", "software", "actors"))
    assets = set()
    for where, asset in _items(config.assets, "entities.assets", AssetSpec):
        assets.add(_iri(asset.iri, where))
        if asset.located_in is not None:
            _declared(asset.located_in, where, "located_in", places, "a declared place")
    if config.twin is not None:
        twin = _typed(config.twin, TwinSpec, "entities.twin")
        _iri(twin.iri, "entities.twin")
        _declared(twin.twin_of, "entities.twin", "twin_of", assets, "a declared asset")
    activators = set()
    for where, activator in _items(config.activators, "entities.activators", ActivatorSpec):
        if _iri(activator.iri, where) in activators:
            raise ConfigError(f"{where}: duplicate activator IRI {activator.iri!r}")
        activators.add(activator.iri)
        _text(activator.action, where, "action")

    seen_locals: dict[str, str] = {}  # local name -> sensor IRI
    for where, sensor in _items(config.sensors, "sensors", SensorSpec):
        iri = _iri(sensor.iri, where)
        local = ns.local_name(iri)
        if local in seen_locals:
            if seen_locals[local] == iri:
                raise ConfigError(f"{where}: duplicate sensor IRI {iri!r}")
            raise ConfigError(f"{where}: sensors {seen_locals[local]!r} and {iri!r} share the "
                              f"local name {local!r}, from which run IRIs are minted")
        seen_locals[local] = iri
        if not _text(sensor.measured_type, where, "measured_type"):
            raise ConfigError(f"{where}: measured_type must not be empty")
        _text(sensor.unit, where, "unit")
        _declared(sensor.software, where, "software", software, "declared")
        if (sensor.positioned_on is None) == (sensor.located_in is None):
            raise ConfigError(f"{where}: exactly one of positioned_on or located_in is required")
        if sensor.positioned_on is not None:
            _declared(sensor.positioned_on, where, "positioned_on", assets, "a declared asset")
        else:
            _declared(sensor.located_in, where, "located_in", places, "a declared place")
        period = _integer(sensor.period, where, "period must be an integer of at least 1")
        _integer(sensor.phase, where, "phase must be an integer in [0, period)", 0, period - 1)
        if not _text(sensor.observed_event, where, "observed_event"):
            raise ConfigError(f"{where}: observed_event must be a non-empty string")
        _check_generator(sensor.generator, where + ".generator")

    decider = _typed(config.decider, DeciderSpec, "decider")
    _iri(decider.iri, "decider")
    targets = {ActionKind.ACTIVATE: (activators, "a declared activator"),
               ActionKind.ALERT: (actors, "a declared actor")}
    ids = set()  # as rule text does, a rule set refuses a repeated id
    for where, rule in _items(decider.rules, "decider.rules", Rule):
        where = f"decider.rules({_text(rule.id, where, 'rule id')})"
        if rule.id in ids:
            raise ConfigError(f"{where}: duplicate rule id")
        ids.add(rule.id)
        _text(rule.measured_type, where, "TYPE")
        if rule.comparator not in COMPARATORS:
            raise ConfigError(f"{where}: unknown comparator {rule.comparator!r}")
        _decimal(rule.threshold, where, "threshold")
        _integer(rule.sustain, where, "FOR takes a positive integer sample count")
        _typed(rule.mode, TriggerMode, where + ".mode")
        for path, action in _items(rule.actions, where + ".actions", Action):
            _typed(action.kind, ActionKind, path + ".kind")
            _declared(action.target, where, f"{action.kind.value} target", *targets[action.kind])
            if action.kind is ActionKind.ALERT:
                _text(action.channel, where, "VIA channel")
            elif action.channel is not None:
                raise ConfigError(f"{where}: ACTIVATE takes no VIA channel, not {action.channel!r}")
        if not rule.actions:
            raise ConfigError(f"{where}: a rule takes at least one action")
    return config
