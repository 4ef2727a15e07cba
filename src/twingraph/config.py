"""Scenario configuration: JSON loading, validation, and typed specs.

A scenario names the static world (assets, places, twin, software, actors,
activators), the sensors with their signal generators, one decider with a
rule block, and the clock (start, tick_seconds, duration, seed). The JSON
schema ships in docs/scenario.schema.json; validation here is strict, and
every finding raises ConfigError so the CLI can exit with a usage error.

Numbers are read with Decimal parsing so generator parameters and
thresholds never pass through binary floating point.
"""

from __future__ import annotations

import json
from decimal import Decimal
from typing import NamedTuple

from . import namespaces as ns
from .canon import parse_datetime_utc
from .errors import ConfigError, InvalidIriError, UnknownPrefixError
from .rules import ActionKind, Rule, parse_rules

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


def _require(data: dict, key: str, kind, where: str):
    if key not in data:
        raise ConfigError(f"{where}: missing required field {key!r}")
    value = data[key]
    if kind is int and (not isinstance(value, int) or isinstance(value, bool)):
        raise ConfigError(f"{where}: field {key!r} must be an integer")
    if kind in _TYPE_NAMES and not isinstance(value, kind):
        raise ConfigError(f"{where}: field {key!r} must be {_TYPE_NAMES[kind]}")
    return value


def _reject_unknown(data: dict, allowed: set[str], where: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown field(s) {sorted(unknown)}")


def _object(item, allowed: set[str], where: str) -> dict:
    if not isinstance(item, dict):
        raise ConfigError(f"{where}: must be an object")
    _reject_unknown(item, allowed, where)
    return item


def _decimal(value, where: str, key: str) -> Decimal:
    if isinstance(value, bool) or not isinstance(value, (int, Decimal)):
        raise ConfigError(f"{where}: field {key!r} must be a number")
    return Decimal(value)


def _generator(data: dict, where: str) -> Generator:
    kind = _require(data, "kind", str, where)
    if kind == "constant":
        _reject_unknown(data, {"kind", "value"}, where)
        return ConstantGen(_decimal(_require(data, "value", None, where), where, "value"))
    if kind == "ramp":
        _reject_unknown(data, {"kind", "start", "slope"}, where)
        return RampGen(_decimal(_require(data, "start", None, where), where, "start"),
                       _decimal(_require(data, "slope", None, where), where, "slope"))
    if kind == "sine":
        _reject_unknown(data, {"kind", "mean", "amplitude", "period"}, where)
        period = _require(data, "period", int, where)
        if period < 1:
            raise ConfigError(f"{where}: sine period must be at least 1")
        return SineGen(_decimal(_require(data, "mean", None, where), where, "mean"),
                       _decimal(_require(data, "amplitude", None, where), where, "amplitude"),
                       period)
    if kind == "list":
        _reject_unknown(data, {"kind", "values"}, where)
        values = _require(data, "values", list, where)
        if not values:
            raise ConfigError(f"{where}: list generator needs at least one value")
        return ListGen(tuple(_decimal(v, where, "values") for v in values))
    if kind == "noisy":
        _reject_unknown(data, {"kind", "inner", "stddev", "seed"}, where)
        stddev = _decimal(_require(data, "stddev", None, where), where, "stddev")
        if stddev < 0:
            raise ConfigError(f"{where}: stddev must not be negative")
        seed = data.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= MAX_SEED:
            raise ConfigError(f"{where}: noisy seed must be an integer in [0, 2^64)")
        return NoisyGen(_generator(_require(data, "inner", dict, where), where + ".inner"),
                        stddev, seed)
    raise ConfigError(f"{where}: unknown generator kind {kind!r}")


def build_scenario(data) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("scenario: top level must be an object")
    _reject_unknown(data, {"prefixes", "start", "tick_seconds", "duration", "seed",
                           "entities", "sensors", "decider"}, "scenario")

    prefixes = dict(_require(data, "prefixes", dict, "scenario"))
    for name, iri in prefixes.items():
        if not isinstance(iri, str) or not ns.PREFIX_NAME_RE.match(name):
            raise ConfigError(f"scenario: bad prefix declaration {name!r}")
        if not ns.carriable(iri):
            raise ConfigError(f"scenario: prefix {name!r} must map to an absolute IRI")
        if name == ns.RUN_PREFIX and iri != ns.RUN_IRI:
            raise ConfigError(f"scenario: prefix {ns.RUN_PREFIX!r} is reserved "
                              "for runtime-minted IRIs")
        if name != ns.RUN_PREFIX and iri.startswith(ns.RUN_IRI):
            raise ConfigError(f"scenario: prefix {name!r} maps under {ns.RUN_IRI}, kept for 'run'")

    def expand(text, where):
        if not isinstance(text, str):
            raise ConfigError(f"{where}: IRI must be a string")
        try:
            iri = ns.resolve_iri(text, prefixes)
        except (InvalidIriError, UnknownPrefixError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        if iri.startswith(ns.RUN_IRI):
            raise ConfigError(f"{where}: {text!r} expands under {ns.RUN_IRI}, which is "
                              "reserved for runtime-minted IRIs")
        return iri

    def declared(text, where, field, members, what):
        """Expand a reference that must name a member, quoting it as written."""
        iri = expand(text, where)
        if iri not in members:
            raise ConfigError(f"{where}: {field} {text!r} is not {what}")
        return iri

    start = _require(data, "start", str, "scenario")
    try:
        start_moment = parse_datetime_utc(start)
    except ValueError as exc:
        raise ConfigError(f"scenario: bad start: {exc}") from exc

    tick_seconds = _require(data, "tick_seconds", int, "scenario")
    if tick_seconds < 1:
        raise ConfigError("scenario: tick_seconds must be at least 1")
    duration = _require(data, "duration", int, "scenario")
    if duration < 0:
        raise ConfigError("scenario: duration must not be negative")
    # in whole seconds (exact, as ticks are); a timedelta of the run could overflow
    headroom = _LATEST - start_moment
    if duration * tick_seconds > headroom.days * 86400 + headroom.seconds:
        raise ConfigError("scenario: the clock must end by 9999-12-31T23:59:59Z "
                          "(start + duration * tick_seconds)")
    seed = _require(data, "seed", int, "scenario")
    if not 0 <= seed <= MAX_SEED:
        raise ConfigError("scenario: seed must be an integer in [0, 2^64)")

    entities = _require(data, "entities", dict, "scenario")
    _reject_unknown(entities, {"assets", "places", "twin", "software",
                               "actors", "activators"}, "entities")

    def section(key) -> list:
        items = entities.get(key, [])
        if not isinstance(items, list):
            raise ConfigError(f"entities.{key}: must be an array")
        return items

    def iri_list(key) -> tuple[str, ...]:
        out = []
        for i, item in enumerate(section(key)):
            where = f"entities.{key}[{i}]"
            if isinstance(item, dict):
                _reject_unknown(item, {"iri"}, where)
                item = _require(item, "iri", str, where)
            out.append(expand(item, where))
        return tuple(out)

    places = iri_list("places")
    software = iri_list("software")
    actors = iri_list("actors")
    place_set, software_set, actor_set = set(places), set(software), set(actors)

    assets = []
    for i, item in enumerate(section("assets")):
        where = f"entities.assets[{i}]"
        _object(item, {"iri", "located_in"}, where)
        iri = expand(_require(item, "iri", str, where), where)
        located_in = item.get("located_in")
        if located_in is not None:
            located_in = declared(located_in, where, "located_in", place_set,
                                  "a declared place")
        assets.append(AssetSpec(iri, located_in))
    asset_set = {a.iri for a in assets}

    twin = None
    if entities.get("twin") is not None:
        where = "entities.twin"
        item = _object(entities["twin"], {"iri", "twin_of"}, where)
        iri = _require(item, "iri", str, where)
        twin_of = _require(item, "twin_of", str, where)
        twin = TwinSpec(expand(iri, where),
                        declared(twin_of, where, "twin_of", asset_set, "a declared asset"))

    activators = []
    activator_set = set()
    for i, item in enumerate(section("activators")):
        where = f"entities.activators[{i}]"
        _object(item, {"iri", "action"}, where)
        iri = _require(item, "iri", str, where)
        expanded = expand(iri, where)
        if expanded in activator_set:
            raise ConfigError(f"{where}: duplicate activator IRI {iri!r}")
        activator_set.add(expanded)
        activators.append(ActivatorSpec(expanded, _require(item, "action", str, where)))

    sensors = []
    seen_locals: dict[str, tuple[str, str]] = {}  # local name -> (IRI text, expanded)
    for i, item in enumerate(_require(data, "sensors", list, "scenario")):
        where = f"sensors[{i}]"
        _object(item, {"iri", "measured_type", "unit", "software", "generator",
                       "positioned_on", "located_in", "period", "phase",
                       "observed_event", "condition_state"}, where)
        iri = _require(item, "iri", str, where)
        expanded = expand(iri, where)
        local = ns.local_name(expanded)
        if local in seen_locals:
            other, other_expanded = seen_locals[local]
            if other_expanded == expanded:
                raise ConfigError(f"{where}: duplicate sensor IRI {iri!r}")
            raise ConfigError(f"{where}: sensors {other!r} and {iri!r} share the local "
                              f"name {local!r}, from which run IRIs are minted")
        seen_locals[local] = (iri, expanded)
        measured_type = _require(item, "measured_type", str, where)
        if not measured_type:
            raise ConfigError(f"{where}: measured_type must not be empty")
        unit = _require(item, "unit", str, where)
        sw = declared(_require(item, "software", str, where), where, "software",
                      software_set, "declared")
        positioned_on = item.get("positioned_on")
        located_in = item.get("located_in")
        if (positioned_on is None) == (located_in is None):
            raise ConfigError(f"{where}: exactly one of positioned_on or located_in "
                              "is required")
        if positioned_on is not None:
            positioned_on = declared(positioned_on, where, "positioned_on", asset_set,
                                     "a declared asset")
        else:
            located_in = declared(located_in, where, "located_in", place_set,
                                  "a declared place")
        period = item.get("period", 1)
        if not isinstance(period, int) or isinstance(period, bool) or period < 1:
            raise ConfigError(f"{where}: period must be an integer of at least 1")
        phase = item.get("phase", 0)
        if not isinstance(phase, int) or isinstance(phase, bool) \
                or not 0 <= phase < period:
            raise ConfigError(f"{where}: phase must be an integer in [0, period)")
        condition_state = item.get("condition_state")  # checked, but nothing reads it
        if condition_state is not None and not isinstance(condition_state, str):
            raise ConfigError(f"{where}: condition_state must be a string")
        observed_event = item.get("observed_event", measured_type)
        if not isinstance(observed_event, str) or not observed_event:
            raise ConfigError(f"{where}: observed_event must be a non-empty string")
        generator = _generator(_require(item, "generator", dict, where),
                               where + ".generator")
        sensors.append(SensorSpec(expanded, measured_type, unit, sw, generator,
                                  positioned_on, located_in, period, phase,
                                  observed_event))

    decider_data = _require(data, "decider", dict, "scenario")
    _reject_unknown(decider_data, {"iri", "rules"}, "decider")
    decider_iri = expand(_require(decider_data, "iri", str, "decider"), "decider")
    rules_text = _require(decider_data, "rules", str, "decider")
    rules, diagnostics = parse_rules(rules_text)
    if rules is None:
        findings = "; ".join(d.render() for d in diagnostics)
        raise ConfigError(f"decider.rules: {findings}")
    targets = {ActionKind.ACTIVATE: (activator_set, "a declared activator"),
               ActionKind.ALERT: (actor_set, "a declared actor")}
    for n, rule in enumerate(rules):
        where = f"decider.rules({rule.id})"
        actions = []
        for action in rule.actions:
            target = declared(action.target, where, f"{action.kind.value} target",
                              *targets[action.kind])
            actions.append(action._replace(target=target))
        rules[n] = rule._replace(actions=tuple(actions))

    return ScenarioConfig(
        prefixes=prefixes, start=start, tick_seconds=tick_seconds,
        duration=duration, seed=seed, assets=tuple(assets), places=places,
        twin=twin, software=software, actors=actors,
        activators=tuple(activators), sensors=tuple(sensors),
        decider=DeciderSpec(decider_iri, tuple(rules)))
