"""Reactive discrete-event runtime over the scenario clock.

Time advances in integer ticks. Each tick, every due sensor (in expanded IRI
order) samples its generator, wraps the value in a signal, transmits the
signal to the decider, and the decider evaluates its rules. A firing rule
set yields at most one activation event per signal evaluation, whose actions
are then executed as actuation and alert records (actuations first). Steps
only log records: ScenarioRun.fold writes the statements each one implies,
so the run graph is the static graph plus the fold of the log, in log order.

Everything is deterministic: fresh IRIs are minted from the sensor name and
sample index, timestamps are start + tick * tick_seconds, and noise comes
from SplitMix64 streams split per sensor. Equal configs give byte-identical
graph emissions and event logs.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from datetime import timedelta
from decimal import MAX_PREC, ROUND_HALF_EVEN, Context, Decimal

from . import namespaces as ns
from .canon import dumps_canonical, format_datetime_utc, parse_datetime_utc
from .config import (
    ConstantGen,
    Generator,
    ListGen,
    NoisyGen,
    RampGen,
    ScenarioConfig,
    SensorSpec,
    SineGen,
)
from .errors import (
    ActionTargetMissingError,
    ConfigError,
    ScenarioError,
    TwingraphError,
)
from .graph import Graph, Iri
from .ontology import Registry, load_seed
from .rules import Action, ActionKind, evaluate_rule
from .signals import SignalPayload

# --- event records ---

MEASUREMENT = "measurement"
SIGNAL = "signal"
TRANSMISSION = "transmission"
DECISION = "decision"
ACTIVATION = "activation"
ACTUATION = "actuation"
ALERT = "alert"


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One log line; records order totally by (tick, seq)."""

    tick: int
    seq: int
    kind: str
    fields: dict

    def to_json(self) -> str:
        return dumps_canonical({"kind": self.kind, "seq": self.seq,
                                "tick": self.tick, **self.fields})


def render_log(records: list[EventRecord]) -> str:
    """JSON Lines, every line LF-terminated; `twingraph run` streams the same lines."""
    return "".join(record.to_json() + "\n" for record in records)


class StepFailure(ScenarioError):
    """A runtime step failed; partial graph and log are attached."""

    def __init__(self, cause: Exception, graph: Graph, records: list[EventRecord],
                 tick: int):
        super().__init__(f"tick {tick}: {cause}")
        self.cause = cause
        self.graph = graph
        self.records = records
        self.tick = tick


# --- deterministic randomness ---

_MASK = 2 ** 64 - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def splitmix_at(seed: int, index: int) -> int:
    """index-th output of a SplitMix64 stream; random access is O(1)."""
    return mix64((seed + (index + 1) * _GAMMA) & _MASK)


def fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & _MASK
    return h


_QUANTUM = Decimal("1E-12")
# Sums and products at MAX_PREC keep every digit; overflow still traps.
_EXACT = Context(prec=MAX_PREC)


def _as_decimal(x: float) -> Decimal:
    return Decimal(x).quantize(_QUANTUM, rounding=ROUND_HALF_EVEN)


def gaussian_at(seed: int, index: int) -> Decimal:
    """Standard normal draw for a sample index: Box-Muller, cosine branch."""
    u1 = ((splitmix_at(seed, 2 * index) >> 11) + 1) * 2.0 ** -53  # (0, 1]
    u2 = (splitmix_at(seed, 2 * index + 1) >> 11) * 2.0 ** -53  # [0, 1)
    return _as_decimal(math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2))


def generator_value(generator: Generator, index: int, stream_seed: int) -> Decimal:
    """Value of a generator at a sensor's sample index. Exact decimal
    arithmetic throughout; floats are quantized once on entry."""
    if isinstance(generator, ConstantGen):
        return generator.value
    if isinstance(generator, RampGen):
        return _EXACT.add(generator.start, _EXACT.multiply(generator.slope, index))
    if isinstance(generator, SineGen):
        angle = 2.0 * math.pi * (index % generator.period) / generator.period
        return _EXACT.add(generator.mean,
                          _EXACT.multiply(generator.amplitude, _as_decimal(math.sin(angle))))
    if isinstance(generator, ListGen):
        return generator.values[min(index, len(generator.values) - 1)]
    if isinstance(generator, NoisyGen):
        node_seed = mix64(stream_seed ^ generator.seed)
        inner = generator_value(generator.inner, index,
                                mix64(node_seed ^ 0xA5A5A5A5A5A5A5A5))
        return _EXACT.add(inner, _EXACT.multiply(generator.stddev, gaussian_at(node_seed, index)))
    raise TypeError(f"unknown generator {type(generator).__name__}")


# --- scheduling ---

def schedule_due(config: ScenarioConfig, tick: int) -> list[SensorSpec]:
    """Sensors due at a tick: (tick - phase) mod period = 0 and tick >= phase,
    in expanded-IRI order. The order is the config's sensor_order, sorted
    once per config; each tick only filters it."""
    return [s for s in config.sensor_order
            if tick >= s.phase and (tick - s.phase) % s.period == 0]


# --- the run ---

class _SensorState:
    def __init__(self, spec: SensorSpec, run_seed: int):
        self.spec = spec
        self.local = ns.local_name(spec.iri)  # the local name run IRIs are minted from
        self.stream_seed = mix64(run_seed ^ fnv1a64(spec.iri))
        self.next_index = 0


class ScenarioRun:
    """Exclusive owner of one scenario execution: graph, log, counters."""

    def __init__(self, config: ScenarioConfig, registry: Registry | None = None):
        self.config = config
        self.registry = registry if registry is not None else load_seed()
        prefixes = dict(config.prefixes)
        prefixes[ns.RUN_PREFIX] = ns.RUN_IRI
        self.graph = Graph(self.registry, prefixes=prefixes)
        self.records: list[EventRecord] = []
        self._seq = 0
        self.ticks_run = 0
        self._start = parse_datetime_utc(config.start)
        # Each measured type keeps the last sustain+1 values its rules read, but
        # no more than the run can sample, plus one; a type no rule reads keeps none.
        most = len(config.sensors) * config.duration
        sizes = {spec.measured_type: 0 for spec in config.sensors}
        for rule in config.decider.rules:
            kind = rule.measured_type
            sizes[kind] = max(sizes.get(kind, 0), min(rule.sustain, most) + 1)
        self._histories = {kind: deque(maxlen=size) for kind, size in sizes.items()}
        self._activator_actions = {a.iri: a.action for a in config.activators}
        # Observed-event and type nodes by (kind, label), each added on first use.
        self._label_nodes: dict[tuple[str, str], Iri] = {}
        self._iris: dict[str, Iri] = {}  # one Iri per declared entity, by IRI text
        self._minted = Iri(ns.RUN_IRI)  # the node the latest fold minted
        self._build_static()
        self.static_statements = len(self.graph.statements)
        self._sensors = {spec.iri: _SensorState(spec, config.seed) for spec in config.sensors}
        self._clock: tuple[int | None, str] = (None, "")  # the last tick formatted

    def _build_static(self) -> None:
        """Add the scenario's entities, one Iri per IRI text. A config built by
        hand may hold text the graph text cannot carry, so that is refused."""
        g = self.graph
        config = self.config

        def iri(text: str) -> Iri:
            if text not in self._iris:
                if not ns.is_absolute_iri(text) or any(c in text for c in ns.IRI_FORBIDDEN):
                    raise ConfigError(f"{text!r} is not an absolute IRI the graph text can carry")
                self._iris[text] = Iri(text)
            return self._iris[text]

        for place in config.places:
            g.add_entity(iri(place), "E53")
        for asset in config.assets:
            g.add_entity(iri(asset.iri), "HC3")
        for asset in config.assets:
            if asset.located_in is not None:
                g.add_statement(iri(asset.iri), "P55", iri(asset.located_in))
        if config.twin is not None:
            g.add_entity(iri(config.twin.iri), "HC2")
            g.add_statement(iri(config.twin.iri), "HP1", iri(config.twin.twin_of))
        for software in config.software:
            g.add_entity(iri(software), "D14")
        for actor in config.actors:
            g.add_entity(iri(actor), "E39")
        for activator in config.activators:
            g.add_entity(iri(activator.iri), "HC11")
        g.add_entity(iri(config.decider.iri), "HC10")
        for sensor in config.sensors:
            node = iri(sensor.iri)
            g.add_entity(node, "HC9")
            if sensor.positioned_on is not None:
                g.add_statement(node, "HP15", iri(sensor.positioned_on))
            else:
                g.add_statement(node, "P55", iri(sensor.located_in))
            g.add_statement(node, "HP11", iri(sensor.software))

    # --- clock and naming ---

    def timestamp(self, tick: int) -> str:
        """The tick's canonical UTC time; formatted once per tick, as every
        sample of a tick asks for it."""
        if self._clock[0] != tick:
            self._clock = (tick, format_datetime_utc(
                self._start + timedelta(seconds=tick * self.config.tick_seconds)))
        return self._clock[1]

    def _fresh(self, kind: str, sensor_local: str, index: int | str) -> Iri:
        return Iri(f"{ns.RUN_IRI}{kind}/{sensor_local}/{index}")

    def _node(self, text: str) -> Iri:
        # a declared entity's one Iri, else one Iri per minted node: a record names
        # its own minted node and, looked up first, the one the record before it minted
        node = self._iris.get(text) or self._minted
        if node.value != text:
            node = self._minted = Iri(text)
        return node

    def _label_node(self, kind: str, label: str, class_id: str) -> Iri:
        # labels with one slug share a node; add_entity merges the repeat
        node = self._label_nodes.get((kind, label))
        if node is None:
            node = Iri(f"{ns.RUN_IRI}{kind}/{ns.slug(label)}")
            self.graph.add_entity(node, class_id)
            self._label_nodes[kind, label] = node
        return node

    def _record(self, tick: int, kind: str, fields: dict) -> None:
        # folded before it is logged: a record the graph refuses takes no seq
        record = EventRecord(tick, self._seq, kind, fields)
        self.fold(record)
        self._seq += 1
        self.records.append(record)

    def fold(self, record: EventRecord) -> None:
        """Write the statements one record implies (docs/FORMAT.md), each
        through the graph's checked insert."""
        g = self.graph
        fields = record.fields
        kind = record.kind
        if kind == MEASUREMENT:
            measurement = g.add_entity(self._node(fields["measurement"]), "HC13")
            g.add_statement(measurement, "L12", self._node(fields["sensor"]))
            spec = self._sensors[fields["sensor"]].spec
            g.add_statement(measurement, "O24", self._label_node("event", spec.observed_event, "E5"))
            g.add_statement(measurement, "L17", self._label_node("type", spec.measured_type, "E55"))
        elif kind == SIGNAL:
            measurement = self._node(fields["measurement"])
            g.add_statement(measurement, "L20", g.add_entity(self._node(fields["signal"]), "HC12"))
        elif kind == TRANSMISSION:
            g.add_statement(self._node(fields["signal"]), "HP12", self._node(fields["decider"]))
        elif kind == ACTIVATION:
            activation = g.add_entity(self._node(fields["activation"]), "HC14")
            g.add_statement(self._node(fields["decider"]), "O13", activation)
        elif kind == ACTUATION:
            g.add_statement(self._node(fields["activation"]), "HP13", self._node(fields["activator"]))
        elif kind == ALERT:
            g.add_statement(self._node(fields["activation"]), "HP14", self._node(fields["actor"]))

    # --- pipeline steps ---

    def sample(self, spec: SensorSpec, tick: int):
        """Run one sampling act and log its measurement."""
        state = self._sensors.get(spec.iri)
        if state is None:  # a spec outside the config; its measurement's fold refuses it
            state = self._sensors[spec.iri] = _SensorState(spec, self.config.seed)
        index = state.next_index
        state.next_index += 1
        try:
            value = generator_value(spec.generator, index, state.stream_seed)
        except ArithmeticError as exc:
            raise ScenarioError(f"sensor {spec.iri} sample {index}: generator value "
                                f"out of range ({type(exc).__name__})") from exc
        measurement = self._fresh("m", state.local, index)
        self._record(tick, MEASUREMENT, {
            "measurement": measurement.value,
            "measuredType": spec.measured_type,
            "sensor": spec.iri,
            "timestamp": self.timestamp(tick),
            "unit": spec.unit,
            "value": value,
        })
        return measurement, index, value

    def make_signal(self, measurement: Iri, spec: SensorSpec, index: int,
                    value: Decimal, tick: int):
        """Wrap a measurement's value in a fresh signal and log it."""
        signal = self._fresh("sig", self._sensors[spec.iri].local, index)
        payload = SignalPayload(
            signal_id=signal.value,
            sensor_id=spec.iri,
            timestamp=self.timestamp(tick),
            value=value,
            unit=spec.unit,
            measured_type=spec.measured_type,
        )
        self._record(tick, SIGNAL, {
            "measurement": measurement.value,
            "payload": payload.canonical(),
            "signal": signal.value,
        })
        return signal, payload

    def transmit(self, signal: Iri, tick: int) -> None:
        """Deliver a signal to the decider and log it."""
        self._record(tick, TRANSMISSION, {
            "decider": self.config.decider.iri,
            "signal": signal.value,
        })

    def decide(self, payload: SignalPayload,
               tick: int) -> tuple[Iri, list[tuple[Action, Iri]]] | None:
        """Evaluate rules against the signal; at most one activation event.

        Returns it with its (action, target) pairs, one per kind and target
        in first-fired order (the first ALERT's channel wins). Each target
        is a declared entity's Iri, checked for its type before anything is
        written, so a missing one aborts the step with the graph untouched.
        """
        history = self._histories[payload.measured_type]
        history.append(payload.value)
        fired_rules: list[str] = []
        fired_actions = []
        for rule in self.config.decider.rules:
            if rule.measured_type != payload.measured_type:
                continue
            decision = evaluate_rule(rule, history)
            if decision.fired:
                fired_rules.append(rule.id)
                fired_actions.extend(decision.actions)

        self._record(tick, DECISION, {
            "decider": self.config.decider.iri,
            "fired": bool(fired_rules),
            "firedRules": fired_rules,
            "measuredType": payload.measured_type,
            "signal": payload.signal_id,
            "value": payload.value,
        })
        if not fired_rules:
            return None

        resolved: dict[tuple[ActionKind, str], tuple[Action, Iri]] = {}
        for action in fired_actions:
            target = self._iris.get(action.target)
            wanted = "HC11" if action.kind is ActionKind.ACTIVATE else "E39"
            if target is None or not self.registry.falls_under(
                    self.graph.nodes[target.value], wanted):
                raise ActionTargetMissingError(
                    f"action target {action.target} is missing or not typed {wanted}")
            resolved.setdefault((action.kind, target.value), (action, target))

        activation = self._fresh("act", ns.local_name(payload.sensor_id),
                                 payload.signal_id.rsplit("/", 1)[1])
        self._record(tick, ACTIVATION, {
            "activation": activation.value,
            "decider": self.config.decider.iri,
            "firedRules": fired_rules,
            "signal": payload.signal_id,
        })
        return activation, list(resolved.values())

    def execute_activation(self, activation: Iri,
                           actions: list[tuple[Action, Iri]], tick: int) -> None:
        """Log actuation, then alert records, for decide's actions; their fold
        links the activation to each target (HP13, HP14)."""
        for action, target in actions:
            if action.kind is ActionKind.ACTIVATE:
                self._record(tick, ACTUATION, {
                    "action": self._activator_actions.get(target.value, ""),
                    "activation": activation.value,
                    "activator": target.value,
                })
        for action, target in actions:
            if action.kind is ActionKind.ALERT:
                self._record(tick, ALERT, {
                    "activation": activation.value,
                    "actor": target.value,
                    "channel": action.channel or "",
                })

    # --- whole runs ---

    def run(self, until: int | None = None) -> None:
        if until is not None and until < 0:
            raise ValueError(f"until must not be negative, got {until}")
        ticks = self.config.duration if until is None else min(self.config.duration, until)
        self.ticks_run = ticks
        for tick in range(ticks):
            for spec in schedule_due(self.config, tick):
                try:
                    measurement, index, value = self.sample(spec, tick)
                    signal, payload = self.make_signal(measurement, spec, index,
                                                       value, tick)
                    self.transmit(signal, tick)
                    fired = self.decide(payload, tick)
                    if fired is not None:
                        self.execute_activation(*fired, tick)
                except TwingraphError as exc:
                    raise StepFailure(exc, self.graph, self.records, tick) from exc

    def summary(self) -> dict[str, int]:
        counts = Counter(record.kind for record in self.records)
        return {
            "ticks": self.ticks_run,
            "measurements": counts[MEASUREMENT],
            "signals": counts[SIGNAL],
            "activations": counts[ACTIVATION],
            "alerts": counts[ALERT],
        }


def run_scenario(config: ScenarioConfig, until: int | None = None,
                 registry: Registry | None = None) -> ScenarioRun:
    """Build the static graph and run the clock; deterministic end to end."""
    run = ScenarioRun(config, registry)
    run.run(until)
    return run
