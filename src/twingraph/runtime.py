"""Reactive discrete-event runtime over the scenario clock.

Time advances in integer ticks. Each tick, every due sensor (in expanded IRI
order) samples its generator, wraps the sample in a signal, transmits the
signal to the decider, and the decider evaluates its rules on that sample.
Each step takes a sensor and a tick, nothing more: the sensor's run state
names the step its sample waits for, and a step called out of that order is
refused before it writes anything. A firing rule set yields at most one
activation event per signal evaluation, whose actions are then executed as
actuation and alert records (actuations first). Steps only log records:
ScenarioRun.fold writes the statements each one implies, so the run graph is
the static graph plus the fold of the log, in log order. FIELDS names each
kind's fields once: a record holds its values in that order, by position, and
render_log fills its row's template, which holds the kind and the LF, in one %.

Everything is deterministic: fresh IRIs are minted from the sensor name and
sample index, timestamps are start + tick * tick_seconds, and noise comes
from SplitMix64 streams split per sensor. Equal configs give byte-identical
graph emissions and event logs.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from datetime import timedelta
from decimal import MAX_PREC, ROUND_HALF_EVEN, Context, Decimal
from typing import NamedTuple

from . import namespaces as ns
from .canon import (BOOL_TEXT, canonical_decimal, encode_text, format_datetime_utc,
                    object_template, parse_datetime_utc)
from .config import (
    ConstantGen,
    Generator,
    ListGen,
    NoisyGen,
    RampGen,
    ScenarioConfig,
    SensorSpec,
    SineGen,
    check_scenario,
)
from .errors import ScenarioError, TwingraphError, UnknownObjectError
from .graph import Graph, Iri
from .ontology import Registry, load_seed
from .rules import Action, ActionKind, Rule, evaluate_rule

_new = tuple.__new__  # a record without the NamedTuple's Python-level __new__ frame

# --- event records ---

MEASUREMENT = "measurement"
SIGNAL = "signal"
TRANSMISSION = "transmission"
DECISION = "decision"
ACTIVATION = "activation"
ACTUATION = "actuation"
ALERT = "alert"

# Each kind's fields in key order (docs/FORMAT.md); every line also has its kind and _HEAD.
FIELDS = {
    MEASUREMENT: ("measuredType", "measurement", "sensor", "timestamp", "unit", "value"),
    SIGNAL: ("measurement", "payload", "signal"),
    TRANSMISSION: ("decider", "signal"),
    DECISION: ("decider", "fired", "firedRules", "measuredType", "signal", "value"),
    ACTIVATION: ("activation", "decider", "firedRules", "signal"),
    ACTUATION: ("action", "activation", "activator"),
    ALERT: ("activation", "actor", "channel"),
}
PAYLOAD_FIELDS = ("measuredType", "sensorId", "signalId", "timestamp", "unit", "value")  # sorted
_HEAD = ("seq", "tick")  # and the kind, in each kind's template
(_MEASUREMENT_LINE, _SIGNAL_LINE, _TRANSMISSION_LINE, _DECISION_LINE, _ACTIVATION_LINE,
 _ACTUATION_LINE, _ALERT_LINE) = [object_template(_HEAD + row, kind) for kind, row in FIELDS.items()]
_PAYLOAD = object_template(PAYLOAD_FIELDS)

# kind -> fold's (subject, property, object, minted object's class), terms as row positions
_LINKS = {SIGNAL: (0, "L20", 2, "HC12"), TRANSMISSION: (1, "HP12", 0, None),
          ACTIVATION: (1, "O13", 0, "HC14"), ACTUATION: (1, "HP13", 2, None),
          ALERT: (0, "HP14", 1, None)}


class EventRecord(NamedTuple):
    """One log line; records order totally by (tick, seq). `values` is a tuple in
    FIELDS[kind] order, and `fields` a dict of them built on each read, not a store."""

    tick: int
    seq: int
    kind: str
    values: tuple
    fields = property(lambda self: dict(zip(FIELDS[self.kind], self.values, strict=True)))


def render_log(records: list[EventRecord], out=None) -> str | None:
    """JSON Lines, every line LF-terminated: returned, or written to the text
    stream `out` line by line, as `twingraph run --log` writes them. Each line
    fills its kind's template in one %, by row position. A record is refused before
    its line is made: an unknown kind (KeyError), a count (ValueError), no tuple or
    a type the run does not write there (TypeError; a str or Decimal subclass is its base)."""
    lines = _lines(records)
    return "".join(lines) if out is None else out.writelines(lines)


def _lines(records):  # each template takes its row's values, seq and tick in key order
    text, decimal = encode_text, canonical_decimal
    for tick, seq, kind, values in records:
        if type(values) is not tuple or type(seq) is not int or type(tick) is not int:
            raise TypeError(f"a record holds int seq and tick and a tuple, not {values!r}")
        if kind == MEASUREMENT:
            m_type, m, sensor, time, unit, value = values
            yield _MEASUREMENT_LINE % (text(m_type), text(m), text(sensor), seq, tick, text(time),
                                       text(unit), decimal(value))
        elif kind == SIGNAL:
            m, payload, signal = values
            yield _SIGNAL_LINE % (text(m), text(payload), seq, text(signal), tick)
        elif kind == TRANSMISSION:
            decider, signal = values
            yield _TRANSMISSION_LINE % (text(decider), seq, text(signal), tick)
        elif kind == DECISION:
            decider, fired, rules, m_type, signal, value = values
            if type(fired) is not bool or type(rules) is not tuple:
                raise TypeError(f"a decision holds a bool and a tuple, not {fired!r}, {rules!r}")
            yield _DECISION_LINE % (text(decider), BOOL_TEXT[fired], "[" + ",".join(map(
                text, rules)) + "]", text(m_type), seq, text(signal), tick, decimal(value))
        elif kind == ACTIVATION:
            act, decider, rules, signal = values
            if type(rules) is not tuple:
                raise TypeError(f"an activation holds a tuple of rules, not {rules!r}")
            yield _ACTIVATION_LINE % (text(act), text(decider), "[" + ",".join(map(
                text, rules)) + "]", seq, text(signal), tick)
        elif kind == ACTUATION:
            action, act, activator = values
            yield _ACTUATION_LINE % (text(action), text(act), text(activator), seq, tick)
        elif kind == ALERT:
            act, actor, channel = values
            yield _ALERT_LINE % (text(act), text(actor), text(channel), seq, tick)
        else:
            raise KeyError(kind)


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
    sorted by expanded IRI each call, so no order can go stale."""
    return sorted((s for s in config.sensors
                   if tick >= s.phase and (tick - s.phase) % s.period == 0),
                  key=lambda s: s.iri)


# --- the run ---

class _SensorState:
    def __init__(self, spec: SensorSpec, run_seed: int):
        self.spec = spec
        self.local = ns.local_name(spec.iri)  # the local name run IRIs are minted from
        self.stream_seed = mix64(run_seed ^ fnv1a64(spec.iri))
        self.next_index = 0
        self.waits = "sample"  # the step its sample waits for, in run()'s order
        self.sample: tuple[int, Decimal, str] | None = None  # (index, value, timestamp)
        self.signal = ""  # the sample's signal IRI, once made: one str for each record naming it
        self.activation: tuple[Iri, list[tuple[Action, Iri]]] | None = None  # decide's, to execute


class ScenarioRun:
    """Exclusive owner of one scenario execution: graph, log, counters."""

    def __init__(self, config: ScenarioConfig, registry: Registry | None = None):
        self.config = check_scenario(config)  # a config built by hand meets a file's rules
        self.registry = registry if registry is not None else load_seed()
        prefixes = dict(config.prefixes)
        prefixes[ns.RUN_PREFIX] = ns.RUN_IRI
        self.graph = Graph(self.registry, prefixes=prefixes)
        self.records: list[EventRecord] = []
        self._seq = 0
        self.ticks_run = 0  # ticks finished; the next run() goes on from here
        self._aborted = False
        self._start = parse_datetime_utc(config.start)
        # Each measured type keeps the last sustain+1 values its rules read, but
        # no more than the run can sample, plus one; a type no rule reads keeps none.
        most = len(config.sensors) * config.duration
        sizes = {spec.measured_type: 0 for spec in config.sensors}
        self._rules: dict[str, list[Rule]] = {}  # each measured type's rules, in rule order
        self._activator_actions = {a.iri: a.action for a in config.activators}
        for rule in config.decider.rules:
            kind = rule.measured_type
            sizes[kind] = max(sizes.get(kind, 0), min(rule.sustain, most) + 1)
            self._rules.setdefault(kind, []).append(rule)
        self._histories = {kind: deque(maxlen=size) for kind, size in sizes.items()}
        # Observed-event and type nodes by (kind, label), each added on first use.
        self._label_nodes: dict[tuple[str, str], Iri] = {}
        self._iris: dict[str, Iri] = {}  # one Iri per declared entity, by IRI text
        self._minted = Iri(ns.RUN_IRI)  # the node the latest fold minted
        self._sensors = {spec.iri: _SensorState(spec, config.seed) for spec in config.sensors}
        self._build_static()
        self.static_statements = len(self.graph.statements)
        self._clock: tuple[int | None, str] = (None, "")  # the last tick formatted

    def _build_static(self) -> None:
        """Add the scenario's entities, one Iri per IRI text."""
        g = self.graph
        config = self.config

        def iri(text: str) -> Iri:
            return self._iris.setdefault(text, Iri(text))

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

    def _fresh(self, kind: str, sensor_local: str, index: int) -> Iri:
        return _new(Iri, (f"{ns.RUN_IRI}{kind}/{sensor_local}/{index}",))

    def _node(self, text: str) -> Iri:
        # a declared entity's one Iri, else one Iri per minted node: a record names
        # its own minted node and, looked up first, the one the record before it minted
        node = self._iris.get(text) or self._minted
        if node.value != text:
            node = self._minted = _new(Iri, (text,))
        return node

    def _label_node(self, kind: str, label: str, class_id: str) -> Iri:
        # labels with one slug share a node; add_entity merges the repeat
        node = self._label_nodes.get((kind, label))
        if node is None:
            node = _new(Iri, (f"{ns.RUN_IRI}{kind}/{ns.slug(label)}",))
            self.graph.add_entity(node, class_id)
            self._label_nodes[kind, label] = node
        return node

    def _record(self, tick: int, kind: str, *values) -> None:
        # folded before it is logged: a record fold refuses takes no seq
        record = _new(EventRecord, (tick, self._seq, kind, values))
        self.fold(record)
        self._seq += 1
        self.records.append(record)

    def fold(self, record: EventRecord) -> None:
        """Write the statements one record implies (docs/FORMAT.md), each
        through the graph's checked insert, reading its values by row position.
        A record off the table (unknown kind, wrong count) is refused first."""
        g = self.graph
        kind, values = record.kind, record.values
        if len(values) != len(FIELDS[kind]):
            raise ValueError(f"a {kind} record holds {len(FIELDS[kind])} values, not {len(values)}")
        if kind == MEASUREMENT:
            _, measurement, sensor = values[:3]
            state = self._sensors.get(sensor)
            if state is None:  # checked first, so a refused record writes nothing
                raise UnknownObjectError(f"unknown sensor {sensor}")
            spec = state.spec
            measurement = g.add_entity(self._node(measurement), "HC13")
            g.add_statement(measurement, "L12", self._node(sensor))
            g.add_statement(measurement, "O24", self._label_node("event", spec.observed_event, "E5"))
            g.add_statement(measurement, "L17", self._label_node("type", spec.measured_type, "E55"))
        elif kind in _LINKS:
            at_subject, property_id, at_object, class_id = _LINKS[kind]
            subject = self._node(values[at_subject])  # first: a measurement minted it
            node = self._node(values[at_object])
            before = g.nodes.get(node.value)
            if class_id is not None:
                g.add_entity(node, class_id)
            try:
                g.add_statement(subject, property_id, node)
            except TwingraphError:  # its types go back: a refused record writes nothing
                if before is None:
                    g.nodes.pop(node.value, None)
                else:
                    g.nodes[node.value] = before
                raise

    # --- pipeline steps ---

    def _waiting(self, spec: SensorSpec, step: str) -> _SensorState:
        """The run state of a config sensor whose sample waits for `step`, or a refusal."""
        if not isinstance(spec, SensorSpec):  # an Iri or IRI text names no config sensor
            raise UnknownObjectError(f"not a config sensor: {spec!r}")
        state = self._sensors.get(spec.iri)
        if state is None:
            raise UnknownObjectError(f"unknown sensor {spec.iri}")
        if state.waits != step:
            raise UnknownObjectError(f"sensor {spec.iri} has no sample waiting for {step}: "
                                     f"its next step is {state.waits}")
        return state

    def sample(self, spec: SensorSpec, tick: int) -> None:
        """Run one sampling act of a config sensor and log its measurement;
        the sample then waits for make_signal."""
        state = self._waiting(spec, "sample")
        spec, index = state.spec, state.next_index
        try:
            value = generator_value(spec.generator, index, state.stream_seed)
        except ArithmeticError as exc:
            raise ScenarioError(f"sensor {spec.iri} sample {index}: generator value "
                                f"out of range ({type(exc).__name__})") from exc
        timestamp = self.timestamp(tick)
        self._record(tick, MEASUREMENT, spec.measured_type,
                     self._fresh("m", state.local, index).value, spec.iri, timestamp,
                     spec.unit, value)
        state.next_index += 1
        state.sample = (index, value, timestamp)
        state.waits = "make_signal"

    def make_signal(self, spec: SensorSpec, tick: int) -> Iri:
        """Wrap the sensor's sample in a fresh signal, log it and return it."""
        state = self._waiting(spec, "make_signal")
        spec, (index, value, timestamp) = state.spec, state.sample
        signal = self._fresh("sig", state.local, index)
        payload = _PAYLOAD % (encode_text(spec.measured_type), encode_text(spec.iri),
                              encode_text(signal.value), encode_text(timestamp),
                              encode_text(spec.unit), canonical_decimal(value))
        self._record(tick, SIGNAL, self._fresh("m", state.local, index).value, payload,
                     signal.value)
        state.signal = signal.value
        state.waits = "transmit"
        return signal

    def transmit(self, spec: SensorSpec, tick: int) -> None:
        """Deliver the sensor's signal to the decider and log it."""
        state = self._waiting(spec, "transmit")
        self._record(tick, TRANSMISSION, self.config.decider.iri, state.signal)
        state.waits = "decide"

    def decide(self, spec: SensorSpec, tick: int) -> bool:
        """Evaluate the rules of the sensor's measured type on its sample and log
        the decision; returns whether it also logged an activation, which keeps
        its (action, target) pairs for execute_activation: one per kind and
        target in first-fired order (the first ALERT's channel wins)."""
        state = self._waiting(spec, "decide")
        index, value, _ = state.sample
        measured_type = state.spec.measured_type
        history = self._histories[measured_type]
        history.append(value)
        fired = [rule for rule in self._rules.get(measured_type, ()) if evaluate_rule(rule, history)]
        fired_rules = tuple(rule.id for rule in fired)  # one immutable value for both records
        self._record(tick, DECISION, self.config.decider.iri, bool(fired_rules), fired_rules,
                     measured_type, state.signal, value)
        state.waits = "sample"  # the sample is spent
        if not fired_rules:
            return False
        resolved: dict[tuple[ActionKind, str], tuple[Action, Iri]] = {}
        for action in (action for rule in fired for action in rule.actions):
            resolved.setdefault((action.kind, action.target),
                                (action, self._iris[action.target]))
        activation = self._fresh("act", state.local, index)
        self._record(tick, ACTIVATION, activation.value, self.config.decider.iri, fired_rules,
                     state.signal)
        state.activation = (activation, list(resolved.values()))
        state.waits = "execute_activation"
        return True

    def execute_activation(self, spec: SensorSpec, tick: int) -> None:
        """Log actuation, then alert records, for the activation decide kept;
        their fold links the activation to each target (HP13, HP14)."""
        state = self._waiting(spec, "execute_activation")
        activation, actions = state.activation
        for action, target in actions:
            if action.kind is ActionKind.ACTIVATE:
                self._record(tick, ACTUATION, self._activator_actions[target.value],
                             activation.value, target.value)
        for action, target in actions:
            if action.kind is ActionKind.ALERT:
                self._record(tick, ALERT, activation.value, target.value, action.channel or "")
        state.waits = "sample"

    # --- whole runs ---

    def run(self, until: int | None = None) -> None:
        """Run the clock on from ticks_run to `until` or the end; not after a StepFailure."""
        if until is not None and until < 0:
            raise ValueError(f"until must not be negative, got {until}")
        if self._aborted:
            raise ScenarioError("the run aborted; it cannot go on")
        ticks = self.config.duration if until is None else min(self.config.duration, until)
        for tick in range(self.ticks_run, ticks):
            for spec in schedule_due(self.config, tick):
                try:
                    self.sample(spec, tick)
                    self.make_signal(spec, tick)
                    self.transmit(spec, tick)
                    if self.decide(spec, tick):
                        self.execute_activation(spec, tick)
                except TwingraphError as exc:
                    self._aborted = True
                    raise StepFailure(exc, self.graph, self.records, tick) from exc
            self.ticks_run = tick + 1

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
