"""Seeded input generator for the twingraph benchmark.

Everything the program under test reads is written here from a seed: the
scenario JSON of the two run workloads and the graph text of graph-read.
The same seed always gives byte-identical files. The generator needs no
part of twingraph, so the inputs do not depend on the code being measured.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

EX = "https://example.org/bench/"
RUN = "https://example.org/run/"

SENSORS = 20
PERIODS = (1, 2, 3)
# (measured type, unit). Each type has its own rule, activator and mean.
TYPES = (("humidity", "%RH"), ("temperature", "C"),
         ("vibration", "mm/s"), ("co2", "ppm"))
PLACES = 4
ASSETS = 4
ACTORS = 2
SOFTWARE = 2
# Box-Muller over 53-bit uniforms never draws beyond 8.6 standard
# deviations, so a threshold this far above the sine peak is unreachable.
QUIET_SIGMAS = 9
# Share of graph-read's signals that get an activation, close to the
# fire ratio measured on run-alert (about 0.53).
FIRE_SHARE = 0.5


@dataclass(frozen=True)
class Sensor:
    name: str
    measured_type: str
    unit: str
    period: int
    phase: int
    attachment: tuple[str, str]  # ("HP15", asset) or ("P55", place)
    software: str
    mean: int
    amplitude: int
    wave: int
    stddev: float  # a binary fraction, so its JSON text is exact
    noise_seed: int


@dataclass(frozen=True)
class World:
    """The static world and sensor set shared by every workload of a seed."""

    seed: int
    type_means: dict[str, int]
    sensors: tuple[Sensor, ...]


def make_world(seed: int) -> World:
    rng = random.Random(seed)
    type_means = {name: rng.randint(20, 80) for name, _ in TYPES}
    # Periods and types are dealt out in fixed proportions and only their
    # assignment is shuffled, so every seed samples the same number of
    # values per tick and run time does not drift with the seed.
    periods = [PERIODS[i % len(PERIODS)] for i in range(SENSORS)]
    types = [TYPES[i % len(TYPES)] for i in range(SENSORS)]
    rng.shuffle(periods)
    rng.shuffle(types)
    sensors = []
    for i in range(SENSORS):
        period = periods[i]
        measured_type, unit = types[i]
        if rng.random() < 0.5:
            attachment = ("HP15", f"asset{rng.randrange(ASSETS)}")
        else:
            attachment = ("P55", f"room{rng.randrange(PLACES)}")
        sensors.append(Sensor(
            name=f"s{i:02d}", measured_type=measured_type, unit=unit,
            period=period, phase=rng.randrange(period), attachment=attachment,
            software=f"fw{rng.randrange(SOFTWARE)}",
            mean=type_means[measured_type], amplitude=rng.randint(2, 10),
            wave=rng.randint(6, 24), stddev=rng.choice((0.5, 1.0, 1.5, 2.0)),
            noise_seed=rng.getrandbits(32)))
    return World(seed, type_means, tuple(sensors))


def scenario(world: World, ticks: int, quiet: bool) -> dict:
    """Scenario for run-alert (quiet=False) or run-quiet (quiet=True).

    Both share sensors, ticks and noise seeds. Alert thresholds sit at each
    type's mean, where the noisy sine spends about half its samples above;
    quiet thresholds sit above any value the generator can produce.
    """
    rules = []
    for name, _ in TYPES:
        if quiet:
            peak = max(s.amplitude + QUIET_SIGMAS * s.stddev
                       for s in world.sensors if s.measured_type == name)
            threshold = world.type_means[name] + int(peak) + 1
        else:
            threshold = world.type_means[name]
        rules.append(f'RULE r-{name} WHEN TYPE = "{name}" AND VALUE > {threshold} '
                     f'MODE EVERY THEN ACTIVATE ex:act-{name}, '
                     f'ALERT ex:ops{len(rules) % ACTORS} VIA "email"')
    sensors = []
    for s in world.sensors:
        spec = {
            "iri": f"ex:{s.name}", "measured_type": s.measured_type,
            "unit": s.unit, "software": f"ex:{s.software}",
            "period": s.period, "phase": s.phase,
            "generator": {"kind": "noisy", "stddev": s.stddev,
                          "seed": s.noise_seed,
                          "inner": {"kind": "sine", "mean": s.mean,
                                    "amplitude": s.amplitude, "period": s.wave}},
        }
        key = "positioned_on" if s.attachment[0] == "HP15" else "located_in"
        spec[key] = f"ex:{s.attachment[1]}"
        sensors.append(spec)
    return {
        "prefixes": {"ex": EX},
        "start": "2026-01-01T00:00:00Z",
        "tick_seconds": 60,
        "duration": ticks,
        "seed": world.seed % 2 ** 64,  # the scenario schema takes [0, 2^64)
        "entities": {
            "places": [f"ex:room{i}" for i in range(PLACES)],
            "assets": [{"iri": f"ex:asset{i}", "located_in": f"ex:room{i % PLACES}"}
                       for i in range(ASSETS)],
            "twin": {"iri": "ex:twin0", "twin_of": "ex:asset0"},
            "software": [f"ex:fw{i}" for i in range(SOFTWARE)],
            "actors": [f"ex:ops{i}" for i in range(ACTORS)],
            "activators": [{"iri": f"ex:act-{name}", "action": "engage"}
                           for name, _ in TYPES],
        },
        "sensors": sensors,
        "decider": {"iri": "ex:decider", "rules": "\n".join(rules)},
    }


def scenario_text(world: World, ticks: int, quiet: bool) -> str:
    return json.dumps(scenario(world, ticks, quiet), indent=2, sort_keys=True) + "\n"


# --- graph-read: a run-shaped graph written as text ---

_PREFIXES = {
    "crm": "http://www.cidoc-crm.org/cidoc-crm/",
    "crmdig": "http://www.ics.forth.gr/isl/CRMdig/",
    "crmsci": "http://www.ics.forth.gr/isl/CRMsci/",
    "ex": EX,
    "hdto": "https://example.org/ns/hdto#",
    "rhdto": "https://example.org/ns/rhdto#",
    "run": RUN,
}
_CLASS = {"E5": "crm:E5", "E39": "crm:E39", "E53": "crm:E53", "E55": "crm:E55",
          "D14": "crmdig:D14", "HC2": "hdto:HC2", "HC3": "hdto:HC3",
          "HC9": "rhdto:HC9", "HC10": "rhdto:HC10", "HC11": "rhdto:HC11",
          "HC12": "rhdto:HC12", "HC13": "rhdto:HC13", "HC14": "rhdto:HC14"}
_PROPERTY = {"HP1": "hdto:HP1", "HP11": "rhdto:HP11", "HP12": "rhdto:HP12",
             "HP13": "rhdto:HP13", "HP14": "rhdto:HP14", "HP15": "rhdto:HP15",
             "L12": "crmdig:L12", "L17": "crmdig:L17", "L20": "crmdig:L20",
             "O13": "crmsci:O13", "O24": "crmsci:O24", "P55": "crm:P55"}


@dataclass(frozen=True)
class GraphDoc:
    text: str
    nodes: int
    statements: int


def run_shaped_graph(world: World, ticks: int) -> GraphDoc:
    """Graph text with the nodes and links a run of `ticks` would leave.

    Every due sample gets a measurement and a signal transmitted to the
    decider; a seeded FIRE_SHARE of signals gets an activation that activates
    its type's activator and alerts an actor. Blocks are sorted by subject
    IRI, as canonical emission orders them.
    """
    rng = random.Random(world.seed ^ 0x5EED)
    blocks: dict[str, tuple[str, dict[str, list[str]]]] = {}

    def node(curie: str, class_id: str) -> dict[str, list[str]]:
        if curie not in blocks:
            blocks[curie] = (class_id, {})
        return blocks[curie][1]

    def link(subject: str, prop: str, obj: str) -> None:
        blocks[subject][1].setdefault(prop, []).append(obj)

    for i in range(PLACES):
        node(f"ex:room{i}", "E53")
    for i in range(ASSETS):
        node(f"ex:asset{i}", "HC3")
        link(f"ex:asset{i}", "P55", f"ex:room{i % PLACES}")
    node("ex:twin0", "HC2")
    link("ex:twin0", "HP1", "ex:asset0")
    for i in range(SOFTWARE):
        node(f"ex:fw{i}", "D14")
    for i in range(ACTORS):
        node(f"ex:ops{i}", "E39")
    for name, _ in TYPES:
        node(f"ex:act-{name}", "HC11")
        node(f"run:event/{name}", "E5")
        node(f"run:type/{name}", "E55")
    node("ex:decider", "HC10")
    for s in world.sensors:
        node(f"ex:{s.name}", "HC9")
        link(f"ex:{s.name}", s.attachment[0], f"ex:{s.attachment[1]}")
        link(f"ex:{s.name}", "HP11", f"ex:{s.software}")

    type_rank = {name: i for i, (name, _) in enumerate(TYPES)}
    for tick in range(ticks):
        for s in world.sensors:
            if tick < s.phase or (tick - s.phase) % s.period:
                continue
            index = (tick - s.phase) // s.period
            m, sig = f"run:m/{s.name}/{index}", f"run:sig/{s.name}/{index}"
            node(m, "HC13")
            node(sig, "HC12")
            link(m, "L12", f"ex:{s.name}")
            link(m, "O24", f"run:event/{s.measured_type}")
            link(m, "L17", f"run:type/{s.measured_type}")
            link(m, "L20", sig)
            link(sig, "HP12", "ex:decider")
            if rng.random() < FIRE_SHARE:
                act = f"run:act/{s.name}/{index}"
                node(act, "HC14")
                link("ex:decider", "O13", act)
                link(act, "HP13", f"ex:act-{s.measured_type}")
                link(act, "HP14", f"ex:ops{type_rank[s.measured_type] % ACTORS}")

    def expand(curie: str) -> str:
        prefix, local = curie.split(":", 1)
        return _PREFIXES[prefix] + local

    out = [f"@prefix {name}: <{iri}> .\n" for name, iri in sorted(_PREFIXES.items())]
    statements = 0
    for subject in sorted(blocks, key=expand):
        class_id, props = blocks[subject]
        lines = [f"{subject} a {_CLASS[class_id]}"]
        for prop in sorted(props):
            objects = sorted(props[prop], key=expand)
            statements += len(objects)
            lines.append(f"    {_PROPERTY[prop]} {', '.join(objects)}")
        out.append("\n" + " ;\n".join(lines) + " .\n")
    return GraphDoc("".join(out), len(blocks), statements)
