"""Read and run paths scale linearly: a complexity gate that timer noise cannot move.

Each layer is traced with sys.settrace at three sizes, each double the one
before, and its trace events (call, line and return of every Python frame)
are counted: one parse and one validate of bench/gen.py's graph-read
document at 50, 100 and 200 ticks; one ScenarioRun.run, emit and
render_log of its run-alert scenario at 25, 50 and 100 ticks, and the
provenance_chain of every activation of that run; one evaluate_rule at
sustain 8, 16 and 32 over a window of sustain+1 values; one parse_rules of
25, 50 and 100 rules; one parse_scenario of 100, 200 and 400 sensors; one
load_extension of a class chain declared parent first and child first, and
of a wide two-level tree, at 200, 400 and 800 classes. The counts depend only
on the input, so doubling the size may at most multiply them by 2.2, the
ratio ROADMAP.md sets for every layer. A per-token rescan, a quadratic index
or a lookup that grows with the document shows as a ratio near 4. Work
inside one C call, such as a sorted() per subject or a dict copy per class,
is not seen. Every row also holds its tracemalloc peak to the same ratio,
which sees a structure that grows with the square of the input even when it
is built in C.

bench/gen.py is the one tests/test_run_digests.py executes from its source,
so nothing is imported from or written under bench/. The same scenario's run
is also traced once for a NamedTuple's generated __new__, which the run path
does not call: it builds each record, node and statement in one C call."""

import dataclasses
import gc
import sys
import tracemalloc
from collections import deque
from decimal import Decimal
from functools import partial

import pytest

from test_run_digests import GEN
from twingraph import (
    Registry,
    Rule,
    ScenarioRun,
    TriggerMode,
    emit,
    evaluate_rule,
    load_extension,
    parse,
    parse_rules,
    parse_scenario,
    render_log,
)

TICKS = (50, 100, 200)
RUN_TICKS = (25, 50, 100)
MAX_RATIO = 2.2


class _OverLimit(BaseException):
    """Stops a traced call once it passes its limit; no handler in src/ takes it."""


def _trace_events(call, limit):
    """The trace events of call(), or None as soon as they pass limit, so
    that a quadratic layer fails the gate without being traced to the end."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        count += 1
        if count > limit:
            raise _OverLimit
        return trace

    outer = sys.gettrace()  # a coverage tool's, say
    sys.settrace(trace)
    try:
        call()
    except _OverLimit:
        return None
    finally:
        sys.settrace(outer)
    return count


@pytest.fixture(scope="module")
def documents(seed_registry):
    world = GEN.make_world(1)
    parse(GEN.run_shaped_graph(world, 5).text, seed_registry)  # warm the registry's memos
    return {ticks: GEN.run_shaped_graph(world, ticks).text for ticks in TICKS}


def _peak_bytes(call):
    """The tracemalloc peak of call(), over what was allocated before it.
    A full collection first empties the interpreter's free lists, whose
    objects tracemalloc does not see reused, so each call starts alike."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_linear(layer, calls, unit="ticks"):
    """calls yields (size, call) at doubling sizes; each call may make at
    most MAX_RATIO times the trace events of the one before and reach at
    most MAX_RATIO times its tracemalloc peak."""
    previous = previous_peak = None
    for size, call in calls:
        limit = MAX_RATIO * previous if previous else float("inf")
        events = _trace_events(call, limit)
        assert events is not None, (
            f"{layer} at {size} {unit} passed {MAX_RATIO}x the trace events "
            f"of {size // 2} {unit} ({previous})")
        previous = events
        peak = _peak_bytes(call)
        assert previous_peak is None or peak <= MAX_RATIO * previous_peak, (
            f"{layer} at {size} {unit} peaked at {peak} B, over {MAX_RATIO}x "
            f"the {previous_peak} B of {size // 2} {unit}")
        previous_peak = peak


@pytest.mark.parametrize("layer", ["parse", "validate"])
def test_read_path_events_grow_linearly_with_ticks(layer, documents, seed_registry):
    def calls():
        for ticks in TICKS:
            if layer == "parse":
                yield ticks, partial(parse, documents[ticks], seed_registry)
            else:
                graph, diagnostics = parse(documents[ticks], seed_registry)
                assert graph is not None, diagnostics[:3]
                yield ticks, graph.validate

    _assert_linear(layer, calls())


@pytest.fixture(scope="module")
def scenarios(seed_registry):
    world = GEN.make_world(1)
    warm = ScenarioRun(parse_scenario(GEN.scenario_text(world, 5, quiet=False)), seed_registry)
    warm.run()  # fills the registry's memos before any count
    render_log(warm.records)
    _chains(warm.graph)
    return {ticks: parse_scenario(GEN.scenario_text(world, ticks, quiet=False))
            for ticks in RUN_TICKS}


def _chains(graph):
    """The provenance chain of every activation; the first call also builds
    the graph's read index."""
    for activation in graph.instances_of("HC14"):
        graph.provenance_chain(activation)


@pytest.mark.parametrize("layer", ["run", "emit", "render_log", "provenance_chain"])
def test_run_path_events_grow_linearly_with_ticks(layer, scenarios, seed_registry):
    def calls():
        for ticks in RUN_TICKS:
            if layer == "run":  # a fresh run for each call: one counted, one measured
                runs = [ScenarioRun(scenarios[ticks], seed_registry) for _ in range(2)]
                yield ticks, lambda: runs.pop().run()
                continue
            run = ScenarioRun(scenarios[ticks], seed_registry)
            run.run()
            assert run.summary()["activations"] > 0
            if layer == "emit":
                yield ticks, partial(emit, run.graph)
            elif layer == "provenance_chain":  # each call builds its read index
                other = ScenarioRun(scenarios[ticks], seed_registry)
                other.run()
                graphs = [run.graph, other.graph]
                yield ticks, lambda: _chains(graphs.pop())
            else:
                yield ticks, partial(render_log, run.records)

    _assert_linear(layer, calls())


def test_run_calls_no_namedtuple_new(scenarios, seed_registry):
    generated = []

    def trace(frame, event, arg):  # called on each Python call
        if frame.f_code.co_filename == "<string>":  # a NamedTuple's __new__
            generated.append(frame.f_back.f_code.co_name)  # its caller

    run = ScenarioRun(scenarios[RUN_TICKS[0]], seed_registry)
    outer = sys.gettrace()
    sys.settrace(trace)
    try:
        run.run()
    finally:
        sys.settrace(outer)
    assert run.summary()["activations"] > 0
    assert generated == []


def test_evaluate_rule_events_grow_linearly_with_sustain():
    def calls():
        for sustain in (8, 16, 32):  # every value holds, so each one is compared
            rule = Rule("r", "t", ">", Decimal(0), sustain, TriggerMode.ON_RISE)
            window = deque([Decimal(1)] * (sustain + 1), maxlen=sustain + 1)
            assert evaluate_rule(rule, window) is False  # it held one entry back
            yield sustain, partial(evaluate_rule, rule, window)

    _assert_linear("evaluate_rule", calls(), unit="samples")


def _rule_text(count):
    return "".join(f'RULE r{i} WHEN TYPE = "t{i % 4}" AND VALUE >= {i}.5 FOR 2 SAMPLES '
                   f'MODE EVERY THEN ACTIVATE ex:a{i}, ALERT <https://e.org/p{i}> VIA "sms"\n'
                   for i in range(count))


def test_parse_rules_events_grow_linearly_with_rules():
    def calls():
        for count in (25, 50, 100):
            text = _rule_text(count)
            rules, diagnostics = parse_rules(text)
            assert len(rules) == count and not diagnostics
            yield count, partial(parse_rules, text)

    _assert_linear("parse_rules", calls(), unit="rules")


def test_parse_scenario_grows_linearly_with_sensors():
    world = GEN.make_world(1)

    def calls():
        for count in (100, 200, 400):
            sensors = tuple(dataclasses.replace(world.sensors[i % len(world.sensors)],
                                                name=f"s{i:03d}") for i in range(count))
            text = GEN.scenario_text(dataclasses.replace(world, sensors=sensors), 10, quiet=False)
            assert len(parse_scenario(text).sensors) == count
            yield count, partial(parse_scenario, text)

    _assert_linear("parse_scenario", calls(), unit="sensors")


_EXTENSION_HEAD = ("@prefix reg: <https://example.org/ns/registry#> .\n"
                   "@prefix hdto: <https://example.org/ns/hdto#> .\n")


def _extension(shape, count):
    """count classes HC1000...: a chain under the seed's HC1, each class
    under the one before it, declared parent first or child first; or a
    tree of one class under HC1 and the rest under it, declared leaves first."""
    if shape == "tree":
        links = [(f"HC{1000 + i}", "HC1000") for i in range(count - 1, 0, -1)]
        links.append(("HC1000", "HC1"))
    else:
        links = [(f"HC{1000 + i}", f"HC{999 + i}" if i else "HC1") for i in range(count)]
        if shape == "child-first":
            links.reverse()
    return _EXTENSION_HEAD + "".join(f"hdto:{child} reg:subClassOf hdto:{parent} .\n"
                                     for child, parent in links)


@pytest.mark.parametrize("shape", ["parent-first", "child-first", "tree"])
def test_load_extension_grows_linearly_with_classes(shape, seed_registry):
    def calls():
        for count in (200, 400, 800):
            text = _extension(shape, count)
            grown, diagnostics = load_extension(seed_registry, text)
            assert diagnostics == [] and len(grown.classes) == len(seed_registry.classes) + count
            yield count, partial(load_extension, seed_registry, text)

    _assert_linear(f"load_extension ({shape})", calls(), unit="classes")


@pytest.mark.parametrize("shape", ["parent-first", "child-first", "tree"])
def test_load_extension_builds_one_registry(shape, seed_registry, monkeypatch):
    # a copy of the registry per class would not show in the rows above: the
    # dict copies run inside C, and each copy is freed before the next
    built = []
    init = Registry.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Registry, "__init__", counted)
    for count in (1, 2, 200):
        built.clear()
        grown, diagnostics = load_extension(seed_registry, _extension(shape, count))
        assert diagnostics == [] and built == [grown]
