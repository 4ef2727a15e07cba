"""Reactive runtime: scheduling, generators, step semantics, logging."""

import json
import random
import re
import statistics
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from twingraph import (
    Iri,
    Statement,
    StepFailure,
    emit,
    load_scenario,
    load_seed,
    parse_scenario,
    render_log,
    run_scenario,
    schedule_due,
)
from twingraph.config import (
    ConstantGen,
    ListGen,
    NoisyGen,
    RampGen,
    SensorSpec,
    SineGen,
    check_scenario,
)
from twingraph.errors import (
    ConfigError,
    ScenarioError,
    StatementViolationError,
    UnknownObjectError,
    UnknownSubjectError,
)
from twingraph.graph import ViolationReason
from twingraph.rules import Action, ActionKind
from twingraph.runtime import (
    ScenarioRun,
    fnv1a64,
    gaussian_at,
    generator_value,
    mix64,
    splitmix_at,
)

from conftest import random_scenario, random_scenario_text


def scenario(sensors_json, rules="", duration=4, seed=3,
             activators="[]", actors='["ex:opd"]', prefixes=None,
             places='["ex:room"]'):
    prefixes = json.dumps({"ex": "https://example.org/rt/", **(prefixes or {})})
    text = f"""{{
      "prefixes": {prefixes},
      "start": "2026-02-01T00:00:00Z",
      "tick_seconds": 900,
      "duration": {duration},
      "seed": {seed},
      "entities": {{
        "assets": [{{"iri": "ex:obj", "located_in": "ex:room"}}],
        "places": {places},
        "twin": {{"iri": "ex:twin", "twin_of": "ex:obj"}},
        "software": ["ex:sw"],
        "actors": {actors},
        "activators": {activators}
      }},
      "sensors": {sensors_json},
      "decider": {{"iri": "ex:brain", "rules": {json.dumps(rules)}}}
    }}"""
    return parse_scenario(text)


BASIC_SENSOR = """[{
  "iri": "ex:s1", "measured_type": "humidity", "unit": "%RH",
  "software": "ex:sw", "located_in": "ex:room",
  "generator": {"kind": "list", "values": [40, 40, 75, 75]}
}]"""


# --- deterministic primitives ---

def test_splitmix_reference_vectors():
    assert splitmix_at(0, 0) == 0xE220A8397B1DCDAF
    assert splitmix_at(0, 1) == 0x6E789E6AA1B965F4
    assert splitmix_at(0, 2) == 0x06C45D188009454F


def test_fnv1a_reference_vectors():
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
    assert fnv1a64("foobar") == 0x85944171F73967E8


def test_random_access_is_consistent():
    seed = 0xDEADBEEF
    walk = [splitmix_at(seed, i) for i in range(50)]
    assert splitmix_at(seed, 49) == walk[49]
    assert splitmix_at(seed, 7) == walk[7]
    assert mix64(mix64(1)) != mix64(1)


def test_gaussian_is_deterministic_and_quantized():
    a = gaussian_at(42, 10)
    assert a == gaussian_at(42, 10)
    assert a == a.quantize(Decimal("1E-12"))
    xs = [float(gaussian_at(9, i)) for i in range(4000)]
    assert abs(statistics.fmean(xs)) < 0.06
    assert abs(statistics.pstdev(xs) - 1.0) < 0.06


# --- generators ---

def test_simple_generator_values():
    assert generator_value(ConstantGen(Decimal("0.01")), 5, 1) == Decimal("0.01")
    assert generator_value(RampGen(Decimal(10), Decimal(2)), 3, 1) == Decimal(16)
    # every digit survives, past the default context's 28
    long = Decimal("1.00000000000000000000000000000001")
    assert generator_value(RampGen(long, Decimal(0)), 0, 1) == long
    assert generator_value(RampGen(long, Decimal("0.5")), 3, 1) == \
        Decimal("2.50000000000000000000000000000001")
    assert generator_value(SineGen(long, Decimal(10), 4), 1, 1) == \
        Decimal("11.00000000000000000000000000000001")
    lg = ListGen((Decimal(1), Decimal(2)))
    assert [generator_value(lg, i, 1) for i in range(4)] == [
        Decimal(1), Decimal(2), Decimal(2), Decimal(2)]


def test_sine_generator_is_periodic():
    g = SineGen(Decimal(50), Decimal(10), 4)
    values = [generator_value(g, i, 1) for i in range(8)]
    assert values[:4] == values[4:]
    assert values[0] == Decimal(50)
    assert values[1] == Decimal(60)
    assert all(v == v.quantize(Decimal("1E-12")) for v in values)


def test_noisy_generator_streams_are_stable_and_distinct():
    g = NoisyGen(ConstantGen(Decimal(100)), Decimal("0.5"), seed=6)
    a = [generator_value(g, i, stream_seed=111) for i in range(6)]
    b = [generator_value(g, i, stream_seed=111) for i in range(6)]
    c = [generator_value(g, i, stream_seed=222) for i in range(6)]
    assert a == b
    assert a != c
    # folding the generator's own seed separates co-located generators
    g2 = NoisyGen(ConstantGen(Decimal(100)), Decimal("0.5"), seed=7)
    assert a != [generator_value(g2, i, stream_seed=111) for i in range(6)]


def test_noisy_wraps_any_inner_generator():
    inner = RampGen(Decimal(0), Decimal(1))
    g = NoisyGen(inner, Decimal(0), seed=1)
    # zero spread collapses onto the inner value
    assert [generator_value(g, i, 9) for i in range(3)] == [
        Decimal(0), Decimal(1), Decimal(2)]


# --- scheduling ---

def test_schedule_matches_brute_force():
    rng = random.Random(71)
    draws = []
    for i in range(5):
        period = rng.randint(1, 4)
        draws.append((period, rng.randint(0, period - 1)))

    def sensors(names):
        return json.dumps([
            {"iri": name, "measured_type": "humidity", "unit": "%RH",
             "software": "ex:sw", "located_in": "ex:room",
             "period": period, "phase": phase,
             "generator": {"kind": "constant", "value": 1}}
            for name, (period, phase) in zip(names, draws)])

    config = scenario(sensors([f"ex:s{i}" for i in range(5)]), duration=12)
    # CURIE order is the reverse of expanded-IRI order under these prefixes
    bases = {"a": "https://z.example/", "b": "https://a.example/"}
    curies = [f"{'ab'[i % 2]}:s{i}" for i in range(5)]
    crossed = scenario(sensors(curies), duration=12, prefixes=bases)
    curie_of = {bases[c[0]] + c[2:]: c for c in curies}
    # another sensor set from a config whose order was already used
    schedule_due(config, 0)
    fewer = config._replace(sensors=config.sensors[3:] + config.sensors[:2])
    for cfg in (config, crossed, fewer):
        dues = [schedule_due(cfg, tick) for tick in range(12)]
        for tick, due in enumerate(dues):
            expected = sorted(
                (s for s in cfg.sensors
                 if tick >= s.phase and (tick - s.phase) % s.period == 0),
                key=lambda s: s.iri)
            assert [s.iri for s in due] == [s.iri for s in expected]
        if cfg is crossed:
            assert any([curie_of[s.iri] for s in due] != sorted(curie_of[s.iri] for s in due)
                       for due in dues)


def test_phase_delays_first_sample():
    config = scenario("""[{
      "iri": "ex:s1", "measured_type": "humidity", "unit": "%RH",
      "software": "ex:sw", "located_in": "ex:room",
      "period": 2, "phase": 1,
      "generator": {"kind": "constant", "value": 1}}]""", duration=6)
    run = run_scenario(config)
    ticks = [r.tick for r in run.records if r.kind == "measurement"]
    assert ticks == [1, 3, 5]


# --- step behaviour ---

def test_measurement_statements_and_shared_nodes():
    config = scenario("""[
      {"iri": "ex:s1", "measured_type": "humidity", "unit": "%RH",
       "software": "ex:sw", "located_in": "ex:room",
       "generator": {"kind": "constant", "value": 1}},
      {"iri": "ex:s2", "measured_type": "humidity", "unit": "%RH",
       "software": "ex:sw", "positioned_on": "ex:obj",
       "generator": {"kind": "constant", "value": 2}}
    ]""", duration=1)
    run = run_scenario(config)
    g = run.graph
    m1 = Iri("https://example.org/run/m/s1/0")
    m2 = Iri("https://example.org/run/m/s2/0")
    for m in (m1, m2):
        assert g.nodes[m.value] == {"HC13"}
    # both sensors observe the same event and type nodes
    assert g.objects_of(m1, "O24") == g.objects_of(m2, "O24")
    assert g.objects_of(m1, "L17") == g.objects_of(m2, "L17")
    event = g.objects_of(m1, "O24")[0]
    assert event.value == "https://example.org/run/event/humidity"
    assert g.nodes[event.value] == {"E5"}


def test_observed_event_names_the_shared_node():
    config = scenario("""[{
      "iri": "ex:s1", "measured_type": "humidity", "unit": "%RH",
      "software": "ex:sw", "located_in": "ex:room",
      "observed_event": "humidity variation",
      "generator": {"kind": "constant", "value": 1}}]""", duration=1)
    run = run_scenario(config)
    assert "https://example.org/run/event/humidity-variation" in run.graph.nodes


def test_each_observed_event_gets_its_own_node():
    config = scenario("""[
      {"iri": "ex:h2", "measured_type": "humidity", "unit": "%RH",
       "software": "ex:sw", "located_in": "ex:room", "observed_event": "flood",
       "generator": {"kind": "constant", "value": 1}},
      {"iri": "ex:hygrometer", "measured_type": "humidity", "unit": "%RH",
       "software": "ex:sw", "located_in": "ex:room", "observed_event": "damp",
       "generator": {"kind": "constant", "value": 2}}
    ]""", duration=2)
    g = run_scenario(config).graph
    run = "https://example.org/run/"
    events = sorted(iri for iri, types in g.nodes.items() if "E5" in types)
    assert events == [run + "event/damp", run + "event/flood"]
    for sensor, event in (("h2", "flood"), ("hygrometer", "damp")):
        for index in (0, 1):
            m = Iri(f"{run}m/{sensor}/{index}")
            assert g.objects_of(m, "O24") == [Iri(run + "event/" + event)]
    # the measured type is still one shared node
    assert g.objects_of(Iri(run + "m/h2/0"), "L17") \
        == g.objects_of(Iri(run + "m/hygrometer/0"), "L17")


def test_labels_with_one_slug_share_an_event_node():
    config = scenario("""[
      {"iri": "ex:d1", "measured_type": "contact", "unit": "1",
       "software": "ex:sw", "located_in": "ex:room", "observed_event": "door open",
       "generator": {"kind": "constant", "value": 1}},
      {"iri": "ex:d2", "measured_type": "contact", "unit": "1",
       "software": "ex:sw", "located_in": "ex:room", "observed_event": "door-open",
       "generator": {"kind": "constant", "value": 1}},
      {"iri": "ex:w1", "measured_type": "contact", "unit": "1",
       "software": "ex:sw", "located_in": "ex:room", "observed_event": "window open",
       "generator": {"kind": "constant", "value": 0}}
    ]""", duration=2)
    g = run_scenario(config).graph
    run = "https://example.org/run/"
    events = sorted(iri for iri, types in g.nodes.items() if "E5" in types)
    assert events == [run + "event/door-open", run + "event/window-open"]
    for sensor, event in (("d1", "door-open"), ("d2", "door-open"), ("w1", "window-open")):
        for index in (0, 1):
            m = Iri(f"{run}m/{sensor}/{index}")
            assert g.objects_of(m, "O24") == [Iri(run + "event/" + event)]
    assert g.nodes[run + "event/door-open"] == {"E5"}


def test_sample_rejects_unknown_sensor():
    config = scenario(BASIC_SENSOR, duration=1)
    run = ScenarioRun(config)
    ghost = SensorSpec(iri="ex:ghost", measured_type="humidity", unit="%RH",
                       software="ex:sw", generator=ConstantGen(Decimal(1)),
                       positioned_on=None, located_in="ex:room",
                       period=1, phase=0, observed_event="humidity")
    with pytest.raises(UnknownObjectError, match="ex:ghost"):
        run.sample(ghost, 0)
    assert run.records == []
    assert run.graph.content_equal(ScenarioRun(config).graph)


NOISY = "examples/pisano/scenario-noisy.json"
DEHUMIDIFIER = "https://example.org/pisano/dehumidifier"  # an activator, not a sensor


def test_sample_of_an_activator_is_refused_and_writes_nothing():
    config = load_scenario(NOISY)
    assert DEHUMIDIFIER in {a.iri for a in config.activators}
    run = ScenarioRun(config)
    with pytest.raises(UnknownObjectError, match=f"unknown sensor {DEHUMIDIFIER}"):
        run.sample(config.sensors[0]._replace(iri=DEHUMIDIFIER), 0)
    assert run.records == []
    assert run.graph.content_equal(ScenarioRun(config).graph)


def test_fold_of_an_activator_measurement_is_refused_and_writes_nothing():
    config = load_scenario(NOISY)
    record = run_scenario(config, until=1).records[0]
    assert record.kind == "measurement"
    values = tuple(dict(record.fields, sensor=DEHUMIDIFIER,
                        measurement="https://example.org/run/m/dehumidifier/0").values())
    run = ScenarioRun(config)
    with pytest.raises(UnknownObjectError, match=f"unknown sensor {DEHUMIDIFIER}"):
        run.fold(record._replace(values=values))
    assert run.records == []
    assert run.graph.content_equal(ScenarioRun(config).graph)


def _first(records, kind):
    return next(record for record in records if record.kind == kind)


def test_fold_of_a_signal_before_its_measurement_is_refused_and_writes_nothing():
    config = load_scenario(NOISY)
    record = _first(run_scenario(config, until=1).records, "signal")
    run = ScenarioRun(config)
    with pytest.raises(UnknownSubjectError) as err:
        run.fold(record)
    assert str(err.value) == "unknown subject https://example.org/run/m/accelerometer/0"
    assert run.records == []
    assert run.graph.content_equal(ScenarioRun(config).graph)


def test_fold_of_an_activation_by_an_undeclared_decider_is_refused_and_writes_nothing():
    config = load_scenario(NOISY)
    done = run_scenario(config, until=2)
    record = _first(done.records, "activation")
    ghost = "https://example.org/pisano/ghost"
    run, before = ScenarioRun(config), ScenarioRun(config)
    for earlier in done.records[:record.seq]:
        run.fold(earlier)
        before.fold(earlier)
    with pytest.raises(UnknownSubjectError) as err:
        run.fold(record._replace(values=tuple(dict(record.fields, decider=ghost).values())))
    assert str(err.value) == f"unknown subject {ghost}"
    assert run.records == []
    assert run.graph.content_equal(before.graph)
    assert record.fields["activation"] not in run.graph.nodes


def test_fold_of_a_signal_from_an_asset_is_refused_and_writes_nothing():
    config = load_scenario(NOISY)
    record = _first(run_scenario(config, until=1).records, "signal")
    asset = config.assets[0].iri
    run = ScenarioRun(config)
    with pytest.raises(StatementViolationError) as err:
        run.fold(record._replace(values=tuple(dict(record.fields, measurement=asset).values())))
    assert err.value.reason is ViolationReason.DOMAIN_VIOLATION
    assert run.records == []
    assert run.graph.content_equal(ScenarioRun(config).graph)


def _assert_wrote_nothing(run, before):
    assert run.records == before.records
    assert run.graph.content_equal(before.graph)
    assert run._histories == before._histories


def test_make_signal_of_an_activator_is_refused_and_writes_nothing():
    config = load_scenario(NOISY)
    run, before = ScenarioRun(config), ScenarioRun(config)
    run.sample(config.sensors[0], 0)
    before.sample(config.sensors[0], 0)
    spec = config.sensors[0]._replace(iri=DEHUMIDIFIER)
    with pytest.raises(UnknownObjectError, match=f"unknown sensor {DEHUMIDIFIER}"):
        run.make_signal(spec, 0)
    _assert_wrote_nothing(run, before)


@pytest.mark.parametrize("step", ["make_signal", "decide"])
def test_step_without_a_waiting_sample_is_refused_and_writes_nothing(step):
    # a config sensor that was never sampled has no value to wrap or decide on
    config = scenario(BASIC_SENSOR, duration=1)
    run, before = ScenarioRun(config), ScenarioRun(config)
    with pytest.raises(UnknownObjectError, match="rt/s1 has no sample waiting"):
        getattr(run, step)(config.sensors[0], 0)
    _assert_wrote_nothing(run, before)


def test_signal_payload_bytes():
    config = scenario(BASIC_SENSOR, duration=1)
    run = run_scenario(config)
    (signal_record,) = [r for r in run.records if r.kind == "signal"]
    payload = signal_record.fields["payload"]
    assert payload == (
        '{"measuredType":"humidity",'
        '"sensorId":"https://example.org/rt/s1",'
        '"signalId":"https://example.org/run/sig/s1/0",'
        '"timestamp":"2026-02-01T00:00:00Z",'
        '"unit":"%RH","value":40}')
    assert json.loads(payload)["value"] == 40


def test_timestamps_follow_tick_seconds():
    config = scenario(BASIC_SENSOR, duration=3)
    run = run_scenario(config)
    stamps = [r.fields["timestamp"] for r in run.records if r.kind == "measurement"]
    assert stamps == ["2026-02-01T00:00:00Z", "2026-02-01T00:15:00Z",
                      "2026-02-01T00:30:00Z"]


def test_decision_record_written_even_when_nothing_fires():
    config = scenario(BASIC_SENSOR, duration=2,
                      rules='RULE r WHEN TYPE = "humidity" AND VALUE > 70 '
                            'THEN ALERT ex:opd VIA "email"')
    run = run_scenario(config)
    decisions = [r for r in run.records if r.kind == "decision"]
    assert len(decisions) == 2
    assert all(d.fields["fired"] is False for d in decisions)
    assert all(d.fields["firedRules"] == () for d in decisions)


def test_sample_count_past_any_run_fires_nothing():
    # the history keeps at most what the run samples, not sustain+1 values
    config = scenario(BASIC_SENSOR, duration=4,
                      rules=f'RULE r WHEN TYPE = "humidity" AND VALUE > 0 FOR {2 ** 63} '
                            'SAMPLES MODE EVERY THEN ALERT ex:opd VIA "email"')
    run = run_scenario(config)
    assert run.summary() == {"ticks": 4, "measurements": 4, "signals": 4,
                             "activations": 0, "alerts": 0}
    # sensors of one measured type share its history, which so can outgrow
    # the duration: 4 values in 2 ticks, and FOR 3 rises once, at the third
    second = dict(json.loads(BASIC_SENSOR)[0], iri="ex:s2")
    two = json.dumps(json.loads(BASIC_SENSOR) + [second])
    run = run_scenario(scenario(two, duration=2,
                                rules='RULE r WHEN TYPE = "humidity" AND VALUE > 0 FOR 3 '
                                      'SAMPLES THEN ALERT ex:opd VIA "email"'))
    assert run.summary()["measurements"] == 4
    assert run.summary()["activations"] == 1


PISANO = "examples/pisano/scenario.json"


def _runs_with_a_waiting_sample(local, transmit=True):
    """Two equal Pisano runs after until=2, in each of which the sensor named
    `local` has its sample 2 signalled, transmitted unless told not to, and
    not yet decided."""
    config = load_scenario(PISANO)
    spec = next(s for s in config.sensors if s.iri.endswith("/" + local))
    runs = run_scenario(config, until=2), run_scenario(config, until=2)
    for run in runs:
        run.sample(spec, 2)
        run.make_signal(spec, 2)
        if transmit:
            run.transmit(spec, 2)
    return runs


@pytest.mark.parametrize("step", ["make_signal", "transmit"])
def test_repeated_step_is_refused_and_writes_nothing(step):
    # a second signal or transmission record for one sample would show a log
    # reader two signals for one measurement
    run, before = _runs_with_a_waiting_sample("hygrometer")
    signal = "https://example.org/run/sig/hygrometer/2"
    spec = next(s for s in run.config.sensors if s.iri.endswith("/hygrometer"))
    with pytest.raises(UnknownObjectError,
                       match=f"hygrometer has no sample waiting for {step}: its next step is decide"):
        getattr(run, step)(spec, 2)
    _assert_wrote_nothing(run, before)
    assert run.decide(spec, 2)  # the sample, 75, still waits for its one decision, and fires
    assert [r.kind for r in run.records if r.fields.get("signal") == signal] == [
        "signal", "transmission", "decision", "activation"]


@pytest.mark.parametrize("step,argument", [
    ("decide", Iri("https://example.org/run/sig/hygrometer/2")),
    ("sample", "https://example.org/pisano/hygrometer"),
], ids=["decide-signal-iri", "sample-iri-text"])
def test_a_step_given_no_config_sensor_is_refused_and_writes_nothing(step, argument):
    # the arguments a step took before it took the config sensor: a signal
    # Iri, or the sensor's IRI text; the hygrometer's sample 2 waits for decide
    run, before = _runs_with_a_waiting_sample("hygrometer")
    with pytest.raises(UnknownObjectError, match="not a config sensor"):
        getattr(run, step)(argument, 2)
    _assert_wrote_nothing(run, before)
    spec = next(s for s in run.config.sensors if s.iri.endswith("/hygrometer"))
    assert run.decide(spec, 2)  # the sample still waits for its decision, and fires


@pytest.mark.parametrize("sensor,transmit,message", [
    ("https://example.org/pisano/ghost", True, "unknown sensor"),
    ("https://example.org/pisano/hygrometer", False, "has no sample waiting for decide"),
], ids=["undeclared-sensor", "signalled-not-transmitted"])
def test_decide_refuses_a_signal_never_transmitted_and_writes_nothing(sensor, transmit, message):
    # the hygrometer's sample 2, 75, fires the Pisano humidity rule, so a
    # decision on it through any other path would log an activation whose
    # chain names no transmitted signal that carried that sample
    run, before = _runs_with_a_waiting_sample("hygrometer", transmit)
    spec = next(s for s in run.config.sensors if s.iri.endswith("/hygrometer"))
    with pytest.raises(UnknownObjectError) as err:
        run.decide(spec._replace(iri=sensor), 2)
    assert sensor in str(err.value) and message in str(err.value)
    _assert_wrote_nothing(run, before)


def test_decide_refuses_a_signal_it_already_decided_and_writes_nothing():
    # a second decision would put the one sample 40 in the window twice,
    # and FOR 2 SAMPLES would fire on it
    config = scenario(BASIC_SENSOR, duration=1,
                      rules='RULE r WHEN TYPE = "humidity" AND VALUE > 0 FOR 2 SAMPLES '
                            'THEN ALERT ex:opd VIA "email"')
    run, before = run_scenario(config), run_scenario(config)
    assert _first(run.records, "decision").fields["signal"] == "https://example.org/run/sig/s1/0"
    with pytest.raises(UnknownObjectError, match="s1 has no sample waiting for decide"):
        run.decide(config.sensors[0], 1)
    _assert_wrote_nothing(run, before)


STEPS = ("sample", "make_signal", "transmit", "decide", "execute_activation")


def _out_of_order_cases():
    # the Pisano hygrometer's sample 2, 75, fires; the accelerometer's, 0.11, does not
    for done in range(len(STEPS) + 1):
        waits = (STEPS + ("sample",))[done]
        for step in STEPS:
            if step != waits:
                yield pytest.param("hygrometer", STEPS[:done], step, waits,
                                   id=f"{'+'.join(STEPS[:done]) or 'none'}-{step}")
    yield pytest.param("accelerometer", STEPS[:4], "execute_activation", "sample",
                       id="decided-quiet-execute_activation")


@pytest.mark.parametrize("local,done,step,waits", _out_of_order_cases())
def test_a_step_out_of_order_is_refused_and_writes_nothing(local, done, step, waits):
    # a sensor's sample goes through the five steps in order, each once; any
    # other call, execute_activation with nothing to execute and a sample
    # while the last one still waits included, is refused before it writes
    config = load_scenario(PISANO)
    spec = next(s for s in config.sensors if s.iri.endswith("/" + local))
    run, before = run_scenario(config, until=2), run_scenario(config, until=2)
    for each in (run, before):
        for earlier in done:
            getattr(each, earlier)(spec, 2)
    with pytest.raises(UnknownObjectError,
                       match=f"{local} has no sample waiting for {step}: its next step is {waits}"):
        getattr(run, step)(spec, 2)
    _assert_wrote_nothing(run, before)
    getattr(run, waits)(spec, 2)  # the step the sample waits for still runs
    getattr(before, waits)(spec, 2)
    assert render_log(run.records) == render_log(before.records)


def test_activation_names_follow_signal_index():
    config = scenario(BASIC_SENSOR, duration=4,
                      rules='RULE r WHEN TYPE = "humidity" AND VALUE > 70 '
                            'THEN ALERT ex:opd VIA "email"')
    run = run_scenario(config)
    (activation,) = [r for r in run.records if r.kind == "activation"]
    assert activation.fields["activation"] == "https://example.org/run/act/s1/2"
    assert activation.tick == 2
    # the rise happened once; tick 3 holds but does not re-fire
    assert run.summary()["activations"] == 1


def test_one_activation_event_collects_all_fired_actions():
    config = scenario(
        BASIC_SENSOR, duration=3,
        activators='[{"iri": "ex:pump", "action": "drain"}]',
        rules=('RULE a WHEN TYPE = "humidity" AND VALUE > 70 THEN ACTIVATE ex:pump\n'
               'RULE b WHEN TYPE = "humidity" AND VALUE > 70 THEN ALERT ex:opd VIA "email"'))
    run = run_scenario(config)
    assert run.summary()["activations"] == 1
    act = Iri("https://example.org/run/act/s1/2")
    assert [t.value for t in run.graph.objects_of(act, "HP13")] == [
        "https://example.org/rt/pump"]
    assert [t.value for t in run.graph.objects_of(act, "HP14")] == [
        "https://example.org/rt/opd"]
    kinds = [r.kind for r in run.records if r.tick == 2]
    assert kinds.index("actuation") < kinds.index("alert")
    (actuation,) = [r for r in run.records if r.kind == "actuation"]
    assert actuation.fields["action"] == "drain"


def test_first_alert_channel_wins():
    config = scenario(
        BASIC_SENSOR, duration=3,
        rules=('RULE a WHEN TYPE = "humidity" AND VALUE > 70 THEN ALERT ex:opd VIA "email"\n'
               'RULE b WHEN TYPE = "humidity" AND VALUE > 70 THEN ALERT ex:opd VIA "sms"'))
    run = run_scenario(config)
    (alert,) = [r for r in run.records if r.kind == "alert"]
    assert alert.fields["channel"] == "email"


# --- a config built by hand meets the scenario check a file does ---

def _set(node, path, value):
    """A config tree (NamedTuples and tuples) with the field or member at path
    set to value; each step is a field name or a tuple index."""
    if not path:
        return value
    step, rest = path[0], path[1:]
    if isinstance(step, str):
        return node._replace(**{step: _set(getattr(node, step), rest, value)})
    return node[:step] + (_set(node[step], rest, value),) + node[step + 1:]


EX = "https://example.org/pisano/"
RULE = ("decider", "rules", 0)
INT_RANGE = "must be an integer in [0, 2^64)"

# (id, path, value or a function of the noisy Pisano config, message with its path)
HAND_BUILT_REFUSALS = [
    # each ended in an untyped error before the run checked its config in full
    ("unparseable-start", ("start",), "yesterday",
     "scenario: bad start: not an ISO 8601 dateTime: 'yesterday'"),
    ("zero-period", ("sensors", 0, "period"), 0,
     "sensors[0]: period must be an integer of at least 1"),
    ("empty-list-generator", ("sensors", 1, "generator"), ListGen(()),
     "sensors[1].generator: list generator needs at least one value"),
    ("float-constant", ("sensors", 1, "generator"), ConstantGen(0.1),
     "sensors[1].generator: value must be a number (a finite Decimal), not 0.1"),
    ("measured-type-not-text", ("sensors", 0, "measured_type"), 5,
     "sensors[0]: measured_type must be text UTF-8 can encode, not 5"),
    ("clock-past-9999", ("tick_seconds",), 10 ** 12,
     "scenario: the clock must end by 9999-12-31T23:59:59Z"),
    # each ran on a value a scenario file may not hold
    ("zero-tick", ("tick_seconds",), 0, "scenario: tick_seconds must be an integer of at least 1"),
    ("negative-duration", ("duration",), -1,
     "scenario: duration must be an integer and must not be negative"),
    ("negative-seed", ("seed",), -1, f"scenario: seed {INT_RANGE}"),
    ("huge-seed", ("seed",), 2 ** 80, f"scenario: seed {INT_RANGE}"),
    ("negative-phase", ("sensors", 0, "phase"), -1,
     "sensors[0]: phase must be an integer in [0, period)"),
    ("unit-not-text", ("sensors", 0, "unit"), None,
     "sensors[0]: unit must be text UTF-8 can encode, not None"),
    ("place-in-run-namespace", ("places",), lambda c: c.places + ("https://example.org/run/p",),
     "entities.places[1]: 'https://example.org/run/p' lies under https://example.org/run/"),
    ("negative-sustain", RULE + ("sustain",), -5,
     "decider.rules(humidity-alert): FOR takes a positive integer sample count"),
    ("mode-as-text", RULE + ("mode",), "EVERY",
     "decider.rules(humidity-alert).mode: must be of type TriggerMode, not 'EVERY'"),
    ("action-not-text", ("activators", 0, "action"), 5,
     "entities.activators[0]: action must be text UTF-8 can encode, not 5"),
    ("unit-with-lone-surrogate", ("sensors", 0, "unit"), "\ud800",
     "sensors[0]: unit must be text UTF-8 can encode, not '\\ud800'"),
    # run IRIs are minted from a sensor's local name: two would mint the same ones
    ("sensors-share-a-local-name", ("sensors", 1, "iri"),
     "https://example.org/elsewhere/accelerometer",
     f"sensors[1]: sensors '{EX}accelerometer' and 'https://example.org/elsewhere/accelerometer' "
     "share the local name 'accelerometer'"),
    # both sensor maps would collapse the repeat, and it would sample twice a tick
    ("repeated-sensor", ("sensors",), lambda c: c.sensors[:1] + c.sensors,
     f"sensors[1]: duplicate sensor IRI '{EX}accelerometer'"),
    # decide would log a decision and then find no target to act on
    ("undeclared-target", RULE + ("actions",), (Action(ActionKind.ACTIVATE, EX + "nosuch"),),
     f"decider.rules(humidity-alert): ACTIVATE target '{EX}nosuch' is not a declared activator"),
    ("actor-activated", RULE + ("actions",), (Action(ActionKind.ACTIVATE, EX + "opd"),),
     f"decider.rules(humidity-alert): ACTIVATE target '{EX}opd' is not a declared activator"),
    ("activator-alerted", RULE + ("actions",),
     (Action(ActionKind.ALERT, EX + "dehumidifier", "sms"),),
     f"decider.rules(humidity-alert): ALERT target '{EX}dehumidifier' is not a declared actor"),
    # the graph written from these would not parse back
    ("sensor-iri-a-curie", ("sensors", 1, "iri"), "ex:hand",
     "sensors[1]: 'ex:hand' is not an absolute IRI"),
    ("sensor-iri-with-space", ("sensors", 1, "iri"), "https://example.org/a b",
     "sensors[1]: 'https://example.org/a b' is not an absolute IRI"),
    ("place-not-text", ("places",), (5,), "entities.places[0]: 5 is not an absolute IRI"),
    ("actor-not-text", ("actors",), lambda c: c.actors + (5,),
     "entities.actors[1]: 5 is not an absolute IRI"),
    ("decider-iri-bytes", ("decider", "iri"), b"x", "decider: b'x' is not an absolute IRI"),
    ("sensor-iri-none", ("sensors", 0, "iri"), None, "sensors[0]: None is not an absolute IRI"),
    # decide would spend a sample and then fail outside StepFailure
    ("unknown-comparator", RULE + ("comparator",), "~",
     "decider.rules(humidity-alert): unknown comparator '~'"),
    # rule sets no rule text can write: a repeated rule fired twice in one decision
    ("repeated-rule-id", ("decider", "rules"), lambda c: c.decider.rules * 2,
     "decider.rules(humidity-alert): duplicate rule id"),
    ("repeated-rule-id-without-actions", ("decider", "rules"),
     lambda c: c.decider.rules + (c.decider.rules[0]._replace(actions=()),),
     "decider.rules(humidity-alert): duplicate rule id"),
    ("rule-without-actions", RULE + ("actions",), (),
     "decider.rules(humidity-alert): a rule takes at least one action"),
    ("activate-with-a-channel", RULE + ("actions",),
     (Action(ActionKind.ACTIVATE, EX + "dehumidifier", "sms"),),
     "decider.rules(humidity-alert): ACTIVATE takes no VIA channel, not 'sms'"),
    ("activate-with-an-empty-channel", RULE + ("actions",),
     (Action(ActionKind.ACTIVATE, EX + "dehumidifier", ""),),
     "decider.rules(humidity-alert): ACTIVATE takes no VIA channel, not ''"),
]


@pytest.mark.parametrize("path,value,message", [row[1:] for row in HAND_BUILT_REFUSALS],
                         ids=[row[0] for row in HAND_BUILT_REFUSALS])
def test_hand_built_config_is_refused_before_the_graph(monkeypatch, path, value, message):
    config = load_scenario(NOISY)
    broken = _set(config, path, value(config) if callable(value) else value)
    built = []
    monkeypatch.setattr(ScenarioRun, "_build_static", lambda run: built.append(run))
    with pytest.raises(ConfigError, match=re.escape(message)):
        ScenarioRun(broken)
    assert built == []


def test_check_scenario_returns_a_valid_config_unchanged():
    configs = [load_scenario(PISANO), load_scenario(NOISY)]
    configs += [random_scenario(random.Random(seed), f"chk{seed}") for seed in range(20)]
    for config in configs:
        before = config._replace(prefixes=dict(config.prefixes))  # its one mutable part
        assert check_scenario(config) is config and config == before


def _config_paths(node, path=()):
    """The path of every field and tuple member below a config's root."""
    if isinstance(node, tuple):
        steps = node._fields if hasattr(node, "_fields") else range(len(node))
        for step in steps:
            yield path + (step,)
            child = getattr(node, step) if isinstance(step, str) else node[step]
            yield from _config_paths(child, path + (step,))


_NOISY_PATHS = list(_config_paths(load_scenario(NOISY)))
_POOL = st.sampled_from([None, -1, 0, 2 ** 80, "", "yesterday", 0.1, b"x", "\ud800", ()])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_NOISY_PATHS), _POOL), min_size=1, max_size=3))
def test_hand_built_config_is_refused_typed_or_runs_and_writes(changes):
    config = load_scenario(NOISY)
    for path, value in changes:
        try:
            config = _set(config, path, value)
        except (AttributeError, TypeError, IndexError):
            pass  # an earlier change replaced a tuple on this path
    try:
        run = ScenarioRun(config)
    except ConfigError:
        return
    run.run(until=3)
    render_log(run.records).encode("utf-8")
    emit(run.graph)


def test_activation_targets_share_one_iri_each():
    config = scenario(BASIC_SENSOR, duration=4,
                      activators='[{"iri": "ex:pump", "action": "drain"}]',
                      rules='RULE r WHEN TYPE = "humidity" AND VALUE > 70 MODE EVERY '
                            'THEN ACTIVATE ex:pump, ALERT ex:opd VIA "email"')
    run = run_scenario(config)
    targets = [s.object for s in run.graph.statements if s.property in ("HP13", "HP14")]
    assert run.summary()["activations"] == 2 and len(targets) == 4
    assert len({id(t) for t in targets}) == len({t.value for t in targets}) == 2


def test_per_run_work_does_not_grow_with_ticks(monkeypatch):
    """Neither building the run nor running it resolves an IRI, as the
    config holds them expanded; slugging labels is paid once per run, and
    the clock is formatted at most once per tick, whatever the run's length."""
    from twingraph import namespaces, runtime

    sensors = """[
      {"iri": "ex:s1", "measured_type": "humidity", "unit": "%RH",
       "software": "ex:sw", "located_in": "ex:room", "observed_event": "damp air",
       "generator": {"kind": "ramp", "start": 60, "slope": 1}},
      {"iri": "ex:s2", "measured_type": "humidity", "unit": "%RH",
       "software": "ex:sw", "positioned_on": "ex:obj", "period": 2, "phase": 1,
       "generator": {"kind": "constant", "value": 90}}
    ]"""
    rules = ('RULE r WHEN TYPE = "humidity" AND VALUE > 70 MODE EVERY '
             'THEN ACTIVATE ex:pump, ALERT ex:opd VIA "email"')
    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def run_counts(duration):
        config = scenario(sensors, rules=rules, duration=duration,
                          activators='[{"iri": "ex:pump", "action": "drain"}]')
        counts.update(resolve_iri=0, slug=0, format_datetime_utc=0)
        with monkeypatch.context() as patch:
            patch.setattr(namespaces, "resolve_iri",
                          counted("resolve_iri", namespaces.resolve_iri))
            patch.setattr(namespaces, "slug", counted("slug", namespaces.slug))
            patch.setattr(runtime, "format_datetime_utc",
                          counted("format_datetime_utc", runtime.format_datetime_utc))
            run = ScenarioRun(config)
            run.run()
        assert run.summary()["activations"] > duration // 2
        return dict(counts)

    short, long = run_counts(20), run_counts(40)
    assert short["resolve_iri"] == long["resolve_iri"] == 0
    assert short["slug"] == long["slug"]
    assert short["format_datetime_utc"] <= 20
    assert long["format_datetime_utc"] <= 40


def test_until_truncates_run():
    config = scenario(BASIC_SENSOR, duration=4)
    run = run_scenario(config, until=2)
    assert run.summary()["ticks"] == 2
    assert run.summary()["measurements"] == 2
    full = run_scenario(config, until=99)
    assert full.summary()["ticks"] == 4


def test_negative_until_is_refused_before_the_first_tick():
    run = ScenarioRun(scenario(BASIC_SENSOR, duration=4))
    with pytest.raises(ValueError, match="until must not be negative"):
        run.run(-1)
    assert run.records == [] and run.ticks_run == 0
    assert len(run.graph.statements) == run.static_statements


@pytest.mark.parametrize("path", [PISANO, NOISY])
def test_a_second_run_goes_on_from_the_ticks_run(path):
    from twingraph import emit
    config = load_scenario(path)
    whole = run_scenario(config, until=4)
    run = run_scenario(config, until=2)
    run.run(4)
    assert render_log(run.records) == render_log(whole.records)
    assert emit(run.graph) == emit(whole.graph)
    assert run.summary() == whole.summary() and run.ticks_run == config.duration == 3
    run.run(2)  # the clock never goes back
    assert render_log(run.records) == render_log(whole.records)
    assert emit(run.graph) == emit(whole.graph)


def test_an_aborted_run_refuses_to_go_on_and_writes_nothing():
    from twingraph import emit
    with open(PISANO, encoding="utf-8") as handle:
        doc = json.load(handle)
    sensor = next(s for s in doc["sensors"] if s["iri"] == "ex:hygrometer")
    sensor["generator"] = {"kind": "ramp", "start": 0, "slope": "SLOPE"}
    run = ScenarioRun(parse_scenario(json.dumps(doc).replace('"SLOPE"', "9E+999999")))
    with pytest.raises(StepFailure) as failure:
        run.run()
    assert failure.value.tick == 2 and run.ticks_run == 2
    log, graph = render_log(run.records), emit(run.graph)
    for until in (None, 3, 2):
        with pytest.raises(ScenarioError, match="the run aborted"):
            run.run(until)
        assert render_log(run.records) == log and emit(run.graph) == graph


def test_stored_iris_are_never_read_as_curies():
    """Under a prefix named urn, urn:isbn:1 read as a CURIE would become
    https://example.org/u/isbn:1; the run uses the config's IRIs as they are."""
    from twingraph import emit, parse
    sensor = """[{"iri": "ex:s1", "measured_type": "humidity", "unit": "%RH",
      "software": "ex:sw", "located_in": "<urn:isbn:1>",
      "generator": {"kind": "list", "values": [40, 75]}}]"""
    config = scenario(sensor, duration=2, prefixes={"urn": "https://example.org/u/"},
                      places='["ex:room", "<urn:isbn:1>"]', actors='["<urn:x:opd>"]',
                      rules='RULE r WHEN TYPE = "humidity" AND VALUE > 70 '
                            'THEN ALERT <urn:x:opd> VIA "email"')
    run = run_scenario(config)
    g = run.graph
    assert g.nodes["urn:isbn:1"] == {"E53"}
    assert g.objects_of(Iri(config.sensors[0].iri), "P55") == [Iri("urn:isbn:1")]
    assert [r.fields["actor"] for r in run.records if r.kind == "alert"] == ["urn:x:opd"]
    assert not [iri for iri in g.nodes if iri.startswith("https://example.org/u/")]
    parsed, diagnostics = parse(emit(g), g.registry)
    assert not diagnostics
    assert parsed.content_equal(g)


def test_seq_is_globally_increasing_and_log_renders():
    config = scenario(BASIC_SENSOR, duration=3,
                      rules='RULE r WHEN TYPE = "humidity" AND VALUE > 70 '
                            'THEN ALERT ex:opd VIA "email"')
    run = run_scenario(config)
    seqs = [r.seq for r in run.records]
    assert seqs == list(range(len(seqs)))
    ordered = sorted(run.records, key=lambda r: (r.tick, r.seq))
    assert ordered == run.records
    text = render_log(run.records)
    lines = text.splitlines()
    assert text.endswith("\n")
    assert len(lines) == len(run.records)
    first = json.loads(lines[0])
    assert list(lines[0].split('"')[1::2])[0] == "kind"
    assert first["kind"] == "measurement"


def test_double_runs_are_byte_identical():
    from twingraph import emit
    rng = random.Random(404)
    config = random_scenario(rng, "twice")
    a = run_scenario(config)
    b = run_scenario(config)
    assert emit(a.graph) == emit(b.graph)
    assert render_log(a.records) == render_log(b.records)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_activation_chain_names_the_logged_signal(seed):
    run = run_scenario(random_scenario(random.Random(seed), "cause"))
    for record in run.records:
        if record.kind == "activation":
            chain = run.graph.provenance_chain(Iri(record.fields["activation"]))
            assert chain[1].property == "HP12"
            assert chain[1].subject.value == record.fields["signal"]


# --- shared node type sets ---

def type_set_objects(graph):
    """How many type-set objects the nodes hold, checked to be one per class set."""
    assert all(type(types) is frozenset for types in graph.nodes.values())
    objects = len({id(types) for types in graph.nodes.values()})
    assert objects == len(set(map(frozenset, graph.nodes.values())))
    return objects


def test_pisano_graphs_share_one_type_set_per_class_set():
    from twingraph import parse
    with open("examples/pisano/scenario.json", encoding="utf-8") as handle:
        scenario = json.load(handle)
    scenario["duration"] = 40
    run = ScenarioRun(parse_scenario(json.dumps(scenario)))
    run.run()
    with open("examples/pisano/golden.rht.ttl", encoding="utf-8") as handle:
        golden, _ = parse(handle.read(), load_seed())
    for graph in (run.graph, golden):
        assert type_set_objects(graph) < len(graph.nodes)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32))
def test_random_runs_share_one_type_set_per_class_set(seed):
    type_set_objects(run_scenario(random_scenario(random.Random(seed), "shared")).graph)


# --- whole-run oracles over random scenarios ---

@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_emitted_graph_round_trips(seed):
    from twingraph import emit, parse
    run = run_scenario(random_scenario(random.Random(seed), "trip"))
    text = emit(run.graph)
    parsed, diagnostics = parse(text, run.graph.registry)
    assert not diagnostics
    assert parsed.content_equal(run.graph)
    assert emit(parsed) == text


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_shorter_run_is_a_prefix(seed):
    rng = random.Random(seed)
    config = random_scenario(rng, "prefix")
    until = rng.randint(0, config.duration)
    full, part = run_scenario(config), run_scenario(config, until)
    assert render_log(full.records).startswith(render_log(part.records))
    assert part.graph.statements.keys() <= full.graph.statements.keys()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_entity_and_sensor_order_does_not_matter(seed):
    from twingraph import emit
    rng = random.Random(seed)
    document = json.loads(random_scenario_text(rng, "order"))
    before = run_scenario(parse_scenario(json.dumps(document)))
    for value in document["entities"].values():
        if isinstance(value, list):
            rng.shuffle(value)
    rng.shuffle(document["sensors"])
    after = run_scenario(parse_scenario(json.dumps(document)))
    assert emit(after.graph) == emit(before.graph)
    assert render_log(after.records) == render_log(before.records)


def test_static_world_matches_config():
    config = load_scenario("examples/pisano/scenario.json")
    run = ScenarioRun(config)
    g = run.graph
    pulpit = "http://www.wikidata.org/entity/Q3925522"
    assert g.nodes[pulpit] == {"HC3"}
    for subject, property_id, obj in (
            ("wd:Q3925522", "P55", "wd:Q1148335"),
            ("ex:pulpit-twin", "HP1", "wd:Q3925522"),
            ("ex:accelerometer", "HP15", "wd:Q3925522"),
            ("ex:hygrometer", "P55", "wd:Q1148335"),
            ("ex:accelerometer", "HP11", "ex:monitoring-sw"),
            ("ex:hygrometer", "HP11", "ex:monitoring-sw")):
        assert Statement(g.resolve(subject), property_id, g.resolve(obj)) in g.statements
    assert run.static_statements == 6


def test_two_rules_activating_one_activator_give_one_actuation():
    config = scenario(
        BASIC_SENSOR, duration=3,
        activators='[{"iri": "ex:pump", "action": "drain"}]',
        rules=('RULE a WHEN TYPE = "humidity" AND VALUE > 70 THEN ACTIVATE ex:pump\n'
               'RULE b WHEN TYPE = "humidity" AND VALUE >= 75 THEN ACTIVATE ex:pump'))
    run = run_scenario(config)
    tail = [(r.kind, r.fields) for r in run.records if r.tick == 2][-2:]
    assert tail == [
        ("activation", {"activation": "https://example.org/run/act/s1/2",
                        "decider": "https://example.org/rt/brain",
                        "firedRules": ("a", "b"),
                        "signal": "https://example.org/run/sig/s1/2"}),
        ("actuation", {"action": "drain",
                       "activation": "https://example.org/run/act/s1/2",
                       "activator": "https://example.org/rt/pump"})]


def test_target_both_activator_and_actor_gets_actuation_then_alert():
    config = scenario(
        BASIC_SENSOR, duration=3,
        activators='[{"iri": "ex:hub", "action": "ring"}]', actors='["ex:hub"]',
        rules=('RULE a WHEN TYPE = "humidity" AND VALUE > 70 '
               'THEN ALERT ex:hub VIA "sms", ACTIVATE ex:hub'))
    run = run_scenario(config)
    act = "https://example.org/run/act/s1/2"
    hub = "https://example.org/rt/hub"
    assert [(r.kind, r.fields) for r in run.records if r.tick == 2][-2:] == [
        ("actuation", {"action": "ring", "activation": act, "activator": hub}),
        ("alert", {"activation": act, "actor": hub, "channel": "sms"})]
    assert run.graph.nodes[hub] == {"E39", "HC11"}
