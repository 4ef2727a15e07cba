"""Reactive runtime: scheduling, generators, step semantics, logging."""

import dataclasses
import json
import random
import statistics
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from twingraph import (
    Iri,
    StepFailure,
    load_scenario,
    load_seed,
    parse_scenario,
    render_log,
    run_scenario,
    schedule_due,
)
from twingraph.config import (
    ConstantGen,
    DeciderSpec,
    ListGen,
    NoisyGen,
    RampGen,
    SensorSpec,
    SineGen,
)
from twingraph.errors import (
    ActionTargetMissingError,
    ConfigError,
    StatementViolationError,
    UnknownObjectError,
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
    fewer = dataclasses.replace(config, sensors=config.sensors[3:] + config.sensors[:2])
    for cfg in (config, crossed, fewer):
        dues = [schedule_due(cfg, tick) for tick in range(12)]
        for tick, due in enumerate(dues):
            expected = sorted(
                (s for s in cfg.sensors
                 if tick >= s.phase and (tick - s.phase) % s.period == 0),
                key=lambda s: s.iri)
            assert [s.iri for s in due] == [s.iri for s in expected]
        if cfg is crossed:
            assert sorted(curie_of) == [s.iri for s in cfg.sensor_order]
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
    # the measurement's fold links it to a sensor node the graph lacks
    with pytest.raises(UnknownObjectError, match="ex:ghost"):
        run.sample(ghost, 0)
    assert run.records == []


def test_make_signal_rejects_non_measurement():
    config = scenario(BASIC_SENSOR, duration=1)
    run = ScenarioRun(config)
    spec = config.sensors[0]
    # L20 must start at a measurement; ex:obj is an asset
    with pytest.raises(StatementViolationError) as err:
        run.make_signal(Iri("https://example.org/rt/obj"), spec, 0,
                        Decimal(1), 0)
    assert err.value.reason is ViolationReason.DOMAIN_VIOLATION
    assert run.records == []


def test_execute_activation_rejects_other_nodes():
    config = scenario(BASIC_SENSOR, duration=1)
    run = ScenarioRun(config)
    opd = Iri("https://example.org/rt/opd")
    # HP14 must start at an activation event; ex:obj is an asset
    with pytest.raises(StatementViolationError) as err:
        run.execute_activation(Iri("https://example.org/rt/obj"),
                               [(Action(ActionKind.ALERT, opd.value, "email"), opd)], 0)
    assert err.value.reason is ViolationReason.DOMAIN_VIOLATION
    assert run.records == []


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
    assert all(d.fields["firedRules"] == [] for d in decisions)


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


def test_missing_action_target_aborts_atomically():
    config = scenario(BASIC_SENSOR, duration=4)
    from twingraph import parse_rules
    rules, diagnostics = parse_rules(
        'RULE r WHEN TYPE = "humidity" AND VALUE > 70 THEN ACTIVATE ex:nosuch')
    assert not diagnostics
    import dataclasses
    broken = dataclasses.replace(
        config, decider=DeciderSpec(iri=config.decider.iri, rules=tuple(rules)))
    with pytest.raises(StepFailure) as err:
        run_scenario(broken)
    failure = err.value
    assert isinstance(failure.cause, ActionTargetMissingError)
    assert failure.tick == 2
    # nothing was written: no activation node, no O13 edge
    g = failure.graph
    assert not [i for i in g.instances_of("HC14")]
    kinds = [r.kind for r in failure.records]
    assert "decision" in kinds and "activation" not in kinds


@pytest.mark.parametrize("text", ["ex:hand", "https://example.org/a b"])
def test_config_iri_the_graph_text_cannot_carry_is_refused(text):
    # a config built by hand skips build_scenario's checks; the graph written
    # from it would not parse back
    config = load_scenario("examples/pisano/scenario.json")
    sensors = tuple(dataclasses.replace(s, iri=text) if s.iri.endswith("/hygrometer") else s
                    for s in config.sensors)
    with pytest.raises(ConfigError, match=f"{text!r} is not an absolute IRI"):
        ScenarioRun(dataclasses.replace(config, sensors=sensors))


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
    assert g.has_statement("wd:Q3925522", "P55", "wd:Q1148335")
    assert g.has_statement("ex:pulpit-twin", "HP1", "wd:Q3925522")
    assert g.has_statement("ex:accelerometer", "HP15", "wd:Q3925522")
    assert g.has_statement("ex:hygrometer", "P55", "wd:Q1148335")
    assert g.has_statement("ex:accelerometer", "HP11", "ex:monitoring-sw")
    assert g.has_statement("ex:hygrometer", "HP11", "ex:monitoring-sw")
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
                        "firedRules": ["a", "b"],
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
