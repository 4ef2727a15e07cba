"""Command line behaviour: exit codes, stream separation, file outputs."""

import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from argparse import Namespace
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: no tomllib in the standard library
    tomllib = None

from twingraph import (StepFailure, emit, load_scenario, parse_scenario, render_log,
                       run_scenario)
from twingraph.cli import _write_outputs, main
from twingraph.errors import ScenarioError

GOLDEN_GRAPH = "examples/pisano/golden.rht.ttl"
GOLDEN_LOG = "examples/pisano/golden.log.jsonl"
SCENARIO = "examples/pisano/scenario.json"
REPO = Path(__file__).resolve().parent.parent


def test_version_string(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == "twingraph 0.1.0 (seed 2026.1)\n"


def _declared_console_script():
    """The `twingraph` entry of `[project.scripts]`, started as the
    wrapper an install writes would start it."""
    with open(REPO / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["twingraph"]
    module, func = target.split(":")
    return [sys.executable, "-c",
            f"import sys; from {module} import {func}; "
            f"sys.argv[0] = 'twingraph'; sys.exit({func}())"]


def test_console_script_is_installed(tmp_path):
    """The declared entry point runs from the checkout without an install,
    and an installed `twingraph` on the PATH runs too wherever there is one."""
    env = dict(os.environ)
    commands = []
    installed = shutil.which("twingraph")
    if installed is not None:
        commands.append(([installed], env))
    if tomllib is not None:
        src_env = dict(env, PYTHONPATH=os.pathsep.join(
            filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])))
        commands.append((_declared_console_script(), src_env))
    if not commands:
        pytest.skip("tomllib is not importable and no twingraph is on the PATH")
    for command, command_env in commands:
        proc = subprocess.run(command + ["--version"], capture_output=True,
                              text=True, cwd=tmp_path, env=command_env)
        assert proc.returncode == 0
        assert proc.stdout.startswith("twingraph 0.1.0")


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exit_info:
        main([])
    assert exit_info.value.code == 2


def test_validate_clean_graph(capsys):
    assert main(["validate", GOLDEN_GRAPH]) == 0
    captured = capsys.readouterr()
    assert captured.out == "0 violations\n"
    assert captured.err == ""


def test_validate_reports_positions_and_counts(tmp_path, capsys):
    bad = tmp_path / "bad.rht.ttl"
    bad.write_text('@prefix ex: <https://example.org/x/> .\n'
                   'ex:a a hdto:HC3 .\n'
                   'ex:a crm:P55 ex:nowhere .\n'
                   'ex:a crmsci:O13 ex:a .\n', encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "2 violations\n"
    lines = captured.err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("3:14 error UnknownObject:")
    assert lines[1].startswith("4:6 error DomainViolation:")


def test_validate_missing_file(capsys):
    assert main(["validate", "/no/such.rht.ttl"]) == 2
    assert capsys.readouterr().err != ""


# The noisy case pins bytes that depend on how libm rounds log, cos and sin.
GOLDEN_CASES = [
    (SCENARIO, GOLDEN_GRAPH, GOLDEN_LOG),
    ("examples/pisano/scenario-noisy.json", "examples/pisano/golden-noisy.rht.ttl",
     "examples/pisano/golden-noisy.log.jsonl"),
]


def test_run_golden_scenario(tmp_path, capsys):
    for scenario, golden_graph, golden_log in GOLDEN_CASES:
        out = tmp_path / "g.rht.ttl"
        log = tmp_path / "g.log.jsonl"
        code = main(["run", scenario, "--out", str(out), "--log", str(log)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == ("ticks=3 measurements=6 signals=6 "
                                "activations=1 alerts=1\n")
        with open(golden_graph, "rb") as handle:
            assert out.read_bytes() == handle.read(), scenario
        with open(golden_log, "rb") as handle:
            assert log.read_bytes() == handle.read(), scenario


def test_run_without_outputs_prints_only_summary(capsys):
    assert main(["run", SCENARIO]) == 0
    assert capsys.readouterr().out.startswith("ticks=3 ")


def test_run_until_zero(capsys):
    assert main(["run", SCENARIO, "--until", "0"]) == 0
    assert capsys.readouterr().out == ("ticks=0 measurements=0 signals=0 "
                                       "activations=0 alerts=0\n")


def test_run_negative_until(capsys):
    assert main(["run", SCENARIO, "--until", "-1"]) == 2
    assert "--until" in capsys.readouterr().err


def test_run_missing_scenario(capsys):
    assert main(["run", "/no/such.json"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_run_non_json_scenario(tmp_path, capsys):
    path = tmp_path / "not.json"
    path.write_text("hello", encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_input_that_is_not_utf8_is_exit_2(tmp_path, capsys):
    path = tmp_path / "bad"
    path.write_bytes(b"\xff")
    for argv in (["validate", str(path)], ["query", str(path), "--instances-of", "HC9"],
                 ["chain", str(path), "--from", "run:x"], ["run", str(path)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "utf-8" in err, (argv, err)
        assert f"{path}: " in err, (argv, err)


def test_run_aborted_step_writes_partial_outputs(tmp_path, capsys, monkeypatch):
    config = load_scenario(SCENARIO)
    finished = run_scenario(config)

    class Doomed:
        def __init__(self, config):
            pass

        def run(self, until=None):
            raise StepFailure(ScenarioError("sensor ex:x is not in the graph"),
                              finished.graph, finished.records, tick=1)

    monkeypatch.setattr("twingraph.cli.ScenarioRun", Doomed)
    out = tmp_path / "partial.rht.ttl"
    log = tmp_path / "partial.log.jsonl"
    code = main(["run", SCENARIO, "--out", str(out), "--log", str(log)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("run aborted: tick 1:")
    with open(GOLDEN_GRAPH, "rb") as handle:
        assert out.read_bytes() == handle.read()
    last = log.read_text(encoding="utf-8").splitlines()[-1]
    assert json.loads(last) == {"aborted": "tick 1: sensor ex:x is not in the graph"}


def test_generator_overflow_aborts_the_run(tmp_path, capsys):
    with open(SCENARIO, encoding="utf-8") as handle:
        doc = json.load(handle)
    sensor = next(s for s in doc["sensors"] if s["iri"] == "ex:hygrometer")
    sensor["generator"] = {"kind": "ramp", "start": 0, "slope": 1}
    scenario = tmp_path / "overflow.json"
    # 9E+999999 is a valid JSON number; twice it is past the decimal range
    scenario.write_text(json.dumps(doc).replace('"slope": 1', '"slope": 9E+999999'),
                        encoding="utf-8")
    out = tmp_path / "partial.rht.ttl"
    log = tmp_path / "partial.log.jsonl"
    code = main(["run", str(scenario), "--out", str(out), "--log", str(log)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    message = ("tick 2: sensor https://example.org/pisano/hygrometer sample 2: "
               "generator value out of range (Overflow)")
    assert captured.err == f"run aborted: {message}\n"
    assert out.read_text(encoding="utf-8").startswith("@prefix")
    lines = log.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[-1]) == {"aborted": message}
    assert len(lines) > 1


def _run_outputs(tmp_path, scenario_text):
    """Exit code and the graph and log bytes `twingraph run` writes."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(scenario_text, encoding="utf-8")
    out = tmp_path / "run.rht.ttl"
    log = tmp_path / "run.log.jsonl"
    code = main(["run", str(scenario), "--out", str(out), "--log", str(log)])
    return code, out.read_bytes(), log.read_bytes()


@pytest.mark.parametrize("path", [SCENARIO, "examples/pisano/scenario-noisy.json"])
def test_run_writes_what_emit_and_render_log_render(tmp_path, path):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["duration"] = 40
    run = run_scenario(parse_scenario(json.dumps(doc)))
    assert run.summary()["activations"] > 0
    code, graph_bytes, log_bytes = _run_outputs(tmp_path, json.dumps(doc))
    assert code == 0
    assert graph_bytes == emit(run.graph).encode("utf-8")
    assert log_bytes == render_log(run.records).encode("utf-8")


def test_aborted_run_writes_the_partial_log_then_the_aborted_line(tmp_path):
    with open(SCENARIO, encoding="utf-8") as handle:
        doc = json.load(handle)
    sensor = next(s for s in doc["sensors"] if s["iri"] == "ex:hygrometer")
    sensor["generator"] = {"kind": "ramp", "start": 0, "slope": 1}
    text = json.dumps(doc).replace('"slope": 1', '"slope": 9E+999999')
    with pytest.raises(StepFailure) as failure:
        run_scenario(parse_scenario(text))
    code, graph_bytes, log_bytes = _run_outputs(tmp_path, text)
    assert code == 1
    assert graph_bytes == emit(failure.value.graph).encode("utf-8")
    aborted = ('{"aborted":"tick 2: sensor https://example.org/pisano/hygrometer '
               'sample 2: generator value out of range (Overflow)"}\n')
    assert log_bytes == (render_log(failure.value.records) + aborted).encode("utf-8")


def test_writer_peak_memory_per_output_byte(tmp_path):
    # The log goes to its file one line at a time, so its traced peak is
    # about a write buffer: 0.06 of the log's bytes at 200 ticks, 2.25 when
    # the whole log is joined first. The graph text is one join of
    # per-subject blocks: about 3.7 traced bytes per text byte, 8.3 with a
    # list per (subject, property) and a header + body copy.
    with open(SCENARIO, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["duration"] = 200
    run = run_scenario(parse_scenario(json.dumps(doc)))

    def traced_peak(out=None, log=None):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _write_outputs(Namespace(out=out, log=log), run.graph, run.records)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    out = tmp_path / "run.rht.ttl"
    log = tmp_path / "run.log.jsonl"
    graph_peak = traced_peak(out=str(out))
    log_peak = traced_peak(log=str(log))
    assert log.stat().st_size > 300_000
    assert log_peak < 0.2 * log.stat().st_size
    assert graph_peak < 6 * out.stat().st_size


def test_query_direct_and_transitive(capsys):
    assert main(["query", GOLDEN_GRAPH, "--instances-of", "HC9"]) == 0
    direct = capsys.readouterr().out.splitlines()
    assert direct == ["https://example.org/pisano/accelerometer",
                      "https://example.org/pisano/hygrometer"]
    assert main(["query", GOLDEN_GRAPH, "--instances-of", "D8",
                 "--subclasses"]) == 0
    wide = capsys.readouterr().out.splitlines()
    assert wide == direct
    assert main(["query", GOLDEN_GRAPH, "--instances-of", "D8"]) == 0
    assert capsys.readouterr().out == ""


def test_query_unknown_class(capsys):
    assert main(["query", GOLDEN_GRAPH, "--instances-of", "NOPE"]) == 2
    assert "unknown class" in capsys.readouterr().err


def test_query_unparseable_graph(tmp_path, capsys):
    path = tmp_path / "broken.rht.ttl"
    path.write_text("this is not a graph\n", encoding="utf-8")
    assert main(["query", str(path), "--instances-of", "HC9"]) == 1
    assert capsys.readouterr().err != ""


def test_chain_from_activation(capsys):
    code = main(["chain", GOLDEN_GRAPH, "--from", "run:act/hygrometer/2"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    properties = [line.split("--")[1] for line in lines]
    assert properties == ["O13", "HP12", "L20", "L12", "P55"]
    assert lines[0].startswith("https://example.org/pisano/decider ")
    # six signals reach the decider; the walk takes the one the activation
    # answered, which shares its sensor and index, not the earliest one
    assert "sig/hygrometer/2" in lines[1]
    # the hygrometer is located in the church rather than on the pulpit
    assert lines[-1].endswith("http://www.wikidata.org/entity/Q1148335")


def test_chain_from_measurement_is_shorter(capsys):
    assert main(["chain", GOLDEN_GRAPH, "--from", "run:m/accelerometer/0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("--")[1] for line in lines] == ["L12", "HP15"]
    assert lines[-1].endswith("http://www.wikidata.org/entity/Q3925522")


def test_chain_rejects_non_provenance_start(capsys):
    assert main(["chain", GOLDEN_GRAPH, "--from", "ex:decider"]) == 2
    assert capsys.readouterr().err != ""


def test_chain_rejects_unknown_prefix(capsys):
    assert main(["chain", GOLDEN_GRAPH, "--from", "zz:x"]) == 2
    assert "zz" in capsys.readouterr().err


@pytest.mark.parametrize("start", ["http://x y", "<http://x>y>", 'ex:a"b'])
def test_chain_rejects_uncarriable_iri(capsys, start):
    assert main(["chain", GOLDEN_GRAPH, "--from", start]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "cannot carry" in err and "Traceback" not in err


# "https" names a prefix here, yet "https://..." still names an absolute IRI.
SCHEME_PREFIX_GRAPH = ("@prefix https: <urn:x:> .\n"
                       "<https://e.org/m> a rhdto:HC13 ; crmdig:L12 <urn:x://e.org/s> .\n"
                       "<urn:x://e.org/s> a rhdto:HC9 .\n")


@pytest.mark.parametrize("start", ["https://e.org/m", "<https://e.org/m>"])
def test_chain_from_iri_whose_scheme_is_a_prefix_name(tmp_path, capsys, start):
    path = tmp_path / "graph.rht.ttl"
    path.write_text(SCHEME_PREFIX_GRAPH, encoding="utf-8")
    assert main(["chain", str(path), "--from", start]) == 0
    assert capsys.readouterr().out == "https://e.org/m --L12--> urn:x://e.org/s\n"


def test_chain_requires_from_flag():
    with pytest.raises(SystemExit) as exit_info:
        main(["chain", GOLDEN_GRAPH])
    assert exit_info.value.code == 2
