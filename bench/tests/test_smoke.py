"""Tiny-size smoke test of the benchmark (not part of tier-1).

    python3 -m pytest -q bench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

TINY_TICKS = 6


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name in list(run.WORKLOADS):
        monkeypatch.setitem(run.WORKLOADS, name, TINY_TICKS)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    return tmp_path


def test_generator_is_deterministic_per_seed():
    for seed in (0, 7):
        for quiet in (False, True):
            assert gen.scenario_text(gen.make_world(seed), 12, quiet) == \
                gen.scenario_text(gen.make_world(seed), 12, quiet)
        assert gen.run_shaped_graph(gen.make_world(seed), 12) == \
            gen.run_shaped_graph(gen.make_world(seed), 12)
    assert gen.scenario_text(gen.make_world(0), 12, False) != \
        gen.scenario_text(gen.make_world(7), 12, False)
    assert gen.scenario_text(gen.make_world(0), 12, False) != \
        gen.scenario_text(gen.make_world(0), 12, True)


def _run(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_one_command_prints_every_metric_with_its_unit(tiny, capsys, workload):
    lines, result = _run(capsys, workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.END_TO_END
    for name, unit in [*run.END_TO_END.items(), ("fail_ratio", "ratio")]:
        assert any(line.split()[:1] == [name] and line.endswith(f" {unit}")
                   for line in lines), name
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["run-alert", "run-quiet"])
def test_traced_run_reports_every_layer_metric(tiny, capsys, workload):
    _, result = _run(capsys, workload, 1)
    # correct also means traced and untraced jobs gave the same digests
    assert result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        run.per_layer_units()
    calls = result["metrics"]["graph.objects_of.calls"]["value"]
    assert (calls > 0) if workload == "run-alert" else (calls == 0)


def _job(capsys, tmp_path, job_id):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(gen.scenario_text(gen.make_world(3), TINY_TICKS, False))
    assert worker.main(["worker", "run-alert", str(scenario), str(tmp_path),
                        "3", str(job_id), "0"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_corrupted_output_raises_fail_ratio(capsys, monkeypatch, tmp_path):
    import twingraph.textformat

    # Run in-process, with no run.py on the other end to answer pauses.
    monkeypatch.setattr(worker, "pause", lambda: None)

    results = [_job(capsys, tmp_path, 0), _job(capsys, tmp_path, 1)]
    emit = twingraph.textformat.emit
    monkeypatch.setattr(twingraph.textformat, "emit",
                        lambda graph: emit(graph).rsplit("\n\n", 1)[0] + "\n")
    results.append(_job(capsys, tmp_path, 2))
    assert results[2]["problems"]
    assert run.judge(results) == 1
    assert [r["failed"] for r in results] == [False, False, True]
