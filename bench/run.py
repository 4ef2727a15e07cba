"""twingraph benchmark: end-to-end and per-layer metrics on generated inputs.

    python3 bench/run.py --workload run-alert --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. It generates the workload's inputs from
--seed, then starts one job after another, each in a fresh interpreter
(bench/worker.py), until --seconds have passed, and at least MIN_JOBS jobs.
One job runs at a time. Human-readable lines come first; the last line of
standard output is one JSON object with correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. A traced run alternates traced and untraced jobs, so it can
report the tracing overhead and check that both give the same output
digests. Generated inputs go to .bench_work/ and are removed at the end;
spans of a traced run are kept in .bench_work/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import gen
import spans
import worker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
MIN_JOBS = 3
# A run must end within 180 s; no new job starts after this much time.
LAST_START_S = 110
JOB_TIMEOUT_S = 60
# Typical time of speed_probe on the machine the benchmark was defined on
# (a shared 2-vCPU Intel Xeon virtual machine); see scaled().
NOMINAL_PROBE_S = 0.0145


# Workload name -> ticks of the generated run.
WORKLOADS = {
    # The activation path: about half the signals fire, and each firing
    # runs decide's target resolution and execute_activation, which calls
    # Graph.objects_of. Store indexes and activation-path changes show here.
    # Quadratic at the seed, so kept at 100 ticks: tractable now, and still
    # well above timer noise once the path is linear.
    "run-alert": 100,
    # Same sensors, ticks and seed, but no value reaches a threshold: the
    # activation path is bypassed and the time goes to sampling, statement
    # validation, rule evaluation, emit and the event log. An objects_of
    # index should show no change here; its write-side cost would.
    "run-quiet": 100,
    # The read side of the same store: parse a run-shaped graph written by
    # the generator (not by twingraph run, so the input does not depend on
    # the code under test), validate it, then walk provenance chains.
    "graph-read": 200,
}

END_TO_END = {"setup_s": "s", "job_s": "s", "peak_rss_mib": "MiB",
              "chain_ms_p50": "ms", "chain_ms_p90": "ms"}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.calls": "count" for name in spans.CALLS}
    units.update({f"{name}.self_s": "s" for name in spans.SELF_TIMES})
    units.update({
        "graph.statements": "count", "graph.bytes_per_statement": "B",
        "rules.fire_ratio": "ratio", "runtime.tick_ms_p50": "ms",
        "runtime.tick_ms_p99": "ms", "runtime.tick_growth": "ratio",
        "runtime.log_bytes": "B", "textformat.emit.mb_per_s": "MB/s",
        "textformat.parse.mb_per_s": "MB/s", "trace.overhead": "ratio",
    })
    return units


def speed_probe() -> float:
    """Best of three timings of a fixed stdlib-only task shaped like the
    engine's own work: frozen records deduplicated through a set, a dict
    index, Decimal quantizing and sorted-key JSON. It runs in this process,
    which never imports twingraph, so it measures the machine, not the
    program, and no change to the program's process-wide state (gc
    settings, the decimal context) reaches it."""

    @dataclass(frozen=True)
    class Record:
        subject: str
        prop: str
        obj: str

    quantum = Decimal("1E-6")
    best = float("inf")
    for _ in range(3):
        began = time.perf_counter()
        seen, rows, index = set(), [], {}
        for i in range(1500):
            record = Record(f"https://example.org/run/m/s{i % 20}/{i}",
                            f"L{i % 7}", f"https://example.org/x/{i % 50}")
            if record not in seen:
                seen.add(record)
                rows.append(record)
            index.setdefault(record.obj, []).append(record.subject)
            value = (Decimal(i) / 7).quantize(quantum)
            rows.append(json.dumps({"kind": "m", "seq": i, "subject": record.subject,
                                    "value": str(value)}, sort_keys=True))
        sorted(index)
        best = min(best, time.perf_counter() - began)
    return best


def write_inputs(workload: str, seed: int, workdir: Path) -> tuple[Path, list[str]]:
    """The job's input file and the worker arguments that describe it."""
    world = gen.make_world(seed)
    ticks = WORKLOADS[workload]
    if workload == "graph-read":
        doc = gen.run_shaped_graph(world, ticks)
        path = workdir / "input.rht.ttl"
        path.write_text(doc.text, encoding="utf-8")
        return path, [str(doc.nodes), str(doc.statements)]
    path = workdir / "scenario.json"
    path.write_text(gen.scenario_text(world, ticks, quiet=workload == "run-quiet"),
                    encoding="utf-8")
    return path, []


def run_job(workload, input_path, workdir, seed, job_id, traced, extra, deadline,
            probe_before):
    """Start one worker and wait for it; returns its result or a failure.

    Each time the worker pauses between phases, the speed probe is timed
    here while the worker waits. The result's "probe" holds probe_before,
    the probe at each pause and the probe after the worker has exited.
    """
    command = [sys.executable, str(BENCH / "worker.py"), workload, str(input_path),
               str(workdir), str(seed), str(job_id), "1" if traced else "0", *extra]
    probes, lines = [probe_before], []
    timeout = max(1.0, min(JOB_TIMEOUT_S, deadline - time.monotonic()))
    with tempfile.TemporaryFile("w+") as errors, \
            subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             stderr=errors, text=True) as worker_process:
        timed_out = threading.Event()

        def overrun():
            # Killing the worker ends the reads below.
            timed_out.set()
            worker_process.kill()

        timer = threading.Timer(timeout, overrun)
        timer.start()
        try:
            for line in worker_process.stdout:
                if line.strip() != worker.PAUSE:
                    lines.append(line)
                    continue
                probes.append(speed_probe())
                worker_process.stdin.write("\n")
                worker_process.stdin.flush()
        except BrokenPipeError:
            pass
        finally:
            returncode = worker_process.wait()
            timer.cancel()
        probes.append(speed_probe())
        if returncode != 0 or not lines:
            errors.seek(0)
            sys.stderr.write(errors.read()[-2000:])
            problem = ("job timed out" if timed_out.is_set()
                       else f"worker exited with {returncode}")
            return {"job": job_id, "traced": traced, "problems": [problem]}, probes[-1]
    result = json.loads(lines[-1])
    result["probe"] = probes
    return result, probes[-1]


def judge(results: list[dict]) -> int:
    """Mark failed jobs; returns how many failed. A job fails on any check
    problem, or when its output digests differ from the most common ones,
    which covers repeated jobs and traced against untraced jobs."""
    digests = Counter(json.dumps(r["digest"], sort_keys=True)
                      for r in results if "digest" in r)
    modal = digests.most_common(1)[0][0] if digests else None
    failed = 0
    for r in results:
        if "digest" in r and json.dumps(r["digest"], sort_keys=True) != modal:
            r["problems"].append("output digests differ from the other jobs")
        r["failed"] = bool(r["problems"])
        failed += r["failed"]
    return failed


def scaled(r: dict) -> dict[str, object]:
    """A job's times at the nominal machine speed.

    A shared virtual machine's speed drifts by up to a third over seconds
    to minutes, as other tenants load the host, which would move a whole
    run. The worker pauses after set-up, after the job and after the chain
    walks, and run.py times speed_probe before the worker starts, at each
    pause and after it exits. Every interval is multiplied by
    NOMINAL_PROBE_S over the geometric mean of the two probe times on
    either side of it, so a slow spell of the machine cancels out. The
    probe shares no code with twingraph, so a slower program does not.
    """
    start, after_setup, after_job, after_chains, _ = r["probe"]

    def factor(before, after):
        return NOMINAL_PROBE_S / (before * after) ** 0.5

    chain_factor = factor(after_job, after_chains)
    return {"setup_s": r["setup_s"] * factor(start, after_setup),
            "job_s": r["job_s"] * factor(after_setup, after_job),
            "chain_ms": [ms * chain_factor for ms in r["chain_ms"]]}


def medians(jobs: list[dict]) -> dict[str, float]:
    """Median set-up and job time, and chain latency quantiles pooled over
    the jobs' calls."""
    chains = sorted(ms for j in jobs for ms in j["chain_ms"])
    return {"setup_s": statistics.median(j["setup_s"] for j in jobs),
            "job_s": statistics.median(j["job_s"] for j in jobs),
            "chain_ms_p50": statistics.median(chains),
            "chain_ms_p90": statistics.quantiles(chains, n=10)[8]}


def end_to_end(results: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Metrics over the run's untraced jobs at the nominal machine speed,
    and the same medians unscaled, for the human-readable lines."""
    done = [r for r in results if "job_s" in r and not r["traced"]]
    metrics = medians([scaled(r) for r in done])
    metrics["peak_rss_mib"] = statistics.median(r["peak_rss_mib"] for r in done)
    return {name: metrics[name] for name in END_TO_END}, medians(done)


def per_layer(results: list[dict]) -> dict[str, float]:
    traced = [r for r in results if "job_s" in r and r["traced"]]
    plain = [r for r in results if "job_s" in r and not r["traced"]]
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    statements = metrics["graph.statements"]
    rss = statistics.median(r["peak_rss_mib"] for r in plain)
    metrics["graph.bytes_per_statement"] = rss * 2 ** 20 / statements if statements else 0.0
    metrics["trace.overhead"] = (statistics.median(r["job_s"] for r in traced)
                                 / statistics.median(r["job_s"] for r in plain))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "twingraph" / "__init__.py").is_file():
        print(f"no twingraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # The first import compiles bytecode; users do not pay that on every run.
    warm = subprocess.run([sys.executable, "-c", "import twingraph"],
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True)
    if warm.returncode != 0:
        sys.stderr.write(warm.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        input_path, extra = write_inputs(args.workload, args.seed, workdir)
        started = time.monotonic()
        stop_at = started + args.seconds
        deadline = started + LAST_START_S + JOB_TIMEOUT_S
        min_jobs = max(MIN_JOBS, 4 if args.trace else 0)
        results, wall = [], {}
        # The probe after one job is the probe before the next.
        probe = speed_probe()
        while (len(results) < min_jobs or time.monotonic() < stop_at) \
                and time.monotonic() - started < LAST_START_S:
            traced = bool(args.trace) and len(results) % 2 == 0
            result, probe = run_job(args.workload, input_path, workdir, args.seed,
                                    len(results), traced, extra, deadline, probe)
            results.append(result)
        failed = judge(results)
        for r in results:
            for problem in r["problems"]:
                print(f"job {r['job']}: {problem}", file=sys.stderr)
        if args.trace:
            if not any("layers" in r and r["traced"] for r in results) \
                    or not any("job_s" in r and not r["traced"] for r in results):
                return 1
            units, metrics = per_layer_units(), per_layer(results)
            spans_dir = WORK / "spans"
            spans_dir.mkdir(exist_ok=True)
            shutil.move(str(workdir / "spans.tsv"),
                        spans_dir / f"{args.workload}-seed{args.seed}.tsv")
        else:
            if not any("job_s" in r for r in results):
                return 1
            units = END_TO_END
            metrics, wall = end_to_end(results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  jobs {len(results)}  "
          f"elapsed {time.monotonic() - started:.1f} s")
    print(f"  {'fail_ratio':32s} {failed / len(results):12.6g} ratio")
    for name, value in metrics.items():
        unscaled = f"   wall {wall[name]:.6g} {units[name]}" if name in wall else ""
        print(f"  {name:32s} {value:12.6g} {units[name]}{unscaled}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(results), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
