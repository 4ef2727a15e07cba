"""One benchmark job in a fresh interpreter.

    python3 bench/worker.py WORKLOAD INPUT OUTDIR SEED JOB TRACE [NODES STATEMENTS]

Times set-up and the job, walks a seeded sample of provenance chains,
checks every output, and prints one JSON object as its last line. run.py
starts one worker per job, so every set-up is measured cold and the peak
resident memory belongs to that one job. After set-up, the job and the
chain walks the worker pauses (see pause()) while run.py times its speed
probe. With TRACE=1 the layer functions are wrapped (see spans.py) and the
spans are appended to OUTDIR/spans.tsv.

Only sys, os and time are imported before the set-up clock starts, so the
imports twingraph itself needs are part of set-up, as they are for a user.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CHAIN_SAMPLE = 400
PAUSE = "bench-worker-pause"

# Backward provenance walk expected from each start class: property set and
# the end of the statement the current node sits at. Written out here as an
# independent structural oracle.
_WALK = ((("O13",), "in"), (("HP12",), "in"), (("L20",), "in"),
         (("L12",), "out"), (("HP15", "P55"), "out"))
CHAIN_SHAPES = {"HC14": _WALK, "HC12": _WALK[2:], "HC13": _WALK[3:]}


def pause() -> None:
    """Tell run.py that a timed phase has ended and wait until it has timed
    its speed probe, so the probe runs between phases, not during one."""
    print(PAUSE, flush=True)
    sys.stdin.readline()


def main(argv: list[str]) -> int:
    workload, input_path, outdir = argv[1], argv[2], argv[3]
    seed, job_id, traced = int(argv[4]), int(argv[5]), argv[6] == "1"
    expected = tuple(int(x) for x in argv[7:9])
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    import twingraph
    tracer = None
    if traced:
        import twingraph.cli
        import spans
        tracer = spans.Tracer(job_id)
        tracer.install()
    registry = twingraph.load_seed()
    if workload != "graph-read":
        run = twingraph.ScenarioRun(twingraph.load_scenario(input_path), registry)
    setup_s = time.perf_counter() - t0

    if not os.path.realpath(twingraph.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"twingraph was imported from {twingraph.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import hashlib
    import json
    import random
    import resource
    from argparse import Namespace

    from twingraph import cli
    from twingraph.graph import Iri

    problems: list[str] = []
    graph_path = os.path.join(outdir, "graph.rht.ttl")
    log_path = os.path.join(outdir, "log.jsonl")
    pause()
    t1 = time.perf_counter()
    if workload == "graph-read":
        with open(input_path, "r", encoding="utf-8") as handle:
            text = handle.read()
        graph, diagnostics = twingraph.parse(text, registry)
        report = graph.validate() if graph is not None else None
    else:
        run.run()
        # The CLI's own writer, so the bytes are those `twingraph run
        # --out --log` writes.
        cli._write_outputs(Namespace(out=graph_path, log=log_path),
                           run.graph, run.records)
        graph = run.graph
    job_s = time.perf_counter() - t1
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pause()

    chain_ms: list[float] = []
    chain_digest = hashlib.sha256()
    if graph is not None:
        starts = chain_starts(graph, random.Random(seed))
        clock = time.perf_counter_ns
        for iri, class_id in starts:
            start = Iri(iri)
            began = clock()
            path = graph.provenance_chain(start)
            chain_ms.append((clock() - began) / 1e6)
            problem = check_chain(iri, class_id, path)
            if problem:
                problems.append(problem)
            for step in path:
                chain_digest.update(f"{step.subject}|{step.property}|{step.object}\n".encode())
    pause()

    layers = {}
    if tracer is not None:
        tracer.uninstall()
        tracer.write(os.path.join(outdir, "spans.tsv"))
        layers = layer_metrics(tracer, workload, graph, input_path, graph_path,
                               log_path, run.records if workload != "graph-read" else [])

    digest = {"chains": chain_digest.hexdigest()}
    if workload == "graph-read":
        problems += check_graph_read(graph, diagnostics, report, expected)
        if graph is not None:
            digest["counts"] = f"{len(graph.nodes)}/{len(graph.statements)}"
    else:
        problems += check_run(workload, run, registry, graph_path, log_path)
        for name, path in (("graph", graph_path), ("log", log_path)):
            with open(path, "rb") as handle:
                digest[name] = hashlib.sha256(handle.read()).hexdigest()

    print(json.dumps({
        "job": job_id, "traced": traced, "setup_s": setup_s, "job_s": job_s,
        "peak_rss_mib": peak_rss_mib, "chain_ms": chain_ms,
        "digest": digest, "problems": problems[:20], "layers": layers,
    }, sort_keys=True))
    return 0


def chain_starts(graph, rng) -> list[tuple[str, str]]:
    """A seeded systematic sample of activations, signals and measurements:
    every k-th node in natural IRI order from a seeded offset, in equal
    shares where the graph has activations, else signals and measurements.
    Natural order ("s00/2" before "s00/10") walks each sensor's samples in
    tick order, so the sample spreads evenly over the run, and the latency
    quantiles do not move with the seed."""
    by_class = {cid: sorted((iri for iri, types in graph.nodes.items() if cid in types),
                            key=natural_key)
                for cid in CHAIN_SHAPES}
    present = [cid for cid in CHAIN_SHAPES if by_class[cid]]
    starts = []
    for cid in present:
        pool = by_class[cid]
        step = max(1, len(pool) // (CHAIN_SAMPLE // len(present)))
        starts += [(iri, cid) for iri in pool[rng.randrange(step)::step]]
    rng.shuffle(starts)
    return starts


def natural_key(iri: str) -> tuple:
    """Sort key that orders the digit runs of an IRI by value."""
    import re

    return tuple(int(part) if i % 2 else part
                 for i, part in enumerate(re.split(r"(\d+)", iri)))


def check_chain(start: str, class_id: str, path) -> str | None:
    """Structural check: the expected number of steps, each linked to the
    next, ending at the sensor's attachment (HP15 or P55)."""
    shape = CHAIN_SHAPES[class_id]
    if len(path) != len(shape):
        return f"chain from {start}: {len(path)} steps, expected {len(shape)}"
    current = start
    for step, (properties, direction) in zip(path, shape):
        end, other = ((step.object, step.subject) if direction == "in"
                      else (step.subject, step.object))
        if step.property not in properties or getattr(end, "value", None) != current:
            return f"chain from {start}: step {step} does not continue from {current}"
        current = other.value
    return None


def check_run(workload, run, registry, graph_path, log_path) -> list[str]:
    import json

    import twingraph

    problems = []
    with open(graph_path, "r", encoding="utf-8") as handle:
        reparsed, diagnostics = twingraph.parse(handle.read(), registry)
    errors = [d.render() for d in diagnostics if d.severity == "error"]
    if errors or reparsed is None:
        problems.append(f"emitted graph does not parse back: {errors[:3]}")
    elif not reparsed.content_equal(run.graph):
        problems.append("emitted graph parses back to different content")
    if not run.graph.validate().ok:
        problems.append("run graph fails validate()")

    kinds: dict[str, int] = {}
    with open(log_path, "r", encoding="utf-8") as handle:
        for line in handle:
            kind = json.loads(line).get("kind")
            kinds[kind] = kinds.get(kind, 0) + 1
    summary = run.summary()
    for kind, key in (("measurement", "measurements"), ("signal", "signals"),
                      ("activation", "activations"), ("alert", "alerts")):
        if kinds.get(kind, 0) != summary[key]:
            problems.append(f"log has {kinds.get(kind, 0)} {kind} lines, "
                            f"summary says {summary[key]}")
    activations = summary["activations"]
    if workload == "run-quiet" and activations != 0:
        problems.append(f"run-quiet fired {activations} activations")
    if workload == "run-alert" and activations == 0:
        problems.append("run-alert fired no activation")
    return problems


def check_graph_read(graph, diagnostics, report, expected) -> list[str]:
    errors = [d.render() for d in diagnostics if d.severity == "error"]
    if errors or graph is None:
        return [f"graph does not parse: {errors[:3]}"]
    problems = []
    counts = (len(graph.nodes), len(graph.statements))
    if counts != expected:
        problems.append(f"nodes/statements {counts}, generator wrote {expected}")
    if not report.ok:
        problems.append(f"validate() found {len(report.violations)} violations")
    return problems


def layer_metrics(tracer, workload, graph, input_path, graph_path, log_path,
                  records) -> dict[str, float]:
    import spans

    calls, self_ns = tracer.totals()
    metrics = {f"{name}.calls": calls[name] for name in spans.CALLS}
    metrics.update({f"{name}.self_s": self_ns[name] / 1e9 for name in spans.SELF_TIMES})
    metrics["graph.statements"] = len(graph.statements) if graph is not None else 0
    fired = sum(len(r.fields["firedRules"]) for r in records if r.kind == "decision")
    evaluated = calls["rules.evaluate_rule"]
    metrics["rules.fire_ratio"] = fired / evaluated if evaluated else 0.0
    metrics.update(spans.tick_stats(tracer.tick_ms()))
    run_job = workload != "graph-read"
    metrics["runtime.log_bytes"] = os.path.getsize(log_path) if run_job else 0
    emit_s = tracer.durations_s("textformat.emit")
    metrics["textformat.emit.mb_per_s"] = (
        os.path.getsize(graph_path) / 1e6 / emit_s if run_job and emit_s else 0.0)
    parse_s = tracer.durations_s("textformat.parse")
    metrics["textformat.parse.mb_per_s"] = (
        os.path.getsize(input_path) / 1e6 / parse_s if not run_job and parse_s else 0.0)
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv))
