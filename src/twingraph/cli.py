"""Command line interface.

    twingraph validate FILE          check a graph file, print diagnostics
    twingraph run SCENARIO           execute a scenario, write graph and log
    twingraph query GRAPH ...        list instances of a class
    twingraph chain GRAPH --from IRI print a provenance chain

Exit codes: 0 success, 1 findings or an aborted run, 2 usage, IO, config, or
any other typed engine error. Diagnostics go to stderr; data to stdout or files.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from . import textformat
from .canon import dumps_canonical
from .config import load_scenario
from .errors import SEVERITY_ERROR, ConfigError, TwingraphError
from .ontology import SEED_VERSION, load_seed
from .runtime import ScenarioRun, StepFailure, render_log


def _parse_graph_file(path: str):
    """Read and parse a graph file, printing its diagnostics to stderr."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    graph, diagnostics = textformat.parse(text, load_seed())
    for diagnostic in diagnostics:
        print(diagnostic.render(), file=sys.stderr)
    return graph, diagnostics


def cmd_validate(args) -> int:
    _, diagnostics = _parse_graph_file(args.file)
    errors = sum(d.severity == SEVERITY_ERROR for d in diagnostics)
    print(f"{errors} violations")
    return 1 if errors else 0


def cmd_run(args) -> int:
    if args.until is not None and args.until < 0:
        print("--until must not be negative", file=sys.stderr)
        return 2
    config = load_scenario(args.scenario)
    run = ScenarioRun(config)
    try:
        run.run(args.until)
    except StepFailure as failure:
        _write_outputs(args, failure.graph, failure.records,
                       abort_message=str(failure))
        print(f"run aborted: {failure}", file=sys.stderr)
        return 1
    _write_outputs(args, run.graph, run.records)
    counts = run.summary()
    print("ticks={ticks} measurements={measurements} signals={signals} "
          "activations={activations} alerts={alerts}".format(**counts))
    return 0


def _write_outputs(args, graph, records, abort_message: str | None = None) -> None:
    # emit and render_log stream to the files, called by name so a wrapper times them
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            textformat.emit(graph, handle)
    if args.log:
        with open(args.log, "w", encoding="utf-8", newline="") as handle:
            render_log(records, handle)
            if abort_message is not None:
                handle.write(dumps_canonical({"aborted": abort_message}) + "\n")


def cmd_query(args) -> int:
    graph, _ = _parse_graph_file(args.graph)
    if graph is None:
        return 1
    for iri in graph.instances_of(args.instances_of, transitive=args.subclasses):
        print(iri.value)
    return 0


def cmd_chain(args) -> int:
    graph, _ = _parse_graph_file(args.graph)
    if graph is None:
        return 1
    for statement in graph.provenance_chain(graph.resolve(args.start)):
        print(f"{statement.subject.value} --{statement.property}--> "
              f"{statement.object}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twingraph",
        description="Reactive digital-twin knowledge graph engine.")
    parser.add_argument("--version", action="version",
                        version=f"twingraph {__version__} (seed {SEED_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a graph file")
    p_validate.add_argument("file", help="graph file (.rht.ttl)")
    p_validate.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="run a scenario")
    p_run.add_argument("scenario", help="scenario config (JSON)")
    p_run.add_argument("--out", help="write the canonical graph here")
    p_run.add_argument("--log", help="write the JSON Lines event log here")
    p_run.add_argument("--until", type=int,
                       help="stop after this many ticks (truncates duration)")
    p_run.set_defaults(func=cmd_run)

    p_query = sub.add_parser("query", help="list instances of a class")
    p_query.add_argument("graph", help="graph file (.rht.ttl)")
    p_query.add_argument("--instances-of", required=True, metavar="CLASS",
                         help="ontology class id, e.g. HC9")
    p_query.add_argument("--subclasses", action="store_true",
                         help="include instances of subclasses")
    p_query.set_defaults(func=cmd_query)

    p_chain = sub.add_parser("chain", help="print a provenance chain")
    p_chain.add_argument("graph", help="graph file (.rht.ttl)")
    p_chain.add_argument("--from", dest="start", required=True, metavar="IRI",
                         help="activation, signal, or measurement IRI")
    p_chain.set_defaults(func=cmd_chain)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, TwingraphError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
