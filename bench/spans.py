"""In-memory spans around twingraph's public functions, installed from outside.

Each wrapper records (name, start, end, parent) with perf_counter_ns. A
wrapper is installed wherever callers look the name up: for a function,
every twingraph module that bound it at import (runtime holds its own
evaluate_rule and dumps_canonical, cli its own render_log, the package its
re-exports); for a method, the class. Nothing under src/ changes.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter

# span name -> (module, class or None, attribute)
TARGETS = {
    "ontology.load_seed": ("twingraph.ontology", None, "load_seed"),
    "ontology.is_subclass_of": ("twingraph.ontology", "Registry", "is_subclass_of"),
    "graph.add_statement": ("twingraph.graph", "Graph", "add_statement"),
    "graph.objects_of": ("twingraph.graph", "Graph", "objects_of"),
    "graph.provenance_chain": ("twingraph.graph", "Graph", "provenance_chain"),
    "graph.validate": ("twingraph.graph", "Graph", "validate"),
    "rules.evaluate_rule": ("twingraph.rules", None, "evaluate_rule"),
    "rules.parse_rules": ("twingraph.rules", None, "parse_rules"),
    "config.load_scenario": ("twingraph.config", None, "load_scenario"),
    "runtime.run": ("twingraph.runtime", "ScenarioRun", "run"),
    "runtime.sample": ("twingraph.runtime", "ScenarioRun", "sample"),
    "runtime.make_signal": ("twingraph.runtime", "ScenarioRun", "make_signal"),
    "runtime.transmit": ("twingraph.runtime", "ScenarioRun", "transmit"),
    "runtime.decide": ("twingraph.runtime", "ScenarioRun", "decide"),
    "runtime.execute_activation": ("twingraph.runtime", "ScenarioRun", "execute_activation"),
    "runtime.generator_value": ("twingraph.runtime", None, "generator_value"),
    "runtime.schedule_due": ("twingraph.runtime", None, "schedule_due"),
    "runtime.render_log": ("twingraph.runtime", None, "render_log"),
    "canon.dumps_canonical": ("twingraph.canon", None, "dumps_canonical"),
    "textformat.emit": ("twingraph.textformat", None, "emit"),
    "textformat.parse": ("twingraph.textformat", None, "parse"),
    "textformat.parse_raw": ("twingraph.textformat", None, "parse_raw"),
}

# Layer functions whose call count and self time are reported.
CALLS = ("ontology.is_subclass_of", "graph.add_statement", "graph.objects_of",
         "rules.evaluate_rule", "canon.dumps_canonical")
SELF_TIMES = ("ontology.is_subclass_of", "ontology.load_seed",
              "graph.add_statement", "graph.objects_of",
              "graph.provenance_chain", "graph.validate",
              "rules.evaluate_rule", "rules.parse_rules", "config.load_scenario",
              "runtime.sample", "runtime.generator_value", "runtime.make_signal",
              "runtime.transmit", "runtime.decide", "runtime.execute_activation",
              "runtime.render_log", "canon.dumps_canonical", "textformat.emit",
              "textformat.parse", "textformat.parse_raw")


class Tracer:
    """Records spans while installed; one tracer per job process."""

    def __init__(self, job_id: int):
        self.job_id = job_id
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "twingraph" or n.startswith("twingraph.")]
        for name, (module_name, class_name, attr) in TARGETS.items():
            module = sys.modules[module_name]
            if class_name is not None:
                cls = getattr(module, class_name)
                self._set(cls, attr, self._wrap(name, getattr(cls, attr)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._set(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        """Append this job's spans as TSV: job, name, start_ns, end_ns, parent."""
        with open(path, "a", encoding="utf-8") as handle:
            handle.writelines(f"{self.job_id}\t{name}\t{start}\t{end}\t{parent}\n"
                              for name, start, end, parent in self.spans)

    def totals(self) -> tuple[Counter, Counter]:
        """(calls, self_ns) per span name. Self time is a span's duration
        minus the time its child spans cover; children of one span never
        overlap, since jobs run on one thread."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, self_ns = Counter(), Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
        return calls, self_ns

    def durations_s(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name) / 1e9

    def tick_ms(self) -> list[float]:
        """Tick lengths: schedule_due opens each tick, so a tick runs from
        one call to the next, and the last one to the end of run()."""
        starts = [start for n, start, _, _ in self.spans if n == "runtime.schedule_due"]
        ends = [end for n, _, end, _ in self.spans if n == "runtime.run"]
        if not starts or not ends:
            return []
        bounds = starts + [ends[-1]]
        return [(b - a) / 1e6 for a, b in zip(bounds, bounds[1:])]


def tick_stats(ticks: list[float]) -> dict[str, float]:
    if len(ticks) < 2:
        return {"runtime.tick_ms_p50": 0.0, "runtime.tick_ms_p99": 0.0,
                "runtime.tick_growth": 0.0}
    tenth = max(1, len(ticks) // 10)
    return {
        "runtime.tick_ms_p50": statistics.median(ticks),
        "runtime.tick_ms_p99": statistics.quantiles(ticks, n=100)[98],
        "runtime.tick_growth": statistics.median(ticks[-tenth:])
        / statistics.median(ticks[:tenth]),
    }
