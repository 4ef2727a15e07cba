"""The read path scales linearly: a complexity gate that timer noise cannot move.

One parse and one validate of bench/gen.py's graph-read document are traced
with sys.settrace at 50, 100 and 200 ticks, and their trace events (call,
line and return of every Python frame) are counted. The counts depend only
on the input, so doubling the ticks may at most multiply them by 2.2, the
ratio ROADMAP.md sets for every layer. A per-token rescan, a quadratic
index or a lookup that grows with the document shows as a ratio near 4.

bench/gen.py is the one tests/test_run_digests.py executes from its source,
so nothing is imported from or written under bench/."""

import sys
from functools import partial

import pytest

from test_run_digests import GEN
from twingraph import parse

TICKS = (50, 100, 200)
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


@pytest.mark.parametrize("layer", ["parse", "validate"])
def test_read_path_events_grow_linearly_with_ticks(layer, documents, seed_registry):
    previous = None
    for ticks in TICKS:
        if layer == "parse":
            call = partial(parse, documents[ticks], seed_registry)
        else:
            graph, diagnostics = parse(documents[ticks], seed_registry)
            assert graph is not None, diagnostics[:3]
            call = graph.validate
        limit = MAX_RATIO * previous if previous else float("inf")
        events = _trace_events(call, limit)
        assert events is not None, (
            f"{layer} at {ticks} ticks passed {MAX_RATIO}x the trace events "
            f"of {ticks // 2} ticks ({previous})")
        previous = events
