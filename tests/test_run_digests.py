"""SHA-256 digests of the graph and log bytes of the benchmark's run-alert
scenario, 20 noisy sine sensors over 40 ticks, at three seeds. The noise
goes through libm's log, cos and sin before it is quantized, so these pin
bytes that a platform whose libm rounds differently would change.

bench/gen.py is executed from its source, as tests/test_bench_spans.py
executes spans.py, so nothing is imported from or written under bench/."""

import hashlib
import sys
import types
from pathlib import Path

import pytest

from twingraph import emit, parse_scenario, render_log, run_scenario

_GEN = Path(__file__).resolve().parents[1] / "bench" / "gen.py"


def _gen():
    module = types.ModuleType("bench_gen")
    sys.modules[module.__name__] = module  # dataclasses looks its module up
    try:
        exec(compile(_GEN.read_text(encoding="utf-8"), str(_GEN), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


GEN = _gen()
TICKS = 40
# seed: (graph digest, log digest)
DIGESTS = {
    1: ("ca19cfdbe318bfcefe3b014ad6da67007bb0ce42cd59e7a10f1c180dfabe88fe",
        "0fcfb182a2cc1d204044e9da855aa12984a4ae045aaa7be9c567090b66516844"),
    2: ("ae68c5555800dff7d0141d7b5769bcbd6867330457e7a7b01da319b7a48d71f2",
        "554ba7040c66dd9c051e652b77c78af7d90a4866b51c1b1a478007e16d8f8390"),
    3: ("826e595071232d992b38db47a574ddf53a02a2fd6a23f83d0c3622bee90ff929",
        "af1f10c0b8bff57e8467a7a445961fb0d5a3d3f8dbc0065f3e7274d3f5ff868d"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_run_alert_bytes(seed):
    text = GEN.scenario_text(GEN.make_world(seed), TICKS, quiet=False)
    run = run_scenario(parse_scenario(text))
    assert run.summary()["activations"] > 0
    assert (_sha256(emit(run.graph)), _sha256(render_log(run.records))) == DIGESTS[seed]
