"""bench/spans.py wraps twingraph functions and methods by name, so a traced
bench run (`bench/run.py --trace 1`) breaks if one of them is renamed or
deleted. Each of its TARGETS must resolve on the package.

A traced bench run fails on such a name too, but only when it is started;
this check is part of the test suite, takes no bench run, and names every
missing target at once."""

import importlib
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets() -> dict:
    # executed from its source, so nothing is imported from or written under bench/
    namespace = {"__name__": "spans"}
    exec(compile(_SPANS.read_text(encoding="utf-8"), str(_SPANS), "exec"), namespace)
    return namespace["TARGETS"]


TARGETS = _targets()


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_traced_name_resolves(name):
    module_name, class_name, attr = TARGETS[name]
    owner = importlib.import_module(module_name)
    if class_name is not None:
        owner = getattr(owner, class_name, None)
        assert owner is not None, f"{name}: {module_name}.{class_name} is gone"
    assert callable(getattr(owner, attr, None)), f"{name}: {attr} is gone"
