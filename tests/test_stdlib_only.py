"""The package imports nothing outside the Python standard library."""

import ast
import sys
from pathlib import Path

SOURCES = Path(__file__).resolve().parents[1] / "src" / "twingraph"


def test_every_absolute_import_is_from_the_standard_library():
    sources = sorted(SOURCES.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
