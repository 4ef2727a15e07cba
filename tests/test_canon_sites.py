"""Canonical bytes are formed in canon.py and nowhere else in the package."""

import ast
from pathlib import Path

SOURCES = Path(__file__).resolve().parents[1] / "src" / "twingraph"
FORMATTERS = {"strftime", "isoformat", "normalize"}
# json's encoder class and the C string escapers it calls
ESCAPERS = {"JSONEncoder", "encode_basestring", "encode_basestring_ascii"}


def _sites(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if func.attr in FORMATTERS or (
                    func.attr == "dumps" and isinstance(func.value, ast.Name)
                    and func.value.id == "json"):
                yield node.lineno, func.attr
        if isinstance(node, ast.ImportFrom) and node.module in ("json", "json.encoder"):
            yield from ((node.lineno, alias.name) for alias in node.names
                        if alias.name == "dumps" or alias.name in ESCAPERS)
        name = node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None
        if name in ESCAPERS:
            yield node.lineno, name


def test_canonical_formatters_are_called_only_in_canon():
    sources = sorted(SOURCES.glob("*.py"))
    assert SOURCES / "canon.py" in sources
    # the check sees the formatters canon.py does use
    canon = ast.parse((SOURCES / "canon.py").read_text(encoding="utf-8"))
    assert {name for _, name in _sites(canon)} == {
        "encode_basestring", "encode_basestring_ascii", "isoformat"}
    found = [f"{path.name}:{line}: {name}"
             for path in sources if path.name != "canon.py"
             for line, name in _sites(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
