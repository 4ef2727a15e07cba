"""The IRI rule is stated once, in namespaces.carriable. Only the graph-text
tokenizer, which reports the rule's two halves as separate diagnostics,
reads its parts anywhere else in the package."""

import ast
from pathlib import Path

SOURCES = Path(__file__).resolve().parents[1] / "src" / "twingraph"
PARTS = {"IRI_FORBIDDEN", "is_absolute_iri"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _sites(node, function=None):
    """(line, name, enclosing function) for each mention of a part of the rule."""
    for child in ast.iter_child_nodes(node):
        name = child.id if isinstance(child, ast.Name) else \
            child.attr if isinstance(child, ast.Attribute) else \
            child.name if isinstance(child, (*FUNCTIONS, ast.alias)) else None
        if name in PARTS:
            yield child.lineno, name, function
        yield from _sites(child, child.name if isinstance(child, FUNCTIONS) else function)


def _parse(name):
    return ast.parse((SOURCES / name).read_text(encoding="utf-8"))


def test_the_iri_rule_is_read_only_in_namespaces_and_the_tokenizer():
    sources = sorted(SOURCES.glob("*.py"))
    assert SOURCES / "namespaces.py" in sources and SOURCES / "textformat.py" in sources
    # the check sees the parts where they are defined and where carriable reads them
    assert {(name, function) for _, name, function in _sites(_parse("namespaces.py"))} >= {
        ("IRI_FORBIDDEN", None), ("is_absolute_iri", None),
        ("IRI_FORBIDDEN", "carriable"), ("is_absolute_iri", "carriable")}
    assert {(name, function) for _, name, function in _sites(_parse("textformat.py"))} == {
        ("IRI_FORBIDDEN", "_token"), ("is_absolute_iri", "_token")}
    found = [f"{path.name}:{line}: {name} in {function}"
             for path in sources if path.name != "namespaces.py"
             for line, name, function in _sites(_parse(path.name))
             if (path.name, function) != ("textformat.py", "_token")]
    assert found == []
