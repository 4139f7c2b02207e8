"""Source hygiene: every public definition in the package is referenced."""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "tools", "perfbench")


def _references(tree):
    """(name, line) of every Name, Attribute and imported name in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def _public_definitions(tree):
    """Module-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (sub for sub in node.body if isinstance(sub, ast.FunctionDef))


def test_every_public_definition_is_referenced():
    references = {}
    for tree in TREES:
        for path in sorted((REPO / tree).rglob("*.py")):
            for name, line in _references(ast.parse(path.read_text())):
                references.setdefault(name, []).append((path, line))
    unused = []
    for path in sorted((REPO / "src" / "gradweil").glob("*.py")):
        for node in _public_definitions(ast.parse(path.read_text())):
            if node.name.startswith("_"):
                continue
            outside = [site for site in references.get(node.name, ())
                       if site[0] != path
                       or not node.lineno <= site[1] <= node.end_lineno]
            if not outside:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, f"public definitions with no reference: {unused}"
