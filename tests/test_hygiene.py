"""Source hygiene: every public definition in the package is referenced, and
every name a package module imports is used there."""

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


def test_every_imported_name_is_used_in_its_module():
    # names a module imports only to re-export belong in __init__; an import
    # kept for another reason says so with a noqa comment on its line
    unused = []
    for path in sorted((REPO / "src" / "gradweil").glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and "noqa" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno} {name}")
    assert not unused, f"imported names never used: {unused}"
