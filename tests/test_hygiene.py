"""Source hygiene: every public definition in the package is reached by the
product, every name a package module imports is used there, and no package
code writes into the terms of a Poly."""

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent
# the product: the package, its tools and its benchmark; the tests are left
# out, so that no definition stays in the package only for a test to call
TREES = ("src", "tools", "perfbench")
INIT = REPO / "src" / "gradweil" / "__init__.py"


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
    # an export from __init__ does not count: it is the public surface itself
    references = {}
    for tree in TREES:
        for path in sorted((REPO / tree).rglob("*.py")):
            if path == INIT:
                continue
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
    assert not unused, f"public definitions no product code references: {unused}"


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


_MUTATORS = frozenset({"update", "pop", "setdefault", "clear", "popitem"})


def _is_terms(node):
    return isinstance(node, ast.Attribute) and node.attr == "terms"


def _written(target):
    """The targets of an assignment or del, with tuple and list targets unpacked."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _written(element)
    elif isinstance(target, ast.Starred):
        yield from _written(target.value)
    else:
        yield target


def _terms_writes(tree):
    """(line, what) of each statement that changes a `.terms` dict in place."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        else:
            targets = []
        for target in targets:
            for written in _written(target):
                if isinstance(written, ast.Subscript) and _is_terms(written.value):
                    yield node.lineno, "item write"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATORS and _is_terms(node.func.value)):
            yield node.lineno, f"terms.{node.func.attr}()"


def test_no_poly_terms_are_changed_in_place():
    # a product on the point base hands one Poly to every cell with the same
    # value, so a write into one Poly's terms would change all of them
    writes = [f"{path.name}:{line} {what}"
              for path in sorted((REPO / "src" / "gradweil").glob("*.py"))
              for line, what in _terms_writes(ast.parse(path.read_text()))]
    assert not writes, f"in-place writes into Poly terms: {writes}"


def test_the_terms_check_sees_each_kind_of_write():
    source = """
p.terms[e] = c
p.terms[e] += c
a, q.terms[e] = 1, 2
del p.terms[e]
p.terms.update(other)
p.terms.pop(e)
p.terms.setdefault(e, c)
p.terms.clear()
p.terms.popitem()
terms[e] = c
p.terms = {}
x = p.terms[e]
p.terms.get(e)
"""
    assert [line for line, _ in _terms_writes(ast.parse(source))] == list(range(2, 11))
