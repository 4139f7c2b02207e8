"""Source hygiene: every public definition in the package is referenced by
name in the product (whether the product runs it is `tools/reach.py`'s
check, whose matcher is tested here too), every name a package module
imports is used there, the export list matches what the package imports, no
package code writes into the terms of a Poly, only `ring` names the helpers
that pack monomials and check exponents, and only `forms._block_kernel`
names the builtins that run generated code."""

import ast
import importlib.util
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


def test_the_export_list_matches_the_package_imports():
    # a deleted definition must leave both __all__ and the imports of __init__
    import gradweil

    missing = [name for name in gradweil.__all__ if not hasattr(gradweil, name)]
    assert not missing, f"__all__ names that do not resolve: {missing}"
    assert len(set(gradweil.__all__)) == len(gradweil.__all__)
    imported = {alias.asname or alias.name
                for node in ast.parse(INIT.read_text()).body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    unlisted = sorted(imported - set(gradweil.__all__))
    assert not unlisted, f"names __init__ imports but does not export: {unlisted}"


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


# exponent tuples become packed monomials and back, and exponents are checked,
# in ring alone
_PACKING = frozenset({"_pack", "_unpack", "_check_exponents"})


def _packing_names(tree):
    """(line, name) of each reference to, or definition of, a packing helper."""
    defined = ((node.name, node.lineno) for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    for name, line in (*_references(tree), *defined):
        if name in _PACKING:
            yield line, name


def test_only_ring_names_the_packing_helpers():
    names = [f"{path.name}:{line} {name}"
             for path in sorted((REPO / "src" / "gradweil").glob("*.py"))
             if path.name != "ring.py"
             for line, name in _packing_names(ast.parse(path.read_text()))]
    assert not names, f"packing helpers named outside ring: {names}"


def test_the_packing_check_sees_each_kind_of_reference():
    source = """
from .ring import _pack
from .ring import _unpack as unpack
ring._check_exponents(polys)
def _pack(expo): pass
pack, unpacked = 1, _unpack(m, n)
"""
    assert [line for line, _ in sorted(_packing_names(ast.parse(source)))] == [2, 3, 4, 5, 6]


# generated code is built and run in one place, the block kernel of forms
_CODE_BUILTINS = frozenset({"exec", "eval", "compile"})
_CODE_OWNERS = frozenset({("forms.py", "_block_kernel")})


def _code_builtin_names(tree):
    """(enclosing def, line, name) of each reference to the builtin exec,
    eval or compile: a bare name, so an attribute such as `re.compile` is
    not one, or an attribute of the `builtins` module; a call is such a
    reference, and so is an alias or an import of one."""

    def visit(node, owner):
        if isinstance(node, ast.Name) and node.id in _CODE_BUILTINS:
            yield owner, node.lineno, node.id
        elif (isinstance(node, ast.Attribute) and node.attr in _CODE_BUILTINS
              and isinstance(node.value, ast.Name) and node.value.id == "builtins"):
            yield owner, node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "builtins":
            yield from ((owner, node.lineno, alias.name) for alias in node.names
                        if alias.name in _CODE_BUILTINS)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)

    yield from visit(tree, None)


def test_only_the_block_kernel_runs_generated_code():
    names = [f"{path.name}:{line} {name} in {owner or 'the module body'}"
             for path in sorted((REPO / "src" / "gradweil").glob("*.py"))
             for owner, line, name in _code_builtin_names(ast.parse(path.read_text()))
             if (path.name, owner) not in _CODE_OWNERS]
    assert not names, f"exec, eval or compile outside forms._block_kernel: {names}"
    owned = [name for owner, _, name in _code_builtin_names(
        ast.parse((REPO / "src" / "gradweil" / "forms.py").read_text()))
        if owner == "_block_kernel"]
    assert sorted(owned) == ["compile", "exec"]


def test_the_generated_code_check_sees_each_kind_of_reference():
    source = """
exec(source)
value = eval(text)
code = compile(source, name, "exec")
run = exec
builtins.eval(text)
from builtins import compile
def outer():
    def inner():
        return exec(code)
pattern = re.compile(text)
node.compile()
execute(source)
"""
    found = sorted((line, name, owner) for owner, line, name in _code_builtin_names(
        ast.parse(source)))
    assert found == [(2, "exec", None), (3, "eval", None), (4, "compile", None),
                     (5, "exec", None), (6, "eval", None), (7, "compile", None),
                     (10, "exec", "inner")]


def _reach_tool():
    spec = importlib.util.spec_from_file_location("reach", REPO / "tools" / "reach.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_reach_counts_a_cached_function_as_entered_when_called():
    # a decorated function's code starts at its decorator's line
    from gradweil import forms

    reach, package = _reach_tool(), REPO / "src" / "gradweil"
    forms._mask.cache_clear()   # a cache hit would not enter the function
    listed = reach.unentered(package, lambda: forms._mask((0, 2)))
    assert not any(line.endswith(" forms._mask") for line in listed)
    assert any(line.endswith(" forms._indices") for line in listed)
    assert any(line.endswith(" forms._mask") for line in reach.unentered(package, lambda: None))


def test_reach_lists_a_function_nothing_calls(tmp_path):
    source = '''from functools import cache


@cache
def cached(n):
    return n + 1


def planted(pick=lambda: 0):
    def nested():
        return 0
    return nested


def run():
    # the default's lambda starts on the line of planted but is not planted
    return cached(1), planted.__defaults__[0]()
'''
    (tmp_path / "planted.py").write_text(source)
    spec = importlib.util.spec_from_file_location("planted", tmp_path / "planted.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    reach = _reach_tool()
    assert reach.unentered(tmp_path, module.run) == [
        "planted.py:9 planted.planted", "planted.py:10 planted.planted.nested"]
    # an exempt def stays off the list, and an exemption whose def is
    # entered or gone is listed in its place
    exempt = [f"x.py:{n} {name}" for n, name in enumerate(sorted(reach.EXEMPT))]
    assert reach.findings(exempt + ["ring.py:1 ring.Poly.__repr__"]) == []
    assert reach.findings(exempt[1:] + ["ring.py:2 ring.Poly.__add__"]) == [
        "ring.py:2 ring.Poly.__add__",
        f"exempt but entered or gone: {sorted(reach.EXEMPT)[0]}"]
