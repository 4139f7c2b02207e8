#!/usr/bin/env python3
"""List every function in the package that no product entry point enters.

    python tools/reach.py

Runs the product's entry points in this one process under `sys.setprofile`
and prints, one `file:line module.name` a line, every `def` in
`src/gradweil` (nested defs included) that none of them entered and that
`EXEMPT` does not name, then every name in `EXEMPT` whose function was
entered or no longer exists.  Exits 1 if it printed anything, 0 if not, and
2 with a traceback if an entry point failed: an exit code other than the
one expected, or a benchmark check.

The entry points:

* every corpus problem through `cli.main` with `--json` into a temporary
  directory, and `gradweil corpus corpus`;
* the README's library quick start;
* every payload of `tools/regen_corpus.py`, through `validate_problem`,
  `run_problem` and `canonical_json`, written nowhere;
* `tools/route_ratio.py --seeds 1 --repeats 1`;
* block 0 of seed 1 of each perfbench workload, every op built, run and
  checked, with a temporary scratch directory;
* the payloads in `tools/reach_payloads/` through `cli.main`, each with the
  arguments and exit code `PAYLOADS` gives it: inputs the CLI contract fails
  (exit 1) or refuses (exit 2).

A function is matched by its name and its code object's first line, which
for a decorated function is the line of its first decorator, so a `@cache`d
function counts as entered when its wrapped body runs.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import re
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gradweil"
CORPUS = ROOT / "corpus"
PAYLOAD_DIR = ROOT / "tools" / "reach_payloads"

# (payload file, extra CLI arguments, expected exit code)
PAYLOADS = (
    ("morphism_aff1_into_abelian2.json", (), 1),
    ("morphism_aff1_into_abelian2.json", ("--bound", "-1"), 2),
    ("check_exponent_at_the_limit.json", (), 2),
)

# functions no entry point runs that stay, each with its reason; every
# `__repr__` stays too, because pytest and the REPL read it
EXEMPT = {
    "forms.mat_mul": "perfbench/test_perfbench.py patches it through connections",
    "randgen.random_form": "perfbench/test_perfbench.py calls it",
    "ring.Poly.is_constant": "perfbench/spans.py reads it in Tracer.__init__, "
                             "so traced runs need it",
    "connections._first_difference": "builds the exit-3 message of a curvature "
                                     "pass that did not return Omega",
    "chernweil._where": "builds the message of an unclosed character (exit 3) "
                        "and of the library's NotClosedError",
}


def exempt(name):
    """Whether the function `module.qualified.name` may stay unentered."""
    return name in EXEMPT or name.endswith(".__repr__")


def findings(listed):
    """The lines to print for the 'file:line name' lines of unentered defs:
    each one not exempt, then each exemption whose def is entered or gone."""
    names = [line.split()[1] for line in listed]
    return ([line for line, name in zip(listed, names) if not exempt(name)]
            + [f"exempt but entered or gone: {name}"
               for name in sorted(set(EXEMPT) - set(names))])


def definitions(package):
    """{(resolved path, first line, name): 'module.qualified.name'} of every
    def under `package`; the first line is the first decorator's, if any."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                found[path, first, child.name] = f"{prefix}.{child.name}"
                visit(child, path, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(Path(package).rglob("*.py")):
        visit(ast.parse(path.read_text()), path.resolve(), path.stem)
    return found


def entered(run):
    """(resolved path, first line, name) of every code object `run()` enters."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    resolved = {name: Path(name).resolve() for name in {code.co_filename for code in codes}}
    return {(resolved[code.co_filename], code.co_firstlineno, code.co_name) for code in codes}


def unentered(package, run):
    """'file:line module.qualified.name' of each def under `package` that
    `run()` does not enter, in file and line order."""
    seen = entered(run)
    return [f"{key[0].name}:{key[1]} {name}"
            for key, name in sorted(definitions(package).items()) if key not in seen]


# ----------------------------------------------------------------------
# the entry points


class EntryPointFailed(Exception):
    """An entry point ended otherwise than expected."""


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cli(argv, expected):
    from gradweil import cli
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != expected:
        raise EntryPointFailed(f"gradweil {' '.join(argv)}: exit {code}, expected "
                               f"{expected}\n{err.getvalue()}")


def corpus_files():
    with tempfile.TemporaryDirectory() as scratch:
        for path in sorted(CORPUS.glob("*.json")):
            if path.name.endswith(".golden.json"):
                continue
            golden = json.loads(path.with_name(path.stem + ".golden.json").read_text())
            expected = 0 if all(check["pass"] for check in golden["checks"]) else 1
            _cli([str(path), "--json", str(Path(scratch) / path.name)], expected)
    _cli(["corpus", str(CORPUS)], 0)


def quick_start():
    text = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    source = re.search(r"```python\n(.*?)```", text, re.S)[1]
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(source, "README.md", "exec"), {})


def regen_payloads():
    from gradweil.cli import canonical_json
    from gradweil.problems import run_problem, validate_problem
    for name, payload in _load(ROOT / "tools" / "regen_corpus.py").ENTRIES:
        if validate_problem(payload):
            raise EntryPointFailed(f"the regen payload {name} fails the schema")
        canonical_json(run_problem(payload))


def route_ratio():
    with contextlib.redirect_stdout(io.StringIO()):
        code = _load(ROOT / "tools" / "route_ratio.py").main(["--seeds", "1", "--repeats", "1"])
    if code != 0:
        raise EntryPointFailed(f"route_ratio exited {code}")


def perfbench_blocks():
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, block
    with tempfile.TemporaryDirectory() as scratch:
        for make in WORKLOADS.values():
            workload = make(ROOT, Path(scratch))
            for op in block(workload, 1, 0):
                inputs = workload.build(op)
                workload.check(op, inputs, workload.run(op, inputs))


def payloads():
    for name, args, expected in PAYLOADS:
        _cli([str(PAYLOAD_DIR / name), *args], expected)


def run_entry_points():
    for entry in (corpus_files, quick_start, regen_payloads, route_ratio,
                  perfbench_blocks, payloads):
        entry()


def main():
    # gradweil is first imported inside the run, so that what its import
    # calls counts as entered
    sys.path.insert(0, str(ROOT / "src"))
    try:
        listed = unentered(PACKAGE, run_entry_points)
    except Exception:   # a failed entry point leaves the list meaningless
        traceback.print_exc()
        return 2
    lines = findings(listed)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
