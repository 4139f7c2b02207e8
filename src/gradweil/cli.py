"""Batch front end: run JSON problem files and golden-file corpora.

Usage::

    gradweil <task-file> [--task T] [--json PATH] [--bound B] [--seed N]
    gradweil corpus <dir>

Exit codes: 0 all checks passed, 1 a mathematical check failed (the report
names it), 2 input error (unreadable file, invalid JSON, schema violation,
or an object that cannot be built from its payload), 3 an internal check
failed (`InternalCheckError`, such as a curvature pass that did not return
Omega): an engine bug rather than a problem with the input.

The machine-readable report is canonical JSON: sorted keys, no whitespace,
ASCII only, one trailing newline — byte-identical across runs and platforms.
The corpus runner compares each problem's canonical report against a
``<name>.golden.json`` sibling byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .constructions import report_passed
from .errors import InternalCheckError, MismatchError, NotClosedError, ParseError
from .problems import TASKS, run_problem, validate_problem

_INPUT_ERRORS = (ParseError, MismatchError, NotClosedError)


def canonical_json(report):
    """Deterministic byte-stable serialization of a report dict."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True) + "\n"


def _render_results(results):
    lines = ["results:"]
    for cls in results.get("classes", []):
        lines.append(
            f"  p{cls['index']} = ({cls['prefactor']}) * "
            f"(2*pi)^({cls['two_pi_exponent']}) * [ {cls['rendered']} ]"
            f"   class: {cls['status']}")
    for char in results.get("characters", []):
        lines.append(f"  sigma{char['index']} = {char['rendered']}"
                     f"   class: {char['status']}")
    if "rendered" in results:
        lines.append(f"  form = {results['rendered']}")
    if "class_vector" in results:
        lines.append("  class vector = [" + ", ".join(results["class_vector"]) + "]")
        lines.append(f"  indeterminacy dim = {len(results['indeterminacy_basis'])}")
        lines.append("  nonzero mod indeterminacy = "
                     f"{results['nonzero_mod_indeterminacy']}")
    return lines


def render_report(report):
    """Human-readable text form of a report dict."""
    lines = [f"task: {report['task']}",
             f"construction: {report['construction']}"]
    for check in report["checks"]:
        mark = "PASS" if check["pass"] else "FAIL"
        line = f"{mark} {check['name']}"
        if not check["pass"] and check.get("witness") is not None:
            line += "  witness: " + json.dumps(check["witness"], sort_keys=True)
        lines.append(line)
    thresholds = report.get("thresholds")
    if thresholds:
        lines.append("thresholds: " + ", ".join(
            f"{k}={v}" for k, v in sorted(thresholds.items())))
    results = report.get("results")
    if results:
        lines.extend(_render_results(results))
    if report.get("note"):
        lines.append(f"note: {report['note']}")
    lines.append(f"result: {'PASS' if report_passed(report) else 'FAIL'}")
    return "\n".join(lines)


def _load_problem(path, err):
    """Parse and schema-check one problem file; on failure report via err()."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        err(f"cannot read {path}: {exc}")
        return None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        err(f"{path} is not valid JSON: {exc}")
        return None
    except ValueError:   # an integer literal past the interpreter's digit limit
        err(f"{path} holds an integer literal longer than {sys.get_int_max_str_digits()} digits")
        return None
    diagnostics = validate_problem(data)
    if diagnostics:
        for line in diagnostics:
            err(f"{path}: schema: {line}")
        return None
    return data


def _error(message):
    print(f"error: {message}", file=sys.stderr)


def _run(data, err, **options):
    """(report, None) from run_problem, else (None, exit code) after err()
    names the input error (2) or the failed internal check (3)."""
    try:
        return run_problem(data, **options), None
    except _INPUT_ERRORS as exc:
        err(str(exc))
        return None, 2
    except InternalCheckError as exc:
        err(f"internal check failed: {exc}")
        return None, 3


def run_file(path, task=None, json_path=None, bound=None, seed=None):
    data = _load_problem(path, _error)
    if data is None:
        return 2
    report, code = _run(data, _error, task=task, bound=bound, seed=seed)
    if report is None:
        return code
    print(render_report(report))
    if json_path:
        try:
            Path(json_path).write_text(canonical_json(report))
        except OSError as exc:
            _error(f"cannot write {json_path}: {exc}")
            return 2
    return 0 if report_passed(report) else 1


def run_corpus(directory):
    root = Path(directory)
    if not root.is_dir():
        _error(f"{directory} is not a directory")
        return 2
    entries = sorted(p for p in root.glob("*.json")
                     if not p.name.endswith(".golden.json"))
    counts = {"ok": 0, "new": 0, "diff": 0, "error": 0}
    for path in entries:
        status = _corpus_status(path)
        counts[status] += 1
        print(f"{status:<5} {path.name}")
    total = sum(counts.values())
    print(f"{total} entries: " + ", ".join(
        f"{counts[k]} {k}" for k in ("ok", "new", "diff", "error")))
    return 1 if counts["diff"] or counts["error"] else 0


def _corpus_status(path):
    data = _load_problem(path, _error)
    if data is None:
        return "error"
    report, _ = _run(data, lambda message: _error(f"{path.name}: {message}"))
    if report is None:
        return "error"
    golden = path.with_name(path.stem + ".golden.json")
    if not golden.exists():
        return "new"
    return "ok" if golden.read_bytes() == canonical_json(report).encode() else "diff"


def _bound(text):
    """An argparse type: a degree bound, refused below 0 as in the schema."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


# the two parsers are built once; a parse makes its own namespace
_CORPUS_PARSER = argparse.ArgumentParser(
    prog="gradweil corpus",
    description="Run every problem file in a directory and compare "
                "canonical reports against *.golden.json files.")
_CORPUS_PARSER.add_argument("directory", help="corpus directory")
_PARSER = argparse.ArgumentParser(
    prog="gradweil",
    description="Run one JSON problem file and print its report.")
_PARSER.add_argument("problem", help="path to a JSON problem file")
_PARSER.add_argument("--task", choices=list(TASKS),
                     help="override the task named in the file")
_PARSER.add_argument("--json", dest="json_path", metavar="PATH",
                     help="also write the canonical JSON report here")
_PARSER.add_argument("--bound", type=_bound,
                     help="polynomial degree bound for exactness solves (>= 0)")
_PARSER.add_argument("--seed", type=int,
                     help="seed for randomized fallback objects")


def main(argv=None):
    """Run the command line `argv` and return its exit code; an argument
    argparse refuses returns 2 after its usage line on stderr, and --help
    returns 0."""
    argv = list(sys.argv[1:] if argv is None else argv)
    corpus = bool(argv) and argv[0] == "corpus"
    try:
        args = _CORPUS_PARSER.parse_args(argv[1:]) if corpus else _PARSER.parse_args(argv)
    except SystemExit as exc:   # argparse exits where it refuses or helps
        return exc.code
    if corpus:
        return run_corpus(args.directory)
    return run_file(args.problem, task=args.task, json_path=args.json_path,
                    bound=args.bound, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
