"""Command-line interface: exit codes, canonical output, corpus runner."""

import contextlib
import importlib.util
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradweil import catalog
from gradweil.algebroid import Algebroid
from gradweil.cli import canonical_json, main
from gradweil.errors import InternalCheckError
from gradweil.problems import TASKS, run_problem, validate_problem
from test_connections import double_the_identity

REPO = pathlib.Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"


def write_problem(tmp_path, payload, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def check_sl2_payload():
    return {"task": "check-algebroid", "algebroid": catalog.sl2().to_json()}


def test_passing_problem_exits_zero(tmp_path, capsys):
    code = main([write_problem(tmp_path, check_sl2_payload())])
    out = capsys.readouterr().out
    assert code == 0
    assert "result: PASS" in out
    assert "PASS jacobi" in out


def test_failing_problem_exits_one(tmp_path, capsys):
    payload = {"task": "check-algebroid",
               "algebroid": catalog.broken_jacobi().to_json()}
    code = main([write_problem(tmp_path, payload)])
    out = capsys.readouterr().out
    assert code == 1
    assert "result: FAIL" in out
    assert "FAIL jacobi" in out
    assert "witness:" in out


def test_missing_file_exits_two(tmp_path, capsys):
    code = main([str(tmp_path / "absent.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_bad_json_exits_two(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code = main([str(path)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_schema_violation_exits_two(tmp_path, capsys):
    payload = {"task": "no-such-task"}
    code = main([write_problem(tmp_path, payload)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_required_field_exits_two(tmp_path, capsys):
    payload = {"task": "pontryagin"}  # needs an algebroid
    code = main([write_problem(tmp_path, payload)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_task_flag_overrides_file(tmp_path, capsys):
    payload = check_sl2_payload()
    del payload["task"]
    payload["task"] = "check-algebroid"
    path = write_problem(tmp_path, payload)
    assert main([path, "--task", "check-algebroid"]) == 0
    capsys.readouterr()


def test_json_output_is_canonical_and_deterministic(tmp_path, capsys):
    path = write_problem(tmp_path, check_sl2_payload())
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main([path, "--json", str(out1)]) == 0
    assert main([path, "--json", str(out2)]) == 0
    capsys.readouterr()
    blob1, blob2 = out1.read_bytes(), out2.read_bytes()
    assert blob1 == blob2
    assert blob1.endswith(b"\n")
    report = json.loads(blob1)
    assert report["task"] == "check-algebroid"
    assert blob1.decode() == canonical_json(report)


@pytest.mark.parametrize("target", ["missing_directory", "directory"])
def test_an_unwritable_json_path_exits_two(tmp_path, capsys, target):
    # exit 1 would claim a failed math check; the report itself passes
    path = write_problem(tmp_path, check_sl2_payload())
    json_path = tmp_path / "absent" / "report.json" if target == "missing_directory" else tmp_path
    assert main([path, "--json", str(json_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {json_path}: ") and err.count("\n") == 1
    assert not (tmp_path / "absent").exists()


def test_seed_flag_reproducible(tmp_path, capsys):
    payload = {"task": "transgression", "connections": {},
               "algebroid": catalog.aff1().to_json(), "rank": 1}
    path = write_problem(tmp_path, payload)
    outs = []
    for _ in range(2):
        assert main([path, "--seed", "5"]) in (0, 1)
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert main([path, "--seed", "6"]) in (0, 1)
    other = capsys.readouterr().out
    # different seeds give different random connections almost surely
    assert other != outs[0]


def test_validate_problem_reports_paths():
    diags = validate_problem({"task": "massey", "alpha": {"degree": "x"}})
    assert diags
    assert any("alpha" in d for d in diags)
    assert validate_problem(check_sl2_payload()) == []


def test_all_tasks_have_dispatchers():
    assert len(TASKS) == 12
    for t in TASKS:
        payload = {"task": t}
        diags = validate_problem(payload)
        assert diags == []  # schema-wise only "task" is required


def test_task_registry_drives_schema_and_cli(tmp_path, capsys):
    import gradweil.problems as problems
    assert TASKS == tuple(problems._DISPATCH)
    assert problems.SCHEMA["properties"]["task"]["enum"] == list(TASKS)
    assert main([write_problem(tmp_path, check_sl2_payload()), "--task", "frobnicate"]) == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and all(repr(t) in err for t in TASKS)


def test_run_problem_unknown_task():
    from gradweil.errors import ParseError
    with pytest.raises(ParseError):
        run_problem(check_sl2_payload(), task="frobnicate")


# --- corpus runner -----------------------------------------------------------


def test_shipped_corpus_all_ok(capsys):
    code = main(["corpus", str(CORPUS)])
    out = capsys.readouterr().out
    assert code == 0
    tally = out.strip().splitlines()[-1]
    assert "0 diff" in tally and "0 error" in tally and "0 new" in tally


def test_shipped_corpus_runs_without_jsonschema():
    # jsonschema is the tests' schema oracle, not a runtime dependency: with
    # its import blocked the package must still check and run every entry
    script = ("import sys; sys.modules['jsonschema'] = None; "
              "from gradweil.cli import main; sys.exit(main(['corpus', 'corpus']))")
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], cwd=REPO, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    count = len(list(CORPUS.glob("*.golden.json")))
    assert done.stdout.splitlines()[-1] == (
        f"{count} entries: {count} ok, 0 new, 0 diff, 0 error")


def test_corpus_missing_golden_is_new(tmp_path, capsys):
    shutil.copy(CORPUS / "check_sl2.json", tmp_path / "check_sl2.json")
    code = main(["corpus", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "new" in out and "1 new" in out


def test_corpus_corrupted_golden_is_diff(tmp_path, capsys):
    shutil.copy(CORPUS / "check_sl2.json", tmp_path / "check_sl2.json")
    golden = tmp_path / "check_sl2.golden.json"
    golden.write_text('{"task":"check-algebroid"}\n')
    code = main(["corpus", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "diff" in out and "1 diff" in out


def test_corpus_broken_entry_is_error(tmp_path, capsys):
    (tmp_path / "bad.json").write_text("{")
    code = main(["corpus", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "error" in out


def test_corpus_empty_directory(tmp_path, capsys):
    code = main(["corpus", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 entries" in out


def test_corpus_non_directory_exits_two(tmp_path, capsys):
    code = main(["corpus", str(tmp_path / "nowhere")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_corpus_goldens_match_run_problem():
    # spot-check byte identity through the library path as well
    for name in ("check_sl2", "massey_h3", "pontryagin_two_aff1"):
        payload = json.loads((CORPUS / f"{name}.json").read_text())
        golden = (CORPUS / f"{name}.golden.json").read_bytes()
        assert canonical_json(run_problem(payload)).encode() == golden


def test_corpus_is_exactly_what_the_regen_tool_writes():
    spec = importlib.util.spec_from_file_location(
        "regen_corpus", REPO / "tools" / "regen_corpus.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    names = [name for name, _ in tool.ENTRIES]
    assert len(set(names)) == len(names)
    managed = {f"{n}.json" for n in names} | {f"{n}.golden.json" for n in names}
    assert {p.name for p in CORPUS.iterdir()} == managed
    for name, payload in tool.ENTRIES:
        expected = (json.dumps(payload, indent=1) + "\n").encode()
        assert (CORPUS / f"{name}.json").read_bytes() == expected, name


def test_route_ratio_tool_prints_its_table_and_exits_one_on_disagreement(monkeypatch,
                                                                         capsys):
    from gradweil.connections import ConnectionUpToHomotopy
    from gradweil.forms import TotalForm

    spec = importlib.util.spec_from_file_location(
        "route_ratio", REPO / "tools" / "route_ratio.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["--seeds", "1", "--repeats", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()
    algebras = ["sl2", "solvable5", "abelian(8)", "TR^4"]
    lie_algebras = ["sl2", "solvable5", "two_aff1_plus_center", "abelian(8)", "fractional_point"]
    assert [row.split()[:2] for row in rows] == [["route", "algebra"]] + [
        [route, name] for route in ("curvature", "power_traces", "square_trace")
        for name in algebras] + [["cohomology", name] for name in lie_algebras] + [
        ["boundary", "corpus"], ["exactness", "TR^4/sigma2"], ["exactness", "TR^4/sigma1/deg2"]] + [
        ["transgression", f"{name}/index{index}"]
        for name in ("sl2", "solvable5", "abelian(8)", "tangent_plane", "TR^3")
        for index in (2, 3)]
    original = ConnectionUpToHomotopy.curvature
    monkeypatch.setattr(ConnectionUpToHomotopy, "curvature",
                        lambda self: original(self).scale(2))
    assert tool.main(["--seeds", "1", "--repeats", "1"]) == 1
    out = capsys.readouterr().out
    assert "curvature, sl2, seed 0: the engine and the formula disagree" in out
    assert "power_traces, sl2, seed 0" not in out   # both sides read the same R
    monkeypatch.undo()
    traces = tool.power_traces
    monkeypatch.setattr(tool, "power_traces", lambda R, top, graded: traces(R, top - 1, graded))
    assert tool.main(["--seeds", "1", "--repeats", "1"]) == 1
    out = capsys.readouterr().out
    assert "power_traces, sl2, seed 0: the engine and the formula disagree" in out
    assert "curvature, sl2, seed 0" not in out
    monkeypatch.undo()
    # a trace of a square taken twice over, as a pass that doubled the pair
    # of a block with itself or halved an asymmetric square would
    wedge_trace = TotalForm.wedge_trace
    monkeypatch.setattr(TotalForm, "wedge_trace", lambda K, L, graded=False: (
        wedge_trace(K, L, graded).scale(2 if L is K else 1)))
    assert tool.main(["--seeds", "1", "--repeats", "1"]) == 1
    out = capsys.readouterr().out
    # seed 0 has tr(R ^ R) and gtr(R ^ R) zero on sl2 and abelian(8) only
    assert [name for name in algebras if f"square_trace, {name}, seed 0: the engine and "
            "the formula disagree" in out] == ["solvable5", "TR^4"]
    assert "curvature, " not in out
    monkeypatch.undo()
    # coboundary columns at twice their numerators, as a second `_d_den`
    # scale would give; abelian(8) has no nonzero column to differ
    cohomology = tool.ce_cohomology

    def doubled(algebroid):
        basis = cohomology(algebroid)
        basis.d_cols = {k: [{i: 2 * v for i, v in col.items()} for col in cols]
                        for k, cols in basis.d_cols.items()}
        return basis

    monkeypatch.setattr(tool, "ce_cohomology", doubled)
    assert tool.main(["--seeds", "1", "--repeats", "1"]) == 1
    out = capsys.readouterr().out
    assert [name for name in lie_algebras if f"cohomology, {name}: the engine and the "
            "reference disagree" in out] == ["sl2", "solvable5", "two_aff1_plus_center",
                                             "fractional_point"]
    assert "seed 0: the engine and the formula disagree" not in out
    monkeypatch.undo()
    # a decompose primitive not scaled by `_d_den`, which only
    # fractional_point (`_d_den` 210) has above 1
    from gradweil.chernweil import CohomologyBasis

    decompose = CohomologyBasis.decompose

    def unscaled(basis, form):
        coeffs, primitive = decompose(basis, form)
        return coeffs, primitive.scale(Fraction(1, basis.algebroid._d_den))

    monkeypatch.setattr(CohomologyBasis, "decompose", unscaled)
    assert tool.main(["--seeds", "1", "--repeats", "1"]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if "disagree" in line] == [
        "cohomology, fractional_point, seed 0: decompose and the reference disagree"]
    monkeypatch.undo()
    # a literal read without its sign, at the boundary only: the reference
    # reads every entry by the grammar
    from gradweil.ring import Poly

    parse = Poly.parse
    monkeypatch.setattr(Poly, "parse", lambda text, variables: parse(text.lstrip("-"), variables))
    assert tool.main(["--seeds", "1", "--repeats", "1"]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if "disagree" in line] == [
        "boundary: from_json and the reference disagree"]
    monkeypatch.undo()
    # a primitive stored at twice its value, on the exactness rows alone
    from gradweil.chernweil import ExactnessResult

    solve = tool.is_exact
    monkeypatch.setattr(tool, "is_exact", lambda algebroid, form: ExactnessResult(
        "exact", solve(algebroid, form).primitive.scale(2)))
    assert tool.main(["--seeds", "1", "--repeats", "1"]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if "disagree" in line] == [
        f"exactness, {case}, seed 0: is_exact and the reference disagree"
        for case in ("TR^4/sigma2", "TR^4/sigma1/deg2")]
    monkeypatch.undo()
    # the index-2 Chern-Simons form with its 2 gtr(Omega ^ D^2) piece taken
    # once, on the index-2 transgression rows alone; on tangent_plane, of
    # frame rank 2, that piece is a 3-form and zero
    engine = tool.transgression

    def once(old, new, index):
        T = engine(old, new, index)
        if index != 2:
            return T
        diff = new.omega() - old.omega()
        return T - old.omega().wedge_trace(diff.wedge(diff), graded=True)

    monkeypatch.setattr(tool, "transgression", once)
    assert tool.main(["--seeds", "1", "--repeats", "1"]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if "disagree" in line] == [
        f"transgression, {name}/index2, seed 0: the engine and the reference disagree"
        for name in ("sl2", "solvable5", "abelian(8)", "TR^3")]


# --- out-of-range indices ------------------------------------------------------


def _corpus_payload(name):
    return json.loads((CORPUS / f"{name}.json").read_text())


def test_christoffel_frame_out_of_range_exits_two(tmp_path, capsys):
    payload = _corpus_payload("transgression_aff1_scalar")
    payload["connections"]["new"]["christoffel"][0]["frame"] = 5
    assert main([write_problem(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "frame 5" in err
    assert "Traceback" not in err


def test_zero_denominator_exits_two(tmp_path, capsys):
    payload = _corpus_payload("adjoint_action_line_poly")
    payload["tangent_connection"]["christoffel"][0]["matrix"][0][1] = "1/0"
    assert main([write_problem(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "zero denominator" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("where", ["connection", "anchor"])
def test_an_exponent_the_packed_layer_cannot_hold_exits_two(where, tmp_path, capsys):
    payload = _corpus_payload("double_action_line")
    if where == "connection":
        payload["connection"]["christoffel"][0]["matrix"][0][0] = "x^4294967296"
    else:
        payload["algebroid"]["anchor"][1][0] = "x^4294967296"
    start = time.perf_counter()
    assert main([write_problem(tmp_path, payload)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "4294967296" in err and "2^32" in err
    assert err.count("\n") == 1 and "Traceback" not in err


OVER_LONG = getattr(sys, "get_int_max_str_digits", lambda: 0)() + 1   # 1: no digit limit


@pytest.mark.skipif(OVER_LONG == 1, reason="this interpreter converts integers of any length")
@pytest.mark.parametrize("where", ["json", "exponent", "numerator", "denominator"])
def test_an_over_long_integer_literal_exits_two(where, tmp_path, capsys):
    # int() refuses a literal of more digits than the interpreter's limit; each
    # one the input can hold is refused as unusable input, with no traceback
    digits = "9" * OVER_LONG
    payload = _corpus_payload("double_action_line")
    entry = {"json": "x", "exponent": f"x^{digits}", "numerator": f"{digits}*x",
             "denominator": f"1/{digits}*x"}[where]
    payload["connection"]["christoffel"][0]["matrix"][0][0] = entry
    if where == "json":   # json.dumps cannot write the literal either
        payload["connection"]["rank"] = "RANK"
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(payload).replace('"RANK"', digits))
    start = time.perf_counter()
    assert main([str(path)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    if where == "exponent":
        assert "2^32" in err


def grown_past_the_digit_limit():
    """`pontryagin_two_aff1` with each Christoffel entry times an integer of
    a little over half the interpreter's digit limit: every literal parses,
    and the curvature's products of two entries have more digits than the
    limit, so the report cannot print them."""
    factor = 7 * 10 ** (OVER_LONG // 2 + 50) + 1
    payload = _corpus_payload("pontryagin_two_aff1")
    for entry in payload["connection"]["christoffel"]:
        entry["matrix"] = [[str(int(x) * factor) for x in row] for row in entry["matrix"]]
    return payload


@pytest.mark.skipif(OVER_LONG == 1, reason="this interpreter converts integers of any length")
def test_a_coefficient_past_the_digit_limit_exits_two(tmp_path, capsys):
    limit = str(OVER_LONG - 1)
    assert main([write_problem(tmp_path, grown_past_the_digit_limit())]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error:") and limit in err and "get_int_max_str_digits" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    # the corpus runner counts it as an error entry, with one error line
    assert main(["corpus", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["error problem.json",
                                         "1 entries: 0 ok, 0 new, 0 diff, 1 error"]
    assert captured.err.startswith("error: problem.json:") and limit in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_whitespace_inside_a_number_exits_two(tmp_path, capsys):
    payload = _corpus_payload("adjoint_action_line_poly")
    payload["tangent_connection"]["christoffel"][0]["matrix"][0][1] = "1 2/3"
    assert main([write_problem(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "whitespace inside a number" in err
    assert err.count("\n") == 1 and "Traceback" not in err


POINT_TANGENT_CONNECTION = {"rank": 99,
                            "christoffel": [{"frame": 7, "matrix": [["1/0"]]}]}


@pytest.mark.parametrize("name", ["adjoint_sl2", "iis_naive_ideal"])
def test_tangent_connection_over_a_point_exits_two(tmp_path, capsys, name):
    # both tasks read the field over a point base and refuse it the same way
    payload = _corpus_payload(name)
    payload["tangent_connection"] = POINT_TANGENT_CONNECTION
    assert main([write_problem(tmp_path, payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "the tangent algebroid of a point is empty" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("entry, message", [("1/0", "zero denominator"),
                                            ("x", "unknown variable"),
                                            ("3 4", "whitespace inside a number")])
def test_bad_morphism_entry_exits_two(tmp_path, capsys, entry, message):
    payload = _corpus_payload("morphism_ideal_aff1")
    payload["partial"][0][1] = entry
    assert main([write_problem(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("bound", ["-1", "two"])
def test_negative_or_non_integer_bound_flag_exits_two(tmp_path, capsys, bound):
    path = write_problem(tmp_path, _corpus_payload("iis_action_line"))
    assert main([path, "--bound", bound]) == 2
    err = capsys.readouterr().err
    assert "--bound: must be an integer >= 0" in err and "Traceback" not in err
    assert main([path, "--bound", "0"]) == 0


@pytest.mark.parametrize("argv", [["--bound", "-1"], ["--seed", "x"], ["--task", "nope"]])
def test_a_refused_argument_returns_two_in_process(tmp_path, capsys, argv):
    # the exit code comes back as an int; argparse's usage line stays on stderr
    path = write_problem(tmp_path, _corpus_payload("iis_action_line"))
    assert main([path, *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: gradweil ") and argv[0] in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def test_help_returns_zero_in_process(capsys):
    assert main(["--help"]) == 0
    assert main(["corpus", "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: gradweil ") and "usage: gradweil corpus " in out
    assert main(["corpus"]) == 2
    assert capsys.readouterr().err.startswith("usage: gradweil corpus ")


@pytest.mark.parametrize("field", ["row", "col"])
def test_total_form_term_out_of_range_exits_two(tmp_path, capsys, field):
    payload = _corpus_payload("graded_bott_5dim")
    payload["d_part"]["terms"][0][field] = 2  # the block is 2 x 2
    assert main([write_problem(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "out of range" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("block", [[-1, 0, 0], [7, 0, 1]])
def test_total_form_term_form_degree_out_of_range_exits_two(tmp_path, capsys, block):
    # the subframe restricts the rank-5 algebroid to frame rank 4
    payload = _corpus_payload("graded_bott_5dim")
    payload["d_part"]["terms"].append({"block": block, "index": [], "row": 0,
                                       "col": 0, "coeff": "1"})
    assert main([write_problem(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"form degree {block[0]}, outside 0..4" in err
    assert err.count("\n") == 1 and "Traceback" not in err


# --- repeated payload entries and unreadable chart names -----------------------


def _assert_refused(tmp_path, capsys, payload, message):
    assert main([write_problem(tmp_path, payload)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert message in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_repeated_christoffel_frame_exits_two(tmp_path, capsys):
    payload = _corpus_payload("transgression_aff1_scalar")
    payload["connections"]["new"]["christoffel"].append(
        {"frame": 1, "matrix": [["5"]]})
    _assert_refused(tmp_path, capsys, payload, "christoffel frame 1 is given twice")


def test_repeated_form_term_exits_two(tmp_path, capsys):
    payload = _corpus_payload("massey_aff1")
    payload["beta"]["terms"].append({"index": [0], "coeff": "2"})
    _assert_refused(tmp_path, capsys, payload,
                    "form term at index [0], fiber 0 is given twice")


def test_repeated_total_form_term_exits_two(tmp_path, capsys):
    payload = _corpus_payload("graded_bott_5dim")
    payload["d_part"]["terms"].append(dict(payload["d_part"]["terms"][0], coeff="7"))
    _assert_refused(tmp_path, capsys, payload,
                    "term (0, 0) of block [0, 0, 1] at index [] is given twice")


@pytest.mark.parametrize("name", ["1", "x y", "", "x*y", "x\u00e9"])
def test_chart_variable_that_parse_cannot_read_back_exits_two(tmp_path, capsys, name):
    # no polynomial names the variable, so only the chart check can refuse it
    payload = check_sl2_payload()
    payload["algebroid"]["chart"]["vars"] = [name]
    payload["algebroid"]["anchor"] = [["0"] for _ in range(3)]
    _assert_refused(tmp_path, capsys, payload, f"chart variable {name!r} is not an ASCII name")


# --- connection keys -----------------------------------------------------------


@pytest.mark.parametrize("key", ["7", "01"])
def test_connections_key_naming_no_summand_exits_two(tmp_path, capsys, key):
    payload = _corpus_payload("graded_bott_5dim")
    payload["connections"][key] = payload["connections"].pop("1")
    assert main([write_problem(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"connections key {key!r} is not the degree of a bundle summand" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_connection_rank_other_than_its_summand_rank_exits_two(tmp_path, capsys):
    payload = _corpus_payload("graded_bott_5dim")
    payload["connections"]["0"]["rank"] = 7
    _assert_refused(tmp_path, capsys, payload,
                    "connection rank 7 differs from the rank 2 of the bundle it connects")


def test_connection_bundle_degree_other_than_its_key_exits_two(tmp_path, capsys):
    payload = _corpus_payload("graded_bott_5dim")
    payload["connections"]["0"]["bundle_degree"] = 5
    _assert_refused(tmp_path, capsys, payload,
                    "connections key '0' holds a connection with bundle_degree 5")


def test_transgression_connections_key_other_than_old_or_new_exits_two(tmp_path,
                                                                       capsys):
    payload = _corpus_payload("transgression_aff1_scalar")
    payload["connections"]["older"] = payload["connections"].pop("old")
    assert main([write_problem(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "connections key 'older' is neither 'old' nor 'new'" in err
    assert err.count("\n") == 1 and "Traceback" not in err


# --- the morphism task -----------------------------------------------------------


def test_morphism_task_checks_the_morphism_once(monkeypatch):
    import gradweil.constructions as constructions
    import gradweil.problems as problems
    calls = []

    def spy(*args):
        calls.append(args)
        return original(*args)

    original = constructions.check_morphism
    monkeypatch.setattr(constructions, "check_morphism", spy)
    monkeypatch.setattr(problems, "check_morphism", spy)
    report = run_problem(_corpus_payload("morphism_ideal_aff1"))
    assert report["checks"][0] == {"name": "is_morphism", "pass": True}
    assert len(calls) == 1


# --- internal check failures -------------------------------------------------


def _raise_internal(*args, **kwargs):
    raise InternalCheckError("curvature check failed")


def test_internal_check_failure_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("gradweil.cli.run_problem", _raise_internal)
    assert main([write_problem(tmp_path, check_sl2_payload())]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: internal check failed: curvature check failed\n"
    assert "Traceback" not in captured.err + captured.out


def test_corpus_counts_internal_check_failure_as_error(tmp_path, capsys, monkeypatch):
    for suffix in (".json", ".golden.json"):
        shutil.copy(CORPUS / f"check_sl2{suffix}", tmp_path / f"check_sl2{suffix}")
    monkeypatch.setattr("gradweil.cli.run_problem", _raise_internal)
    assert main(["corpus", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "1 entries: 0 ok, 0 new, 0 diff, 1 error" in captured.out
    assert "internal check failed" in captured.err
    assert "Traceback" not in captured.err


def test_disagreeing_curvature_routes_exit_three_naming_the_block(tmp_path, capsys,
                                                                  monkeypatch):
    # the identity's block (0, 0, 0) doubled: cal_D on the basis sections of
    # E_0 returns twice Omega's blocks from E_0, the first of them Gamma's
    # (1, 0, 0) at (0,) in both problems
    double_the_identity(monkeypatch, 0)
    # a connection up to homotopy, and a problem with linear connections only
    for name in ("obstruct_aff1_mixed", "bott_sl2_borel"):
        assert main([str(CORPUS / f"{name}.json")]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            "error: internal check failed: curvature check failed: cal_D on the basis "
            "sections differs from Omega at block (1, 0, 0), multi-index (0,)\n")
        assert "Traceback" not in captured.err + captured.out


# --- complement keys -----------------------------------------------------------


@pytest.mark.parametrize("name, key, message", [
    ("bott_sl2_borel", "a", "not a frame index"),
    ("bott_sl2_borel", "02", "not a frame index"),
    ("bott_sl2_borel", "3", "frame 3 is out of range"),
    ("bott_sl2_borel", "-1", "frame -1 is out of range"),
    ("bott_sl2_borel", "1", "frame 1 lies in the subframe"),
    ("atiyah_sl2_borel", "0", "frame 0 lies in the subframe"),
])
def test_bad_complement_key_exits_two(tmp_path, capsys, name, key, message):
    payload = _corpus_payload(name)
    payload["complement"] = {key: [["0"]]}
    assert main([write_problem(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and message in err
    assert "Traceback" not in err


def test_bad_complement_key_exits_two_before_the_closure_check(tmp_path, capsys):
    payload = _corpus_payload("bott_sl2_borel")
    payload["subframe"] = [1, 2]  # [e_1, e_2] = e_0 leaves it
    assert main([write_problem(tmp_path, payload)]) == 1
    capsys.readouterr()
    payload["complement"] = {"a": [["0"]]}
    assert main([write_problem(tmp_path, payload)]) == 2
    assert "not a frame index" in capsys.readouterr().err


def test_complement_key_outside_the_subframe_is_used(tmp_path, capsys, monkeypatch):
    import gradweil.problems as problems
    seen = []

    def spy(*args, complement=None):
        seen.append(complement)
        return original(*args, complement=complement)

    original = problems.bott_report
    monkeypatch.setattr(problems, "bott_report", spy)
    payload = _corpus_payload("bott_sl2_borel")
    payload["complement"] = {"2": [["1/2"]]}
    assert main([write_problem(tmp_path, payload)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    [complement] = seen
    assert list(complement) == [2]
    assert str(complement[2][0][0]) == "1/2"


# --- the bundle rank of a subframe connection -----------------------------------


@pytest.mark.parametrize("name", ["bott_sl2_borel", "bott_5dim", "atiyah_sl2_borel",
                                  "atiyah_aff1_center", "atiyah_5dim_complement"])
def test_a_subframe_connection_without_rank_reads_it_off_its_christoffels(name):
    # the module of bott_sl2_borel has rank 1 on a Borel subframe of frame
    # rank 2, so the frame rank is no stand-in for the bundle rank
    payload = _corpus_payload(name)
    del payload["connection"]["rank"]
    golden = (CORPUS / f"{name}.golden.json").read_bytes()
    assert canonical_json(run_problem(payload)).encode() == golden


def test_a_subframe_connection_without_rank_or_christoffels_exits_two(tmp_path, capsys):
    payload = _corpus_payload("bott_sl2_borel")
    del payload["connection"]["rank"], payload["connection"]["christoffel"]
    assert main([write_problem(tmp_path, payload)]) == 2
    assert capsys.readouterr().err == (
        "error: task 'bott' requires field 'rank' in its connection, which has no "
        "christoffel matrix to read it from\n")


# --- the bundle rank of a task's own connection ---------------------------------


def _without_ranks(name):
    """A corpus payload with every connection's `rank` and the file's deleted."""
    payload = _corpus_payload(name)
    payload.pop("rank", None)
    for spec in ([payload["connection"]] if "connection" in payload
                 else payload["connections"].values()):
        del spec["rank"]
    return payload


@pytest.mark.parametrize("name", ["transgression_aff1_scalar", "transgression_sl2_borelmod",
                                  "pontryagin_two_aff1"])
def test_a_connection_without_rank_reads_it_off_its_christoffels(name):
    # their modules have rank 1, 1 and 2 on frames of rank 2, 3 and 5, so the
    # frame rank is no stand-in for the bundle rank
    golden = (CORPUS / f"{name}.golden.json").read_bytes()
    assert canonical_json(run_problem(_without_ranks(name))).encode() == golden


@pytest.mark.parametrize("name, key, where", [
    ("pontryagin_two_aff1", None, "connection"),
    ("transgression_aff1_scalar", "old", "connection 'old'"),
    ("transgression_sl2_borelmod", "new", "connection 'new'")])
def test_a_connection_without_rank_or_christoffels_exits_two(tmp_path, capsys, name, key, where):
    payload = _without_ranks(name)
    if key is None:
        del payload["connection"]["christoffel"]
    else:   # the other connection keeps its matrices, which would fix the rank
        del payload["connections"]["new" if key == "old" else "old"]
        del payload["connections"][key]["christoffel"]
    task = payload["task"]
    assert main([write_problem(tmp_path, payload)]) == 2
    assert capsys.readouterr().err == (
        f"error: task '{task}' requires field 'rank' in its {where}, which has no "
        "christoffel matrix to read it from\n")


# --- the exit-code contract under one mutated field -----------------------------


def _sites(value, path=()):
    """Every node of a payload, as a path of dict keys and list positions."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _sites(item, path + (key,))
    elif isinstance(value, list):
        for position, item in enumerate(value):
            yield from _sites(item, path + (position,))


CORPUS_NAMES = sorted(p.stem for p in CORPUS.glob("*.json")
                      if not p.name.endswith(".golden.json"))
MUTATION_SITES = [(name, path) for name in CORPUS_NAMES
                  for path in _sites(_corpus_payload(name)) if path]
SMALL_VALUES = ["1/0", "x", "3 4", "", "-1/2", 0, 1, 2, -1, 2.0, 0.5, [], [0], {}, None,
                True]


def _run_cli(path, json_path):
    """cli.main in-process: its exit code, stdout, stderr and --json bytes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(path), "--json", str(json_path)])
    written = json_path.read_bytes() if json_path.exists() else None
    return code, out.getvalue(), err.getvalue(), written


# literal edge values at two sites, each with the exit code there and the
# stderr it gives: a bracket coefficient of check_sl2 ([e_0, e_1] = 2 e_1, so a
# changed value breaks Jacobi) and a Christoffel entry of a pontryagin payload
LITERAL_SITES = {"check_sl2": ("algebroid", "brackets", 0, "coeffs", 1),
                 "pontryagin_two_aff1": ("connection", "christoffel", 0, "matrix", 0, 0)}
LONG_LITERAL = "7" * 5000
LITERAL_EDGES = {
    "-0": (1, 0, ""), "007": (1, 0, ""), "+1": (1, 0, ""), " 1 ": (1, 0, ""),
    "1/0": (2, 2, "error: zero denominator in '1/0'\n"),
    "1/-2": (2, 2, "error: bad factor '1/' in '1/-2'\n"),
    "": (2, 2, "error: empty polynomial string\n"),
    LONG_LITERAL: (2, 2, f"error: a number of 5000 digits in '{'7' * 29}...{'7' * 29}' is "
                         f"longer than the {sys.get_int_max_str_digits()} digits this "
                         "interpreter converts\n")}


def _literal_examples(test):
    for name, path in LITERAL_SITES.items():
        for value in LITERAL_EDGES:
            test = example(site=(name, path), value=value)(test)
    return test


@given(site=st.sampled_from(MUTATION_SITES), value=st.sampled_from(SMALL_VALUES))
@_literal_examples
@example(site=("adjoint_action_line_poly",
               ("tangent_connection", "christoffel", 0, "matrix", 0, 1)), value="1/0")
@example(site=("adjoint_sl2", ("tangent_connection",)), value=POINT_TANGENT_CONNECTION)
@example(site=("check_sl2", ("algebroid", "rank")), value=2.0)
@settings(max_examples=80, derandomize=True, deadline=None)
def test_one_mutated_field_keeps_the_exit_code_contract(site, value):
    # 3 is reserved for failed internal checks, which no input should reach
    name, path = site
    payload = _corpus_payload(name)
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        problem = pathlib.Path(tmp) / "problem.json"
        problem.write_text(json.dumps(payload))
        first = _run_cli(problem, pathlib.Path(tmp) / "first.json")
        second = _run_cli(problem, pathlib.Path(tmp) / "second.json")
    assert first[0] in (0, 1, 2)
    assert "Traceback" not in first[2]
    assert first == second
    if LITERAL_SITES.get(name) == path and isinstance(value, str) and value in LITERAL_EDGES:
        *codes, err = LITERAL_EDGES[value]
        assert (first[0], first[2]) == (codes[list(LITERAL_SITES).index(name)], err)


# --- an integer field holds a JSON integer literal ---------------------------------


def _at(payload, path):
    for key in path:
        payload = payload[key]
    return payload


_PAYLOADS = {name: _corpus_payload(name) for name in CORPUS_NAMES}
INTEGER_SITES = [(name, path) for name, path in MUTATION_SITES
                 if type(_at(_PAYLOADS[name], path)) is int]


def test_an_integral_float_in_any_integer_field_exits_two_naming_it(tmp_path):
    # 2.0 is an integer to Draft 7 but not to the engine, which would raise
    # TypeError on it: the schema refuses it, naming the field
    wrong = []
    for name, path in INTEGER_SITES:
        payload = _corpus_payload(name)
        parent = _at(payload, path[:-1])
        value = parent[path[-1]] = float(parent[path[-1]])
        code, _, err, _ = _run_cli(write_problem(tmp_path, payload),
                                   tmp_path / "report.json")
        where = "/".join(str(key) for key in path)
        if (code != 2 or "Traceback" in err
                or f"schema: {where}: {value!r} is not of type 'integer'" not in err):
            wrong.append((name, where, code, err))
    assert INTEGER_SITES and not wrong, wrong[:3]


# --- the exit-code contract over an algebroid that breaks Jacobi ----------------


BROKEN_JACOBI = catalog.broken_jacobi().to_json()
ALGEBROID_PAYLOADS = [name for name in CORPUS_NAMES
                      if "algebroid" in _corpus_payload(name)]


@pytest.mark.parametrize("name", ALGEBROID_PAYLOADS)
def test_broken_jacobi_algebroid_keeps_the_exit_code_contract(tmp_path, name):
    # a broken axiom is a failed math check (1) or unusable input (2), never 3;
    # with no connection given, the seeded random fallback fills them
    payload = _corpus_payload(name)
    payload["algebroid"] = BROKEN_JACOBI
    if "source_algebroid" in payload:
        payload["source_algebroid"] = BROKEN_JACOBI
    payload.pop("connection", None)
    payload["connections"] = {}
    code, _, err, _ = _run_cli(write_problem(tmp_path, payload),
                               tmp_path / "report.json")
    assert code in (0, 1, 2), err
    assert "Traceback" not in err


# --- a Pontryagin representative that is not closed is a failed check -----------


def _broken_rank5():
    """The brackets of `catalog.broken_jacobi` on e1..e3 plus [e4, e5] = e5, over a point."""
    return Algebroid.from_brackets(
        catalog.POINT, 5, [[] for _ in range(5)],
        {(0, 1): [0, 0, 1, 0, 0], (0, 2): [1, 0, 0, 0, 0], (1, 2): [0, 1, 0, 0, 0],
         (3, 4): [0, 0, 0, 0, 1]})


@pytest.mark.parametrize("seed, value", [(0, "13/2"), (1, "10"), (2, "6"),
                                         (3, "-21/2")])
def test_pontryagin_over_a_broken_algebroid_exits_one(tmp_path, seed, value):
    payload = {"task": "pontryagin", "algebroid": _broken_rank5().to_json(),
               "rank": 2, "indices": [1], "seed": seed}
    code, out, err, written = _run_cli(write_problem(tmp_path, payload),
                                       tmp_path / "report.json")
    assert code == 1, err
    assert "Traceback" not in err
    report = json.loads(written)
    assert report["checks"] == [{
        "name": "p1_representative_closed", "pass": False,
        "witness": {"index": [0, 1, 2, 3, 4], "fiber": 0, "value": value}}]
    assert "results" not in report
