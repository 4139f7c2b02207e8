"""Tests of the benchmark itself: its checker, its tracer and its counts.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gradweil  # noqa: E402
from gradweil import catalog, randgen  # noqa: E402
from run import PER_LAYER_UNITS, SPANS  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, block, coefficients, koszul_d  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("algebroid", [
    catalog.sl2(), catalog.solvable5(), catalog.heisenberg3(),
    catalog.aff1_action_line(), catalog.tangent_plane()])
def test_koszul_d_matches_the_engine_differential(algebroid):
    rng = random.Random(7)
    for degree in range(algebroid.rank + 1):
        for _ in range(4):
            form = randgen.random_form(rng, algebroid.variables, algebroid.rank,
                                       degree, 1, 2, density=3)
            assert koszul_d(algebroid, form) == coefficients(algebroid.d(form))


def test_checks_reject_a_wrong_output(tmp_path):
    corpus = WORKLOADS["corpus_cli"](ROOT, tmp_path)
    op = corpus.warmup
    argv = corpus.build(op)
    output = corpus.run(op, argv)
    corpus.check(op, argv, output)
    Path(argv[-1]).write_bytes(Path(argv[-1]).read_bytes().replace(b"true", b"false", 1))
    with pytest.raises(CheckFailed):
        corpus.check(op, argv, output)
    with pytest.raises(CheckFailed):
        corpus.check(op, corpus.build(op), (1 - output[0], output[1]))

    exact = WORKLOADS["exact_chart"](ROOT, tmp_path)
    op = exact.warmup
    inputs = exact.build(op)
    character, result = exact.run(op, inputs)
    exact.check(op, inputs, (character, result))
    result.primitive = result.primitive.scale(2)
    with pytest.raises(CheckFailed):
        exact.check(op, inputs, (character, result))


def test_blocks_depend_only_on_the_seed():
    for workload in WORKLOADS.values():
        assert block(workload, 3, 1) == block(workload, 3, 1)
        assert block(workload, 3, 1) != block(workload, 4, 1)
        assert sorted(op.params for op in block(workload, 3, 1)) == sorted(
            params for _, params in workload.schedule)


def test_tracer_wraps_names_imported_by_other_modules_and_restores_them():
    connections, chernweil = gradweil.connections, gradweil.chernweil
    originals = (connections.mat_mul, chernweil.solve, gradweil.Poly.__mul__,
                 gradweil.is_exact)
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = (connections.mat_mul, chernweil.solve, gradweil.Poly.__mul__,
                   gradweil.is_exact)
        assert all(w is not o for w, o in zip(wrapped, originals))
        assert connections.mat_mul is gradweil.forms.mat_mul
        tracer.begin_op()
        chernweil.ce_cohomology(catalog.sl2())
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert (connections.mat_mul, chernweil.solve, gradweil.Poly.__mul__,
            gradweil.is_exact) == originals
    # ce_cohomology reaches linalg only through names chernweil imported
    assert tracer.stats["linalg.nullspace"][0] > 0
    assert tracer.stats["linalg.rref"][0] >= tracer.stats["linalg.nullspace"][0]


def _counts(metrics):
    return {name: value["value"] for name, value in metrics.items()
            if not name.endswith("self_ms") and name != "trace.overhead_share"}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_across_processes(workload):
    results = []
    for seconds in ("0", "1"):   # one replay of block 0, then as many as fit
        done = _run("--workload", workload, "--seed", "11", "--seconds", seconds,
                    "--trace", "1")
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout.splitlines()[-1]))
    first, second = results
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == set(PER_LAYER_UNITS)
    assert _counts(first["metrics"]) == _counts(second["metrics"])
    assert all(f"{prefix}.calls" in first["metrics"] for prefix in SPANS)


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "corpus_cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
