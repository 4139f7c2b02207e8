"""The three benchmark workloads: their op schedules, inputs, ops and checks.

A workload is a block of op specs that the seed shuffles and gives input
seeds.  Every op builds fresh inputs from its own seed before it is timed,
so no object (and no cache an object might carry) is shared between ops.
Only the op itself is timed; building its inputs and checking its output are
not.  A check raises `CheckFailed` when the output is wrong.

Ops call gradweil through module attributes (``chernweil.is_exact``), never
through names bound at import, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import gradweil.catalog as catalog
import gradweil.chernweil as chernweil
import gradweil.cli as cli
import gradweil.forms as forms
import gradweil.randgen as randgen
from gradweil.algebroid import Chart, tangent_algebroid
from gradweil.ring import Poly


class CheckFailed(Exception):
    """An op's output is wrong."""


@dataclass(frozen=True)
class Op:
    kind: str
    params: tuple
    seed: str      # seeds the op's inputs

    @property
    def label(self):
        """The op's class in the per-class summary lines."""
        return " ".join([self.kind, *map(str, self.params)])


def block(workload, seed, index):
    """Block `index` of the op stream for `seed`: a shuffled schedule."""
    rng = random.Random(f"{workload.name}:{seed}:{index}")
    specs = list(workload.schedule)
    rng.shuffle(specs)
    return [Op(kind, params, f"{workload.name}:{seed}:{index}:{pos}")
            for pos, (kind, params) in enumerate(specs)]


# ----------------------------------------------------------------------
# an independent Koszul differential for the checks


def _sorted_sign(indices):
    """(sign, ascending tuple) of a wedge of coframe elements; sign 0 on a repeat."""
    if len(set(indices)) != len(indices):
        return 0, ()
    inversions = sum(1 for a, b in itertools.combinations(indices, 2) if a > b)
    return (-1 if inversions % 2 else 1), tuple(sorted(indices))


def koszul_d(algebroid, form):
    """d_A of a scalar form as {ascending multi-index: nonzero Poly}.

    Uses the derivation rule d(f e^J) = sum_i rho(e_i)(f) e^i ^ e^J + f d(e^J)
    with d e^k = -sum_{a<b} c_ab^k e^a ^ e^b, so it shares no code with
    `Algebroid.d`, which evaluates the Koszul formula on frame elements.
    """
    rank = algebroid.rank
    variables = algebroid.variables
    d_coframe = [{(a, b): -algebroid.structure[a][b][k]
                  for a in range(rank) for b in range(a + 1, rank)
                  if not algebroid.structure[a][b][k].is_zero()}
                 for k in range(rank)]
    out = {}

    def add(indices, poly):
        sign, key = _sorted_sign(indices)
        if sign:
            acc = out.get(key, Poly.zero(variables))
            out[key] = acc + poly if sign > 0 else acc - poly

    for mi in form.multi_indices():
        f = form.get(mi)
        for i in range(rank):
            df = Poly.zero(variables)
            for v, component in enumerate(algebroid.anchor[i]):
                if not component.is_zero():
                    df = df + component * f.partial(v)
            if not df.is_zero():
                add((i,) + mi, df)
        for t, j in enumerate(mi):
            for (a, b), c in d_coframe[j].items():
                term = f * c
                add(mi[:t] + (a, b) + mi[t + 1:], term if t % 2 == 0 else -term)
    return {key: poly for key, poly in out.items() if not poly.is_zero()}


def coefficients(form):
    return {mi: form.get(mi) for mi in form.multi_indices()}


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _check_primitive(algebroid, form, result, what):
    _require(result.status == "exact", f"{what}: status {result.status!r}, expected 'exact'")
    _require(koszul_d(algebroid, result.primitive) == coefficients(form),
             f"{what}: d_A(primitive) differs from the form")


# ----------------------------------------------------------------------
# corpus_cli


# The 29 shipped problems, pinned so that a corpus change cannot silently
# change the workload.
CORPUS = (
    "adjoint_action_line_poly", "adjoint_action_line_zero", "adjoint_sl2",
    "atiyah_aff1_center", "atiyah_sl2_borel", "bott_5dim", "bott_sl2_borel",
    "check_action_line", "check_aff1", "check_broken_jacobi", "check_sl2",
    "check_sl2_broken", "double_action_line", "double_aff1_scalar",
    "graded_bott_5dim", "graded_bott_broken_omega", "iis_action_line",
    "iis_aff1_unstable", "iis_naive_ideal", "iis_tangent_plane",
    "massey_aff1", "massey_h3", "massey_sl2_zero", "morphism_ideal_aff1",
    "morphism_zero_map_aff1", "obstruct_aff1_mixed", "pontryagin_two_aff1",
    "transgression_aff1_scalar", "transgression_sl2_borelmod",
)


class CorpusCli:
    """One in-process ``gradweil <problem> --json <out>`` per op."""

    name = "corpus_cli"
    schedule = tuple(("cli", (problem,)) for problem in CORPUS)
    warmup = Op("cli", ("check_aff1",), "warmup")

    def __init__(self, root, scratch):
        self.corpus = root / "corpus"
        self.scratch = scratch
        self.goldens = {}
        for problem in CORPUS:
            golden = (self.corpus / f"{problem}.golden.json").read_bytes()
            report = json.loads(golden)
            expected_exit = 0 if all(c["pass"] for c in report["checks"]) else 1
            self.goldens[problem] = (golden, expected_exit)

    def build(self, op):
        (problem,) = op.params
        out = self.scratch / f"{problem}.json"
        out.unlink(missing_ok=True)
        return [str(self.corpus / f"{problem}.json"), "--json", str(out)]

    def run(self, op, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stdout.getvalue()

    def check(self, op, argv, output):
        (problem,) = op.params
        code, text = output
        golden, expected_exit = self.goldens[problem]
        _require(code == expected_exit, f"{problem}: exit {code}, golden says {expected_exit}")
        written = Path(argv[-1])
        _require(written.exists() and written.read_bytes() == golden,
                 f"{problem}: report bytes differ from the golden")
        verdict = "result: PASS" if expected_exit == 0 else "result: FAIL"
        _require(text.rstrip("\n").endswith(verdict), f"{problem}: printed report lacks {verdict!r}")


# ----------------------------------------------------------------------
# exact_chart


def _tangent(n):
    return tangent_algebroid(Chart(tuple(f"x{i}" for i in range(n))))


class ExactChart:
    """sigma_character then is_exact on TR^n for a random rank-2 connection.

    A case is (n, Christoffel degree, character index, bound).  The default
    bound of is_exact grows with the polynomial degree of the character, and
    the size of the linear system with the bound, so a drawn connection is
    drawn again until its character needs the case's bound: each case is
    then one system size, and the seed varies only the coefficients.

    Per block of 38 ops, the cases under 60 ms fill the lowest 32% of the
    sorted latencies, TR^4 sigma2 of degree 1 (about 0.2 s) the next 50%,
    TR^4 sigma1 of degree 2 (about 0.35 s) the next 16% and one TR^5 solve
    (about 2 s) the top 3%.  So p50 falls well inside the first TR^4 case and
    p90 in the middle of the second, where per-op noise moves it least.
    TR^4 deg 2 sigma2, TR^5 deg 1 sigma2 and TR^5 deg 2 sigma2 are left out:
    one solve takes 17 s or more.
    """

    name = "exact_chart"
    schedule = tuple(
        [("small", case) for case in ((3, 1, 1, 2), (3, 1, 2, 2), (3, 2, 1, 4),
                                      (3, 2, 2, 2), (4, 1, 1, 2), (5, 1, 1, 2))] * 2
        + [("tr4", (4, 1, 2, 6))] * 19 + [("tr4", (4, 2, 1, 4))] * 6
        + [("tr5", (5, 2, 1, 4))])
    warmup = Op("small", (3, 1, 1, 2), "warmup")
    max_draws = 100

    def __init__(self, root, scratch):
        pass

    def build(self, op):
        n, degree, index, bound = op.params
        algebroid = _tangent(n)
        rng = random.Random(op.seed)
        for _ in range(self.max_draws):
            state = rng.getstate()
            drawn = randgen.random_linear_connection(rng, algebroid, 2, degree)
            form = chernweil.sigma_character(drawn, index).form
            if chernweil.default_bound(algebroid, [form]) == bound:
                # the op gets a fresh object, so nothing computed here is reused
                rng.setstate(state)
                return algebroid, randgen.random_linear_connection(rng, algebroid, 2, degree)
        raise RuntimeError(f"no connection for case {op.params} in {self.max_draws} draws")

    def run(self, op, inputs):
        algebroid, connection = inputs
        character = chernweil.sigma_character(connection, op.params[2])
        return character, chernweil.is_exact(algebroid, character.form)

    def check(self, op, inputs, output):
        character, result = output
        _check_primitive(inputs[0], character.form, result, f"TR^{op.params[0]} case {op.params}")


# ----------------------------------------------------------------------
# cuth_point


_BUNDLE = ((0, 2), (1, 2), (2, 1))   # R^2[0] + R^2[1] + R[2]
_ALGEBRAS = {"sl2": catalog.sl2, "solvable5": catalog.solvable5,
             "abelian6": lambda: catalog.abelian(6),
             "abelian8": lambda: catalog.abelian(8)}
# dim H^k of the Chevalley-Eilenberg complex where it is known in closed form
_BETTI = {"sl2": [1, 0, 0, 1],
          "abelian6": [math.comb(6, k) for k in range(7)],
          "abelian8": [math.comb(8, k) for k in range(9)]}


class CuthPoint:
    """Connections up to homotopy on point-base Lie algebras.

    sl2 runs curvature, sigma1-3 with is_exact, the sigma2 transgression and
    ce_cohomology once per block; solvable5 the same, with the transgression
    twice; abelian(6) curvature and sigma1 three times, sigma2 and sigma3
    twice and ce_cohomology once; abelian(8) curvature, sigma1, sigma2 and
    ce_cohomology once and p2 of a rank-3 connection twice.  With these
    weights, sorted by latency, the abelian(6) curvature and sigma1 ops
    (about 90 ms) fill 40-60% of a block and the p2 ops 87-93%, so p50 and
    p90 fall in the middle of one class of ops each instead of at the edge
    between two.
    """

    name = "cuth_point"
    schedule = tuple(
        [(kind, ("sl2",)) for kind in ("curvature", "sigma1", "sigma2", "sigma3",
                                       "transgression", "cohomology")]
        + [(kind, ("solvable5",)) for kind in ("curvature", "sigma1", "sigma2", "sigma3",
                                               "transgression", "transgression",
                                               "cohomology")]
        + [(kind, ("abelian6",)) for kind in ("curvature", "sigma1") * 3
           + ("sigma2", "sigma3") * 2 + ("cohomology",)]
        + [(kind, ("abelian8",)) for kind in ("curvature", "sigma1", "sigma2", "cohomology",
                                              "pontryagin", "pontryagin")])
    warmup = Op("curvature", ("sl2",), "warmup")

    def __init__(self, root, scratch):
        pass

    def build(self, op):
        algebroid = _ALGEBRAS[op.params[0]]()
        rng = random.Random(op.seed)
        bundle = forms.GradedBundle(list(_BUNDLE))
        if op.kind == "transgression":
            return (algebroid, randgen.random_cuth(rng, algebroid, bundle),
                    randgen.random_cuth(rng, algebroid, bundle))
        if op.kind == "pontryagin":
            return algebroid, randgen.random_linear_connection(rng, algebroid, 3)
        if op.kind == "cohomology":
            return (algebroid,)
        return algebroid, randgen.random_cuth(rng, algebroid, bundle)

    def run(self, op, inputs):
        kind = op.kind
        if kind == "curvature":
            return inputs[1].curvature()
        if kind.startswith("sigma"):
            character = chernweil.sigma_character(inputs[1], int(kind[-1]))
            return character, chernweil.is_exact(inputs[0], character.form)
        if kind == "transgression":
            return chernweil.transgression(inputs[1], inputs[2], 2)
        if kind == "pontryagin":
            return chernweil.pontryagin_class(inputs[1], 2)
        return chernweil.ce_cohomology(inputs[0])

    def check(self, op, inputs, output):
        kind, algebra, algebroid = op.kind, op.params[0], inputs[0]
        what = f"{kind} on {algebra}"
        if kind == "curvature":
            _require(output.total_degree == 2, f"{what}: curvature of total degree "
                                               f"{output.total_degree}")
            trace = forms.gtr(output)
            _require(koszul_d(algebroid, trace) == {}, f"{what}: gtr(R) is not closed")
        elif kind.startswith("sigma"):
            character, result = output
            _require(koszul_d(algebroid, character.form) == {}, f"{what}: d_A sigma != 0")
            _check_primitive(algebroid, character.form, result, what)
        elif kind == "transgression":
            old = chernweil.sigma_character(inputs[1], 2).form
            new = chernweil.sigma_character(inputs[2], 2).form
            _require(koszul_d(algebroid, output) == coefficients(new - old),
                     f"{what}: d_A T != sigma2(new) - sigma2(old)")
        elif kind == "pontryagin":
            _require((output.index, output.prefactor, output.two_pi_exponent) == (2, 1, -4),
                     f"{what}: normalization {output.prefactor} (2 pi)^{output.two_pi_exponent}")
            _require(output.representative.degree == 8, f"{what}: p2 is not an 8-form")
            _require(koszul_d(algebroid, output.representative) == {},
                     f"{what}: representative is not closed")
        else:
            dims = [output.dim(k) for k in range(algebroid.rank + 1)]
            _require(sum((-1) ** k * d for k, d in enumerate(dims)) == 0,
                     f"{what}: Euler characteristic of {dims} is not 0")
            _require(algebra not in _BETTI or dims == _BETTI[algebra],
                     f"{what}: dims {dims}, expected {_BETTI.get(algebra)}")
            for k in range(algebroid.rank + 1):
                for rep in output.representatives[k]:
                    _require(koszul_d(algebroid, rep) == {},
                             f"{what}: a degree-{k} representative is not closed")


WORKLOADS = {w.name: w for w in (CorpusCli, ExactChart, CuthPoint)}
