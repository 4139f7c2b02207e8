"""Time the engine's curvature routes, cohomology, problem boundary, exactness solve and transgression against references.

    python tools/route_ratio.py [--seeds 5] [--repeats 5]

The algebras are sl2, solvable5 and abelian(8) over a point, and TR^4, the
tangent algebroid of a four-variable chart, where the kernel runs on packed
monomials.  For each algebra and seed it draws a connection up to homotopy on
R^2[0] + R^2[1] + R[2] and times three routes against their formulas:

* curvature: `curvature()` (two kernel passes: cal_D on the basis sections,
  checked against Omega, and cal_D on their images with d_A fused) against
  d_A Omega + Omega ^ Omega built from public calls (`TotalForm.wedge`,
  `Algebroid.d_total` and `+`);
* power_traces: `chernweil.power_traces(R, 4, graded=True)`, which builds R^2
  only and gets gtr(R^3) and gtr(R^4) as trace-only products of halves,
  against gtr of R, R^2, R^3 and R^4 built by repeated public `wedge`;
* square_trace: `R.wedge_trace(R)` and `R.wedge_trace(R, graded=True)`, the
  trace-only products of the curvature with itself, against `tr` and `gtr`
  of the full `R.wedge(R)`.  The bundle has a summand of odd degree, so the
  graded trace visits each unordered pair of terms once and the ungraded
  one takes the full loop.

Every timed call runs on a fresh copy of the connection and its algebroid
whose Omega (and, for the power traces, curvature) is built before the clock
starts; the engine and the formula alternate, and a time for a seed is the
best of `--repeats` calls.  Prints, per route and algebra, the median over
the seeds of both times and of their ratio.

A last route, cohomology: on sl2, solvable5, two_aff1_plus_center,
abelian(8) and fractional_point (denominators 2-7, `_d_den` 210) it times
`ce_cohomology` (integer coboundary columns, the eliminations skipped where
d_k or d_(k-1) is zero, and each representative of a degree where both are
zero stored as e^J over 1) against `oracles.cohomology_reference` from
tests/, the same basis built in Fractions with every degree eliminated, each
on a fresh algebroid, best of `--repeats`, printing the reference's time in
the formula column; the two must give equal bases, rep_vectors, dims and
stored representatives, and the engine's columns must be the reference's
times `_d_den`.  For each seed it also draws one random closed form in each
degree 1..rank, a random rational combination of the reference's cocycles,
and `decompose` (its primitive stored from the integer triples of
`linalg.integer_solution` times `_d_den`) must give the reference's class
coefficients and stored primitive.

A boundary row reads every algebroid of the problem files in corpus/ by
`Algebroid.from_json` (a bare literal read by one match, each bracket vector
placed directly) against `oracles.from_json_reference` from tests/ (every
entry read by the grammar, the structure built by adding into an array of
zeros), all of them per call, best of `--repeats`, printing the reference's
time in the formula column; the two must give equal anchors and structures.

An exactness row per case, TR^4 sigma_2 of a rank-2 connection of
Christoffel degree 1 and TR^4 sigma_1 of one of degree 2 (the p50 and p90
classes of the exact_chart benchmark), times `is_exact` (the primitive
stored from the integer triples of `linalg.integer_solution` over
lcm(heads) * D) against `oracles.exactness_reference` from tests/ (the same
system by `solve`, a Fraction per solved unknown, and the Fraction build),
each call on a fresh algebroid and character, best of `--repeats` per seed,
printing the medians over the seeds, the reference's time in the formula
column; the two must give the same status and stored primitive.

A transgression row per algebra and index 2 and 3, on sl2, solvable5,
abelian(8), tangent_plane (TM of a two-variable chart) and TR^3, times
`chernweil.transgression` (index 2 the Chern-Simons form, four trace-only
products and no d_End; index 3 the expansion of R_t through `d_end`)
against `oracles.transgression_by_sums` from tests/ (every coefficient of
R_t^(index - 1) by public wedge and `+`, traced by `gtr` of its full wedge
with D, summed one `+` and `scale` at a time) on two fresh connections up to
homotopy on R^2[0] + R^2[1] + R[2] per call, the old curvature and both
Omegas built before the clock starts, best of `--repeats` per seed, printing
the medians over the seeds, the reference's time in the formula column; the
two must store the same form.  T_index is a form of degree 2 index - 1, so
it vanishes on a frame of lower rank: tangent_plane's rows and sl2's index-3
row compare zero forms, and TR^3 is the chart whose index-2 form is not
zero.

Exits 1 if a route and its formula, the cohomology or a decomposition and
its reference, the boundary and its reference, an exactness solve and its
reference, or a transgression and its reference ever disagree.  No time is
asserted.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from gradweil import catalog
from gradweil.algebroid import Algebroid, Chart, tangent_algebroid
from gradweil.chernweil import (ce_cohomology, is_exact, power_traces, sigma_character,
                                transgression)
from gradweil.forms import Form, GradedBundle, gtr, tr
from gradweil.randgen import random_cuth, random_linear_connection
from oracles import (cohomology_reference, corpus_algebroids, exactness_reference,
                     fractional_point_presentation, from_json_reference, random_cocycle,
                     stored, transgression_by_sums)

ALGEBRAS = {"sl2": catalog.sl2, "solvable5": catalog.solvable5,
            "abelian(8)": lambda: catalog.abelian(8),
            "TR^4": lambda: tangent_algebroid(Chart(("x", "y", "z", "w")))}
COHOMOLOGY_ALGEBRAS = {"sl2": catalog.sl2, "solvable5": catalog.solvable5,
                       "two_aff1_plus_center": catalog.two_aff1_plus_center,
                       "abelian(8)": lambda: catalog.abelian(8),
                       "fractional_point": fractional_point_presentation}
# exactness case -> (chart variables, Christoffel degree, character index)
EXACTNESS_CASES = {"TR^4/sigma2": (4, 1, 2), "TR^4/sigma1/deg2": (4, 2, 1)}
TRANSGRESSION_ALGEBRAS = {"sl2": catalog.sl2, "solvable5": catalog.solvable5,
                          "abelian(8)": lambda: catalog.abelian(8),
                          "tangent_plane": catalog.tangent_plane,
                          "TR^3": lambda: tangent_algebroid(Chart(("x", "y", "z")))}
BUNDLE = GradedBundle([(0, 2), (1, 2), (2, 1)])   # R^2[0] + R^2[1] + R[2]
TOP = 4   # the highest curvature power traced


def fused(conn):
    """The curvature as the engine computes it: two kernel passes, d_A fused."""
    return conn.curvature()


def formula(conn):
    """d_A Omega + Omega ^ Omega, unfused: a wedge, a d_total and a sum."""
    omega = conn.omega()
    return omega.wedge(omega) + conn.algebroid.d_total(omega)


def halves(curvature):
    """gtr(R^j), j = 1..TOP, as the engine computes them."""
    return power_traces(curvature, TOP, True)


def wedges(curvature):
    """gtr(R^j), j = 1..TOP, each power built by repeated public wedge."""
    power, out = curvature, [gtr(curvature)]
    for _ in range(1, TOP):
        power = power.wedge(curvature)
        out.append(gtr(power))
    return out


def square_traces(curvature):
    """tr(R ^ R) and gtr(R ^ R) as the engine computes them: trace-only
    products of R with itself."""
    return curvature.wedge_trace(curvature), curvature.wedge_trace(curvature, graded=True)


def square_wedge(curvature):
    """tr and gtr of the full R ^ R, built by public wedge."""
    square = curvature.wedge(curvature)
    return tr(square), gtr(square)


# route name -> (engine, formula, the input of both built from a fresh connection)
ROUTES = {"curvature": (fused, formula, lambda conn: conn),
          "power_traces": (halves, wedges, lambda conn: conn.curvature()),
          "square_trace": (square_traces, square_wedge, lambda conn: conn.curvature())}


def fresh(make, seed):
    """A new connection up to homotopy of the seed, on a new algebroid, with Omega built."""
    conn = random_cuth(random.Random(seed), make(), BUNDLE)
    conn.omega()
    return conn


def best_times(make, seed, repeats, route):
    """(best wall time in seconds, last result) of the engine and of the
    formula of `route`, which alternate."""
    *calls, prepare = ROUTES[route]
    best = [(float("inf"), None)] * len(calls)
    for _ in range(repeats):
        for k, call in enumerate(calls):
            given = prepare(fresh(make, seed))
            start = time.perf_counter()
            result = call(given)
            best[k] = (min(time.perf_counter() - start, best[k][0]), result)
    return best


def cohomology_agrees(engine, reference, den):
    """Whether `ce_cohomology` and the Fraction reference built the same basis."""
    return (engine.bases == reference.bases
            and engine.d_cols == {k: [{i: v * den for i, v in col.items()} for col in cols]
                                  for k, cols in reference.d_cols.items()}
            and repr(engine.rep_vectors) == repr(reference.rep_vectors)
            and all(engine.dim(k) == len(reps) for k, reps in reference.rep_vectors.items())
            and {k: list(map(stored, reps)) for k, reps in engine.representatives.items()}
            == {k: list(map(stored, reps)) for k, reps in reference.representatives.items()})


def cohomology_times(make, repeats):
    """(best engine seconds, best reference seconds, whether they agree, the
    last engine basis, the last reference), each call on a fresh algebroid;
    the two alternate."""
    best, results = [float("inf")] * 2, [None, None]
    for _ in range(repeats):
        for k, call in enumerate((ce_cohomology, cohomology_reference)):
            algebroid = make()
            start = time.perf_counter()
            results[k] = call(algebroid)
            best[k] = min(time.perf_counter() - start, best[k])
    return best[0], best[1], cohomology_agrees(*results, algebroid._d_den), *results


def decompositions_agree(engine, reference, seed):
    """Whether `decompose` and the reference's give equal class coefficients
    and stored primitives on one random closed form of each degree
    1..rank, drawn from the seed as a combination of the reference's
    cocycles with coefficients -4..4 over 1..3."""
    rng, rank = random.Random(seed), engine.algebroid.rank
    for k in range(1, rank + 1):
        vec = random_cocycle(rng, reference.cocycles[k])
        form = Form((), rank, k, 1, {(reference.bases[k][i], 0): v for i, v in vec.items()})
        (coeffs, primitive), (ref_coeffs, ref_primitive) = (engine.decompose(form),
                                                            reference.decompose(form))
        if coeffs != ref_coeffs or stored(primitive) != stored(ref_primitive):
            return False
    return True


def boundary_times(datas, repeats):
    """(best engine seconds, best reference seconds, whether they agree) of
    reading all the algebroid JSON `datas` by `Algebroid.from_json` and by
    `oracles.from_json_reference`; the two alternate."""
    best, results = [float("inf")] * 2, [None, None]
    for _ in range(repeats):
        for k, read in enumerate((Algebroid.from_json, from_json_reference)):
            start = time.perf_counter()
            results[k] = [read(data) for data in datas]
            best[k] = min(time.perf_counter() - start, best[k])
    same = all(e.anchor == r.anchor and e.structure == r.structure for e, r in zip(*results))
    return best[0], best[1], same


def exactness_input(case, seed):
    """A fresh TR^n and the character of the case's connection for the seed."""
    n, degree, index = EXACTNESS_CASES[case]
    algebroid = tangent_algebroid(Chart(tuple(f"x{i}" for i in range(n))))
    connection = random_linear_connection(random.Random(seed), algebroid, 2, degree)
    return algebroid, sigma_character(connection, index).form


def exactness_times(case, seed, repeats):
    """(best `is_exact` seconds, best reference seconds, whether the two give
    the same status and stored primitive), each call on a fresh algebroid
    and character; the two alternate."""
    best, results = [float("inf")] * 2, [None, None]
    for _ in range(repeats):
        for k, solve in enumerate((is_exact, exactness_reference)):
            algebroid, form = exactness_input(case, seed)
            start = time.perf_counter()
            results[k] = solve(algebroid, form)
            best[k] = min(time.perf_counter() - start, best[k])
    engine, reference = results
    same = (engine.status == reference.status
            and (engine.primitive is None) == (reference.primitive is None)
            and (engine.primitive is None or stored(engine.primitive) == stored(reference.primitive)))
    return best[0], best[1], same


def transgression_input(make, seed):
    """Two fresh connections up to homotopy of the seed on a new algebroid,
    the old one's curvature and both Omegas built."""
    rng, algebroid = random.Random(seed), make()
    old, new = random_cuth(rng, algebroid, BUNDLE), random_cuth(rng, algebroid, BUNDLE)
    old.curvature()
    new.omega()
    return old, new


def transgression_times(make, index, seed, repeats):
    """(best `transgression` seconds, best reference seconds, whether the two
    store the same form), each call on fresh connections; the two alternate."""
    best, results = [float("inf")] * 2, [None, None]
    for _ in range(repeats):
        for k, call in enumerate((transgression, transgression_by_sums)):
            old, new = transgression_input(make, seed)
            start = time.perf_counter()
            results[k] = call(old, new, index)
            best[k] = min(time.perf_counter() - start, best[k])
    return best[0], best[1], stored(results[0]) == stored(results[1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    agree = True
    print(f"{'route':<14}{'algebra':<22}{'engine ms':>11}{'formula ms':>12}"
          f"{'engine/formula':>16}")
    for route in ROUTES:
        for name, make in ALGEBRAS.items():
            engine, reference, ratio = [], [], []
            for seed in range(args.seeds):
                (en_s, en_r), (fo_s, fo_r) = best_times(make, seed, args.repeats, route)
                if en_r != fo_r:
                    print(f"{route}, {name}, seed {seed}: the engine and the formula disagree")
                    agree = False
                engine.append(en_s * 1e3)
                reference.append(fo_s * 1e3)
                ratio.append(en_s / fo_s)
            print(f"{route:<14}{name:<22}{statistics.median(engine):>11.2f}"
                  f"{statistics.median(reference):>12.2f}{statistics.median(ratio):>16.2f}")
    for name, make in COHOMOLOGY_ALGEBRAS.items():
        en_s, ref_s, same, engine, reference = cohomology_times(make, args.repeats)
        if not same:
            print(f"cohomology, {name}: the engine and the reference disagree")
            agree = False
        for seed in range(args.seeds):
            if not decompositions_agree(engine, reference, seed):
                print(f"cohomology, {name}, seed {seed}: decompose and the reference disagree")
                agree = False
        print(f"{'cohomology':<14}{name:<22}{en_s * 1e3:>11.2f}{ref_s * 1e3:>12.2f}"
              f"{en_s / ref_s:>16.2f}")
    datas = list(corpus_algebroids(ROOT / "corpus").values())
    en_s, ref_s, same = boundary_times(datas, args.repeats)
    if not same:
        print("boundary: from_json and the reference disagree")
        agree = False
    name = f"corpus ({len(datas)})"
    print(f"{'boundary':<14}{name:<22}{en_s * 1e3:>11.2f}{ref_s * 1e3:>12.2f}"
          f"{en_s / ref_s:>16.2f}")
    for case in EXACTNESS_CASES:
        engine, reference, ratio = [], [], []
        for seed in range(args.seeds):
            en_s, ref_s, same = exactness_times(case, seed, args.repeats)
            if not same:
                print(f"exactness, {case}, seed {seed}: is_exact and the reference disagree")
                agree = False
            engine.append(en_s * 1e3)
            reference.append(ref_s * 1e3)
            ratio.append(en_s / ref_s)
        print(f"{'exactness':<14}{case:<22}{statistics.median(engine):>11.2f}"
              f"{statistics.median(reference):>12.2f}{statistics.median(ratio):>16.2f}")
    for name, make in TRANSGRESSION_ALGEBRAS.items():
        for index in (2, 3):
            engine, reference, ratio = [], [], []
            case = f"{name}/index{index}"
            for seed in range(args.seeds):
                en_s, ref_s, same = transgression_times(make, index, seed, args.repeats)
                if not same:
                    print(f"transgression, {case}, seed {seed}: the engine and the "
                          "reference disagree")
                    agree = False
                engine.append(en_s * 1e3)
                reference.append(ref_s * 1e3)
                ratio.append(en_s / ref_s)
            print(f"{'transgression':<14}{case:<22}{statistics.median(engine):>11.2f}"
                  f"{statistics.median(reference):>12.2f}{statistics.median(ratio):>16.2f}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
