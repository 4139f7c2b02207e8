"""Acceptance gate: thirteen exact, zero-tolerance properties.

Each test prints one PASS line (with its wall time) when the property holds
on the prescribed sample sizes; any failure aborts before the print, so the
console shows exactly one pass/fail line per criterion.
"""

import json
import pathlib
import random
import time
from fractions import Fraction

from gradweil import catalog
from gradweil.algebroid import Chart, Subframe, tangent_algebroid
from gradweil.chernweil import (
    ce_cohomology,
    is_exact,
    massey_triple,
    sigma_character,
    transgression,
)
from gradweil.cli import canonical_json
from gradweil.connections import (
    ConnectionUpToHomotopy,
    LinearConnection,
    extend_connection,
    induced_hom_connection,
)
from gradweil.constructions import (
    adjoint_rep,
    atiyah_form,
    bott_report,
    check_morphism,
    double_rep,
    graded_bott_report,
    iis_check,
    iis_obstruction,
    morphism_rep,
    report_passed,
    square_zero_check,
)
from gradweil.forms import (
    Form,
    GradedBundle,
    TotalForm,
    graded_commutator,
    gtr,
    ideal_membership,
    tr,
)
from gradweil.problems import run_problem
from gradweil.randgen import random_cuth, random_linear_connection, random_total_form
from gradweil.ring import Poly
from oracles import (curvature_power, flat_borel_module, random_structure_perturbation,
                     solvable5_module)

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def mat_rank(columns, nrows):
    """Rank of the matrix with these sparse columns, by plain Gaussian elimination."""
    rows = [[Fraction(col.get(i, 0)) for col in columns] for i in range(nrows)]
    rank = 0
    for c in range(len(columns)):
        pivot = next((i for i in range(rank, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, nrows):
            factor = rows[i][c] / rows[rank][c]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class deadline:
    def __init__(self, number, label, seconds):
        self.number, self.label, self.seconds = number, label, seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            return False
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, (
            f"criterion {self.number} exceeded {self.seconds}s: {elapsed:.2f}s")
        print(f"PASS criterion {self.number}: {self.label} [{elapsed:.2f}s]")
        return False


def test_criterion_01_axioms_equal_differential():
    rng = random.Random(101)
    with deadline(1, "check_axioms <=> d_A^2 = 0 on 200 perturbations", 5):
        for base in (catalog.sl2(), catalog.aff1()):
            for _ in range(100):
                a = random_structure_perturbation(rng, base)
                rep = a.check_axioms()
                axioms_ok = (rep.antisymmetry_ok and rep.anchor_ok
                             and rep.jacobi_ok)
                d2_ok, _ = a.d_squared_check()
                assert axioms_ok == d2_ok


def test_criterion_02_graded_trace_kills_commutators():
    rng = random.Random(102)
    a = catalog.aff1()
    E = GradedBundle([(0, 2), (1, 1), (2, 2)])
    with deadline(2, "gtr([K1,K2]) = 0 on 100 random total forms", 10):
        forms = [
            random_total_form(rng, a.variables, a.rank, E,
                              rng.choice([-2, -1, 0, 1, 2]), density=2)
            for _ in range(100)
        ]
        for i, k1 in enumerate(forms):
            k2 = forms[(i + 37) % len(forms)]
            assert gtr(graded_commutator(k1, k2)).is_zero()


def flatten_end_form(k):
    """An ungraded End-valued TotalForm as a Form with fiber rank^2."""
    r = k.src.rank(0)
    coeffs = {}
    for (i, _, _), entries in k.blocks.items():
        for mi, mat in entries.items():
            for mu in range(r):
                for alpha in range(r):
                    if not mat[mu][alpha].is_zero():
                        coeffs[(mi, mu * r + alpha)] = mat[mu][alpha]
    return Form(k.variables, k.frame_rank, k.total_degree, r * r, coeffs)


def test_criterion_03_trace_differential_exchange():
    rng = random.Random(103)
    with deadline(3, "d_A gtr-hat = gtr-hat D_End, graded and ordinary, "
                     "50 connections", 20):
        # graded: 25 cuths over sl2
        a = catalog.sl2()
        E = GradedBundle([(0, 2), (1, 1)])
        for _ in range(25):
            D = random_cuth(rng, a, E)
            K = random_total_form(rng, a.variables, a.rank, E,
                                  rng.choice([0, 1, 2]), density=2)
            assert a.d(gtr(K)) == gtr(D.d_end(K))
        # ordinary: 25 linear connections, checked along two code paths
        for maker in (catalog.aff1, catalog.aff1_action_line):
            b = maker()
            for _ in range(12 if b.chart.dim else 13):
                r = rng.randint(1, 2)
                nab = random_linear_connection(rng, b, r)
                C = ConnectionUpToHomotopy.from_linear(nab)
                K = random_total_form(rng, b.variables, b.rank, C.bundle,
                                      rng.choice([1, 2]), density=2)
                dK = C.d_end(K)
                assert b.d(tr(K)) == tr(dK)
                hom = induced_hom_connection(nab, nab)
                assert hom.d(flatten_end_form(K)) == flatten_end_form(dK)


def test_criterion_04_bianchi():
    rng = random.Random(104)
    with deadline(4, "D_End(R^i) = 0, i in {1,2,3}, 50 random cuths", 30):
        pools = [
            (catalog.aff1(), GradedBundle([(0, 2), (1, 1), (2, 1)]), 20),
            (catalog.sl2(), GradedBundle([(0, 2), (1, 1), (2, 1)]), 20),
            (catalog.solvable5(), GradedBundle([(0, 1), (1, 1)]), 10),
        ]
        for a, E, count in pools:
            for _ in range(count):
                D = random_cuth(rng, a, E)
                for i in (1, 2, 3):
                    assert D.d_end(curvature_power(D, i)).is_zero()


def test_criterion_05_connection_independence():
    rng = random.Random(105)
    with deadline(5, "d_A T = sigma^i(D') - sigma^i(D) and exactness, "
                     "20 pairs", 30):
        cases = [(catalog.aff1(), 7), (catalog.sl2(), 7),
                 (catalog.heisenberg3(), 6)]
        bundles = [[(0, 1), (1, 1)], [(0, 2), (1, 1)], [(0, 1), (1, 2)]]
        for a, pairs in cases:
            for _ in range(pairs):
                E = GradedBundle(rng.choice(bundles))
                old = random_cuth(rng, a, E)
                new = random_cuth(rng, a, E)
                for i in (1, 2):
                    T = transgression(old, new, i)
                    diff = (sigma_character(new, i).form
                            + sigma_character(old, i).form.scale(-1))
                    assert a.d(T) == diff
                    assert is_exact(a, diff).status == "exact"


def test_criterion_06_alternating_sum_formula():
    rng = random.Random(106)
    with deadline(6, "mixed character ~ alternating sum of summand "
                     "characters, 20 instances", 20):
        cases = [(catalog.aff1(), 5), (catalog.sl2(), 5),
                 (catalog.heisenberg3(), 4),
                 (catalog.two_aff1_plus_center(), 6)]
        bundles = [[(0, 1), (1, 1)], [(0, 2), (1, 1)],
                   [(0, 1), (1, 1), (2, 1)]]
        for a, count in cases:
            for _ in range(count):
                E = GradedBundle(rng.choice(bundles))
                D = random_cuth(rng, a, E)
                for i in (1, 2):
                    mixed = sigma_character(D, i).form
                    alt = Form.zero(a.variables, a.rank, 2 * i)
                    for z, _ in E.summands:
                        s = sigma_character(D.nablas[z], i).form
                        alt = alt + (s.scale(-1) if z % 2 else s)
                    assert is_exact(a, mixed + alt.scale(-1)).status == "exact"


def constructed_two_reps(rng):
    """The canonical 2-term representations exercised by criteria 7 and 8."""
    reps = []
    for a in (catalog.aff1(), catalog.sl2(), catalog.aff1_action_line()):
        for _ in range(2):
            nab = random_linear_connection(rng, a, rng.randint(1, 2))
            reps.append((a, double_rep(nab)))
    al = catalog.aff1_action_line()
    t = tangent_algebroid(Chart(("x",)))
    for _ in range(10):
        ntm = random_linear_connection(rng, t, 2, max_poly_degree=2)
        reps.append((al, adjoint_rep(al, ntm)))
    aff = catalog.aff1()
    one, zero = Poly.one(()), Poly.zero(())
    ident = check_morphism(aff, aff, [[one, zero], [zero, one]])
    reps.append((aff, morphism_rep(aff, aff, ident,
                                   random_linear_connection(rng, aff, 2))))
    ab1 = catalog.abelian(1)
    inclusion = check_morphism(ab1, aff, [[zero, one]])
    reps.append((aff, morphism_rep(ab1, aff, inclusion,
                                   random_linear_connection(rng, aff, 1))))
    return reps


def test_criterion_07_square_zero_constructions():
    rng = random.Random(107)
    with deadline(7, "double/adjoint/morphism reps are square-zero", 20):
        for _, rep in constructed_two_reps(rng):
            assert report_passed(square_zero_check(rep))
        # point-base adjoints degenerate to the bracket action
        for maker in (catalog.sl2, catalog.heisenberg3,
                      catalog.two_aff1_plus_center):
            assert report_passed(square_zero_check(adjoint_rep(maker())))


def test_criterion_08_two_rep_character_obstruction():
    rng = random.Random(108)
    with deadline(8, "sigma^l(E0) - sigma^l(E1) exact for every 2-rep, "
                     "l in {1,2}", 20):
        for a, rep in constructed_two_reps(rng):
            ranks = dict(rep.bundle.summands)
            assert set(ranks) == {0, 1}
            for l in (1, 2):
                n0 = random_linear_connection(rng, a, ranks[0])
                n1 = random_linear_connection(rng, a, ranks[1])
                diff = (sigma_character(n0, l).form
                        + sigma_character(n1, l).form.scale(-1))
                assert is_exact(a, diff).status == "exact"


def test_criterion_09_bott_vanishing():
    with deadline(9, "codim-1 flat module on a 5-dim algebra: ideal "
                     "membership and trace vanishing", 10):
        a = catalog.solvable5()
        sub = Subframe(5, [0, 1, 2, 3])
        nab = LinearConnection.from_christoffel(a.restrict(sub),
                                                solvable5_module())
        tilde = extend_connection(a, sub, nab)
        R = tilde.curvature()
        assert not R.is_zero()
        assert ideal_membership(R, sub.indices, 1)
        R2 = R.wedge(R)
        assert ideal_membership(R2, sub.indices, 2)
        trace = tr(R2)
        assert trace.is_zero()
        # not dimensionally forced: nonzero 4-forms exist on a rank-5 frame
        assert trace.degree == 4 <= a.rank
        witness = Form((), 5, 4, 1, {((0, 1, 2, 3), 0): Poly.one(())})
        assert not witness.is_zero()
        assert report_passed(bott_report(a, sub, nab))

        # graded variant: a 2-rep of the subalgebra
        b = a.restrict(sub)
        E = GradedBundle([(0, 2), (1, 2)])
        ident = [[Poly.one(()), Poly.zero(())], [Poly.zero(()), Poly.one(())]]
        D = ConnectionUpToHomotopy(
            b, E, {0: nab, 1: nab},
            TotalForm(b.variables, b.rank, E, E, 1, {(0, 0, 1): {(): ident}}))
        assert report_passed(graded_bott_report(a, sub, D))


def test_criterion_10_atiyah_refinement():
    with deadline(10, "sl2/borel pairing closed; omega = 0 extension "
                      "tightens the trace threshold", 5):
        sl2 = catalog.sl2()
        borel = Subframe(3, [0, 1])
        b = sl2.restrict(borel)
        nab = LinearConnection(b, 1, flat_borel_module())
        form, report = atiyah_form(sl2, borel, nab)
        named = {c["name"]: c["pass"] for c in report["checks"]}
        assert named["pairing_closed"]
        assert not form.is_zero()
        assert report["thresholds"]["vanish_above"] == 2
        assert "trace_power_1_vanishes" not in named

        zero_mod = LinearConnection.zero(b, 1)
        form0, report0 = atiyah_form(sl2, borel, zero_mod)
        named0 = {c["name"]: c["pass"] for c in report0["checks"]}
        assert form0.is_zero() and named0["pairing_vanishes"]
        assert named0["trace_power_1_vanishes"]
        assert report0["thresholds"]["vanish_above"] == 1


def test_criterion_11_massey_product():
    with deadline(11, "Massey <[eps1],[eps1],[eps2]> nonzero on h3 with "
                      "zero indeterminacy", 5):
        h3 = catalog.heisenberg3()
        eps1 = Form.coframe((), 3, 0)
        eps2 = Form.coframe((), 3, 1)
        rep = massey_triple(h3, eps1, eps1, eps2)
        assert rep.defined
        assert any(c != 0 for c in rep.class_vector)
        assert rep.indeterminacy_basis == []
        assert rep.nonzero_mod_indeterminacy is True

        # independent oracle: exact rank computation of the CE complex
        ce = ce_cohomology(h3)
        dim_h2 = ((3 - mat_rank(ce.d_cols[2], len(ce.bases[3])))
                  - mat_rank(ce.d_cols[1], len(ce.bases[2])))
        assert dim_h2 == 2 == ce.dim(2)
        assert len(rep.class_vector) == dim_h2
        assert h3.d(rep.representative).is_zero()
        assert ce.class_vector(rep.representative) == rep.class_vector
        # indeterminacy [eps1]^H^1 + H^1^[eps2] is zero in H^2
        for h in ce.representatives[1]:
            assert not any(ce.class_vector(eps1.wedge(h)))
            assert not any(ce.class_vector(h.wedge(eps2)))


def test_criterion_12_iis_checker():
    with deadline(12, "IIS conditions on Bott, naive-ideal, and unstable "
                      "examples; obstruction on the Bott case", 10):
        conditions = [
            "anchor_maps_into_fields",
            "basic_connection_preserves_sections",
            "basic_connection_preserves_fields",
            "basic_curvature_pairs_into_sections",
        ]
        t = catalog.tangent_plane()
        bott_case = iis_check(t, Subframe(2, [0]), Subframe(2, [0]))
        named = {c["name"]: c["pass"] for c in bott_case["checks"]}
        assert all(named[c] for c in conditions)

        h3 = catalog.heisenberg3()
        naive = iis_check(h3, Subframe(3, [2]), Subframe(0, []))
        named = {c["name"]: c["pass"] for c in naive["checks"]}
        assert all(named[c] for c in conditions)

        aff = catalog.aff1()
        unstable = iis_check(aff, Subframe(2, [0]), Subframe(0, []))
        named = {c["name"]: c["pass"] for c in unstable["checks"]}
        assert not named["basic_connection_preserves_sections"]
        assert all(named[c] for c in conditions
                   if c != "basic_connection_preserves_sections")

        ob = iis_obstruction(t, Subframe(2, [0]), Subframe(2, [0]),
                             l_values=(1, 2))
        assert report_passed(ob)


def test_criterion_13_cli_determinism():
    with deadline(13, "corpus reports byte-identical on two runs", 60):
        problems = sorted(p for p in CORPUS.glob("*.json")
                          if not p.name.endswith(".golden.json"))
        assert len(problems) >= 29
        runs = []
        for _ in range(2):
            blobs = {}
            for path in problems:
                payload = json.loads(path.read_text())
                blobs[path.name] = canonical_json(run_problem(payload)).encode()
            runs.append(blobs)
        assert runs[0] == runs[1]
        for path in problems:
            golden = path.with_name(path.stem + ".golden.json")
            assert runs[0][path.name] == golden.read_bytes()
