"""Characters, invariant polynomials, cohomology, secondary products."""

import itertools
import json
import math
import pathlib
import random
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest

from gradweil import catalog, chernweil, forms
from gradweil.algebroid import Algebroid, Chart, tangent_algebroid
from gradweil.chernweil import (
    CohomologyBasis,
    _exactness_system,
    ce_cohomology,
    class_status,
    default_bound,
    invariant_poly_f,
    invariant_polys,
    is_exact,
    massey_triple,
    pontryagin_class,
    power_traces,
    sigma_character,
    transgression,
)
from gradweil.connections import ConnectionUpToHomotopy, LinearConnection
from gradweil.constructions import square_zero_check
from gradweil.errors import InternalCheckError, MismatchError, NotClosedError
from gradweil.forms import Form, GradedBundle, TotalForm, gtr, render_form, tr
from gradweil.linalg import integer_solution, solve
from gradweil.problems import run_problem
from gradweil.randgen import random_cuth, random_form, random_linear_connection
from gradweil.ring import Poly
from oracles import (cohomology_reference, covariant, curvature_power,
                     d_sparse_sources_reference, exactness_reference, exponent_terms, interior,
                     radial_primitive, random_cocycle, rho_pullback, stored, tangent_line,
                     total_degree, transgression_by_sums)
from test_algebroid import PRESENTATIONS, koszul_reference, packed_key, tuple_column, tuple_key
from test_connections import _count_calls, _count_first_curvatures

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def scalar_aff1_connection():
    a = catalog.aff1()
    return LinearConnection(a, [[[Poly.constant((), 2)]],
                                [[Poly.constant((), 3)]]])


def test_sigma_on_aff1_scalar():
    s = sigma_character(scalar_aff1_connection(), 1)
    assert s.closed
    assert render_form(s.form) == "-3*eps1^eps2"


def test_sigma_closed_for_random_cuths():
    rng = random.Random(3)
    a = catalog.sl2()
    E = GradedBundle([(0, 2), (1, 1)])
    for _ in range(5):
        D = random_cuth(rng, a, E)
        for i in (1, 2):
            assert sigma_character(D, i).closed


def test_sigma_index_below_one_is_refused():
    rng = random.Random(29)
    a = catalog.sl2()
    for conn in (random_linear_connection(rng, a, 2),
                 random_cuth(rng, a, GradedBundle([(0, 1), (1, 1)]))):
        with pytest.raises(MismatchError):
            sigma_character(conn, 0)


def test_characters_of_a_linear_connection_reuse_its_curvature(monkeypatch):
    counts = {}
    _count_first_curvatures(monkeypatch, counts)
    nab = random_linear_connection(random.Random(31), catalog.abelian(4), 2)
    sigma_character(nab, 1)
    sigma_character(nab, 2)
    assert counts == {"curvature": 1}


@pytest.mark.parametrize("name", ["transgression_aff1_scalar",
                                  "transgression_sl2_borelmod"])
def test_transgression_task_computes_each_curvature_once(monkeypatch, name):
    # two connections, so two curvatures and two Omegas: each linear
    # connection is a connection up to homotopy, whose Omega and curvature
    # its character and the transgression both read
    counts = {}
    _count_first_curvatures(monkeypatch, counts)
    _count_calls(monkeypatch, ConnectionUpToHomotopy, "connection_form", counts)
    payload = json.loads((CORPUS / f"{name}.json").read_text())
    assert run_problem(payload)["checks"][0]["pass"]
    assert counts == {"curvature": 2, "connection_form": 2}


def test_unclosed_character_over_a_lie_algebra_is_an_internal_failure(monkeypatch):
    # d_A^2 = 0 holds on aff(1) + aff(1) + R, so closedness is a theorem there;
    # a trace that adds eps2^eps4 breaks it: d_A(eps2^eps4) =
    # -eps1^eps2^eps4 + eps2^eps3^eps4, first at (0, 1, 3) with value -1
    a = catalog.two_aff1_plus_center()
    assert a.d_squared_check()[0]
    bump = Form.coframe(a.variables, a.rank, 1).wedge(Form.coframe(a.variables, a.rank, 3))
    monkeypatch.setattr(chernweil, "gtr", lambda power: forms.gtr(power) + bump)
    with pytest.raises(InternalCheckError) as caught:
        sigma_character(LinearConnection.zero(a, 1), 1)
    assert str(caught.value) == (
        "character gtr(R^1) is not closed although d_A^2 = 0 holds: d_A of it "
        "is -1 at multi-index (0, 1, 3), fiber 0")


def test_unclosed_character_over_a_broken_algebroid_is_reported():
    # Gamma = eps3 on a line over the broken-Jacobi bracket: sigma1 =
    # d eps3 = -eps1^eps2 and d_A sigma1 = -2 eps1^eps2^eps3 (hand expansion)
    a = catalog.broken_jacobi()
    one, zero = Poly.one(()), Poly.zero(())
    nab = LinearConnection(a, [[[zero]], [[zero]], [[one]]])
    char = sigma_character(nab, 1)
    assert not char.closed
    assert render_form(char.form) == "-1*eps1^eps2"
    assert render_form(a.d(char.form)) == "-2*eps1^eps2^eps3"
    assert chernweil.nonclosed_term(a, char.form) == {
        "index": [0, 1, 2], "fiber": 0, "value": "-2"}
    assert chernweil.nonclosed_term(a, a.d(char.form)) is None


# --- the one power-trace path ----------------------------------------------


def three_aff1():
    """aff(1) + aff(1) + aff(1) over a point: frame rank 6, so R^3 has a trace."""
    return Algebroid.from_brackets(
        catalog.POINT, 6, [[] for _ in range(6)],
        {(0, 1): [0, 1, 0, 0, 0, 0], (2, 3): [0, 0, 0, 1, 0, 0],
         (4, 5): [0, 0, 0, 0, 0, 1]})


def tangent4():
    return tangent_algebroid(Chart(("x", "y", "z", "w")))


POWER_TRACE_CASES = [
    # (algebroid, bundle summands, the powers j whose traces are nonzero):
    # ranks 1-4 over a point and over a chart, even and odd summands
    (three_aff1, [(0, 1)], (1, 2, 3)),
    (three_aff1, [(1, 2)], (1, 2, 3)),
    (three_aff1, [(0, 3)], (1, 2, 3)),
    (three_aff1, [(0, 2), (1, 1), (2, 1)], (1, 2, 3)),
    (tangent4, [(0, 1)], (1,)),
    (tangent4, [(0, 1), (1, 1)], (1, 2)),
    (tangent4, [(1, 3)], (1, 2)),
    (tangent4, [(0, 2), (1, 2)], (1, 2)),
]


@pytest.mark.parametrize("maker, summands, nonzero", POWER_TRACE_CASES)
def test_power_traces_match_traces_of_the_full_product(monkeypatch, maker,
                                                       summands, nonzero):
    rng = random.Random(37)
    conn = random_cuth(rng, maker(), GradedBundle(summands))
    R = conn.curvature()
    top = 3
    for trace in (tr, gtr):
        oracle = [trace(curvature_power(conn, j)) for j in range(1, top + 1)]
        assert tuple(j for j in range(1, top + 1)
                     if not oracle[j - 1].is_zero()) == nonzero
        for first in range(1, top + 1):
            counts = {}
            _count_calls(monkeypatch, TotalForm, "wedge", counts)
            _count_calls(monkeypatch, chernweil, trace.__name__, counts)
            products = []   # the trace-only products with R as right factor
            wedge_trace = TotalForm.wedge_trace
            monkeypatch.setattr(TotalForm, "wedge_trace", lambda K, L, graded=False: (
                products.append(L is R) or wedge_trace(K, L, graded)))
            assert power_traces(R, top, trace is gtr, first=first) == oracle[first - 1:]
            # top - 2 full wedges, then one trace-only product for R^top
            expected = {"wedge": top - 2, trace.__name__: top - first}
            assert counts == {name: n for name, n in expected.items() if n}
            assert products.count(True) == 1
            monkeypatch.undo()


def four_aff1():
    """aff(1)^4 over a point: frame rank 8, so R^4 of a linear connection has
    a nonzero trace."""
    return Algebroid.from_brackets(
        catalog.POINT, 8, [[] for _ in range(8)],
        {(2 * k, 2 * k + 1): [int(i == 2 * k + 1) for i in range(8)] for k in range(4)})


def abelian8():
    return catalog.abelian(8)


HALF_POWER_CASES = [
    # (algebroid, bundle summands or None for a rank-3 linear connection,
    # whether tr(R^4) is nonzero): tr(R^j) is a 2j-form, so tr(R^5) and
    # tr(R^6) vanish on frames of rank <= 8; over abelian(8) every tr(R^j) of
    # a linear connection vanishes, as R = Gamma ^ Gamma there
    *((maker, summands, False) for maker, summands, _ in POWER_TRACE_CASES),
    (abelian8, None, False),
    (four_aff1, None, True),
]


@pytest.mark.parametrize("maker, summands, fourth", HALF_POWER_CASES)
def test_power_traces_by_halves_match_traces_of_the_full_product(monkeypatch, maker,
                                                                  summands, fourth):
    rng = random.Random(41)
    if summands is None:
        conn = random_linear_connection(rng, maker(), 3)
    else:
        conn = random_cuth(rng, maker(), GradedBundle(summands))
    R = conn.curvature()
    for trace in (tr, gtr):
        oracle = [trace(curvature_power(conn, j)) for j in range(1, 7)]
        assert oracle[3].is_zero() != fourth
        for top in (4, 5, 6):
            for first in range(1, top + 1):
                counts = {}
                _count_calls(monkeypatch, TotalForm, "wedge", counts)
                assert power_traces(R, top, trace is gtr, first=first) == oracle[first - 1:top]
                # only the full powers R^2..R^ceil(top/2)
                assert counts.get("wedge", 0) == (top + 1) // 2 - 1
                monkeypatch.undo()
    if summands is None:   # f_i vanishes beyond the fiber rank 3
        fs = invariant_polys(R, 4)
        assert fs[4].is_zero() and fs[3].is_zero() != fourth


# --- invariant polynomials -------------------------------------------------


def curvature_entry_forms(nabla):
    """The curvature as a matrix of scalar 2-forms, target-major."""
    a = nabla.algebroid
    r = nabla.rank
    entries = nabla.curvature().blocks.get((2, 0, 0), {})
    out = [[Form.zero(a.variables, a.rank, 2) for _ in range(r)]
           for _ in range(r)]
    for mi, mat in entries.items():
        for b in range(r):
            for c in range(r):
                if not mat[b][c].is_zero():
                    out[b][c] = out[b][c] + Form(
                        a.variables, a.rank, 2, 1, {(mi, 0): mat[b][c]})
    return out


def rel_sign(subset, perm):
    pos = {v: k for k, v in enumerate(subset)}
    arranged = [pos[v] for v in perm]
    sign = 1
    for a, b in itertools.combinations(range(len(arranged)), 2):
        if arranged[a] > arranged[b]:
            sign = -sign
    return sign


def principal_minor_sum(entry_forms, size, variables, frame_rank):
    """Brute-force sum of size x size principal minors; wedge of 2-forms
    commutes, so the permutation expansion of each determinant is sound."""
    n = len(entry_forms)
    total = Form.zero(variables, frame_rank, 2 * size)
    for subset in itertools.combinations(range(n), size):
        for perm in itertools.permutations(subset):
            prod = Form.function(variables, frame_rank, Poly.one(variables))
            for row, col in zip(subset, perm):
                prod = prod.wedge(entry_forms[row][col])
            if prod.is_zero():
                continue
            total = total + prod.scale(rel_sign(subset, perm))
    return total


def test_invariant_polys_match_principal_minors():
    rng = random.Random(5)
    for a, r in [(catalog.abelian(6), 3), (catalog.two_aff1_plus_center(), 2)]:
        for _ in range(4):
            nab = random_linear_connection(rng, a, r)
            R = nab.curvature()
            fs = invariant_polys(R, r)
            entry_forms = curvature_entry_forms(nab)
            assert fs[0].get(()) == 1
            for i in range(1, r + 1):
                oracle = principal_minor_sum(entry_forms, i,
                                             a.variables, a.rank)
                assert fs[i] == oracle
                assert invariant_poly_f(R, i) == fs[i]


def test_invariant_polys_vanish_beyond_fiber_rank():
    rng = random.Random(7)
    nab = random_linear_connection(rng, catalog.solvable5(), 1)
    assert invariant_poly_f(nab.curvature(), 2).is_zero()
    nab = random_linear_connection(rng, catalog.abelian(7), 2)
    assert invariant_poly_f(nab.curvature(), 3).is_zero()


def test_invariant_polys_reject_graded_input():
    rng = random.Random(9)
    D = random_cuth(rng, catalog.aff1(), GradedBundle([(0, 1), (1, 1)]))
    with pytest.raises(MismatchError):
        invariant_polys(D.curvature(), 1)


def test_pontryagin_scaling():
    rng = random.Random(11)
    a = catalog.two_aff1_plus_center()
    nab = random_linear_connection(rng, a, 2)
    p1 = pontryagin_class(nab, 1)
    assert p1.prefactor == Fraction(-1) and p1.two_pi_exponent == -2
    assert p1.representative == invariant_poly_f(nab.curvature(), 2)
    assert a.d(p1.representative).is_zero()
    # p^i can be nonzero only where 4i <= frame rank
    total = [pontryagin_class(nab, i) for i in range(1, a.rank // 4 + 1)]
    assert [c.index for c in total] == [1]
    assert pontryagin_class(nab, 2).representative.is_zero()
    nab8 = random_linear_connection(rng, catalog.abelian(8), 3)
    p2_candidates = [pontryagin_class(nab8, i) for i in range(1, 8 // 4 + 1)]
    assert [c.index for c in p2_candidates] == [1, 2]
    assert p2_candidates[1].prefactor == Fraction(1)
    assert p2_candidates[1].two_pi_exponent == -4


# --- Chevalley-Eilenberg cohomology ----------------------------------------


@pytest.mark.parametrize(
    "maker,dims",
    [
        (catalog.aff1, [1, 1, 0]),
        (catalog.sl2, [1, 0, 0, 1]),
        (catalog.heisenberg3, [1, 2, 2, 1]),
        (lambda: catalog.abelian(3), [1, 3, 3, 1]),
        (lambda: catalog.abelian(10), [math.comb(10, k) for k in range(11)]),
    ],
)
def test_ce_dimensions(maker, dims):
    ce = ce_cohomology(maker())
    assert [ce.dim(k) for k in range(len(dims))] == dims


def test_ce_decompose_oracle():
    rng = random.Random(13)
    for maker in (catalog.sl2, catalog.heisenberg3, catalog.aff1_plus_center):
        a = maker()
        ce = ce_cohomology(a)
        for _ in range(10):
            k = rng.randint(1, a.rank - 1)
            # manufacture a closed form: boundary plus representatives
            form = a.d(random_form(rng, (), a.rank, k - 1, max_poly_degree=0))
            for rep in ce.representatives[k]:
                if rng.random() < 0.5:
                    form = form + rep.scale(rng.randint(-2, 2))
            coeffs, primitive = ce.decompose(form)
            rebuilt = a.d(primitive)
            for c, rep in zip(coeffs, ce.representatives[k]):
                rebuilt = rebuilt + rep.scale(c)
            assert rebuilt == form
            assert all(c == 0 for c in ce.class_vector(form)) == all(c == 0 for c in coeffs)


def test_ce_requires_point_base():
    with pytest.raises(MismatchError):
        ce_cohomology(catalog.aff1_action_line())


def test_is_exact_point_base():
    a = catalog.aff1()
    s = sigma_character(scalar_aff1_connection(), 1)
    res = is_exact(a, s.form)
    assert res.status == "exact"
    assert a.d(res.primitive) == s.form
    assert render_form(res.primitive) == "3*eps2"
    assert class_status(a, s.form)[0] == "zero"

    h3 = catalog.heisenberg3()
    w = Form.coframe((), 3, 0).wedge(Form.coframe((), 3, 2))
    assert is_exact(h3, w).status == "not_exact"
    assert class_status(h3, w)[0] == "nonzero"


def test_is_exact_chart_base():
    t = tangent_line()
    x = Poly.variable(("x",), 0)
    w = Form(("x",), 1, 1, 1, {((0,), 0): x * x})
    res = is_exact(t, w, bound=3)
    assert res.status == "exact"
    assert t.d(res.primitive) == w
    low = is_exact(t, w, bound=0)
    assert low.status == "undecided"
    assert class_status(t, w, bound=0)[0] == "undecided"
    assert default_bound(t, [w]) >= 2


def test_monomials_match_the_filtered_product():
    for nvars in range(6):
        for bound in range(7):
            expected = [expo for expo in itertools.product(range(bound + 1),
                                                           repeat=nvars)
                        if sum(expo) <= bound]
            assert list(_monomials(nvars, bound)) == expected


# over aff(1), d eps2 = -eps1^eps2: the refusal names where d_A is nonzero
AFF1_EPS2_WHERE = "d_A of it is -1 at multi-index (0, 1), fiber 0"


def test_is_exact_rejects_non_closed():
    a = catalog.aff1()
    with pytest.raises(NotClosedError) as caught:
        is_exact(a, Form.coframe((), 2, 1))
    assert str(caught.value) == (
        f"is_exact requires a closed form: {AFF1_EPS2_WHERE}")


def test_decompose_rejects_non_closed():
    a = catalog.aff1()
    with pytest.raises(NotClosedError) as caught:
        CohomologyBasis(a).decompose(Form.coframe((), 2, 1))
    assert str(caught.value) == (
        f"cannot decompose a non-closed form: {AFF1_EPS2_WHERE}")


# --- anchor pullback --------------------------------------------------------


def test_anchor_pullback_identity_anchor():
    t = catalog.tangent_plane()
    vs = ("x", "y")
    y = Poly.variable(vs, 1)
    base = LinearConnection(tangent_algebroid(Chart(vs)), [[[y]], [[Poly.zero(vs)]]])
    pulled = rho_pullback(t, sigma_character(base, 1).form)
    same = LinearConnection(t, [[[y]], [[Poly.zero(vs)]]])
    assert pulled == sigma_character(same, 1).form
    assert render_form(pulled) == "-1*eps1^eps2"


def test_rho_pullback_cochain_and_algebra_map():
    rng = random.Random(17)
    a = catalog.aff1_action_line()
    t = tangent_algebroid(Chart(("x",)))
    for _ in range(10):
        p = rng.randint(0, 1)
        w = random_form(rng, ("x",), 1, p)
        v = random_form(rng, ("x",), 1, rng.randint(0, 1))
        assert rho_pullback(a, t.d(w)) == a.d(rho_pullback(a, w))
        assert rho_pullback(a, w.wedge(v)) == rho_pullback(a, w).wedge(
            rho_pullback(a, v))


# --- transgression and Massey products --------------------------------------


def test_transgression_differential():
    rng = random.Random(19)
    for maker in (catalog.aff1, catalog.sl2):
        a = maker()
        for _ in range(5):
            r = rng.randint(1, 2)
            old = random_linear_connection(rng, a, r)
            new = random_linear_connection(rng, a, r)
            for i in (1, 2):
                T = transgression(old, new, i)
                diff = (sigma_character(new, i).form
                        + sigma_character(old, i).form.scale(-1))
                assert a.d(T) == diff
                # and the character difference is exact with this primitive
                res = is_exact(a, diff)
                assert res.status == "exact"


def test_transgression_needs_matching_bundles():
    a = catalog.aff1()
    with pytest.raises(MismatchError):
        transgression(LinearConnection.zero(a, 1), LinearConnection.zero(a, 2), 1)


def test_transgression_starts_its_power_at_the_interpolated_curvature(monkeypatch):
    # with the old curvature kept, index 2 is the Chern-Simons form: it wedges
    # only D ^ D, takes d_A D by one `d_total` and no d_End D, and each of its
    # four pieces is one trace-only product
    rng = random.Random(43)
    a = catalog.sl2()
    E = GradedBundle([(0, 1), (1, 1)])
    old, new = random_cuth(rng, a, E), random_cuth(rng, a, E)
    old.curvature()
    counts = {}
    _count_calls(monkeypatch, TotalForm, "wedge", counts)
    _count_calls(monkeypatch, TotalForm, "_product", counts)
    _count_calls(monkeypatch, Algebroid, "d_total", counts)
    _count_calls(monkeypatch, ConnectionUpToHomotopy, "d_end", counts)
    T = transgression(old, new, 2)
    assert counts == {"wedge": 1, "_product": 5, "d_total": 1}
    monkeypatch.undo()
    assert a.d(T) == sigma_character(new, 2).form - sigma_character(old, 2).form


def test_transgression_is_the_sum_of_its_pieces_in_lowest_terms():
    # the one-pass sum of the scaled pieces stores what the general expansion,
    # summed one `+` and `scale` at a time, stores, also where pieces vanish:
    # old == new makes D and every piece zero.  solvable5 and the chart
    # algebroids have d_A != 0, so the d_A D piece of index 2 is read, and
    # R[-1] + R^2[0] + R[1] has a summand of negative degree.  T_index has
    # degree 2 index - 1, zero on tangent_plane's rank-2 frame from index 2
    # on, so TR^3 is the chart where the index-2 form is not zero
    rng = random.Random(29)
    zero_pieces, d_a_pieces, chart_forms = 0, 0, 0
    for a in (catalog.sl2(), catalog.abelian(4), catalog.solvable5(), catalog.tangent_plane(),
              tangent_algebroid(Chart(("x", "y", "z")))):
        for E in (GradedBundle([(0, 1), (1, 1)]), GradedBundle([(0, 2), (1, 1)]),
                  GradedBundle([(-1, 1), (0, 2), (1, 1)])):
            for _ in range(3):
                old, new = random_cuth(rng, a, E), random_cuth(rng, a, E)
                diff = new.omega() - old.omega()
                d_a_pieces += not a.d_total(diff).wedge_trace(diff, graded=True).is_zero()
                for other in (new, old):
                    for index in (1, 2, 3):
                        T = transgression(old, other, index)
                        reference = transgression_by_sums(old, other, index)
                        assert T == reference and T._kernel == reference._kernel
                        zero_pieces += T.is_zero()
                        chart_forms += index == 2 and bool(a.variables) and not T.is_zero()
    assert zero_pieces and d_a_pieces and chart_forms


@pytest.mark.parametrize("n", (2, 3, 4))
def test_every_closed_form_on_tr_n_has_the_radial_primitive(n):
    # the Poincare lemma: a closed polynomial form of coefficient degree m on
    # TR^n has the primitive h w of degree m + 1, so is_exact may never
    # answer not_exact there, and answers exact from the bound m + 1 on
    a = tangent_algebroid(Chart(("x", "y", "z", "w")[:n]))
    rng = random.Random(f"radial:{n}")
    closed = [("d_A beta", a.d(random_form(rng, a.variables, n, k, max_poly_degree=2,
                                           density=3)))
              for k in range(n) for _ in range(2)]
    for _ in range(2):
        nabla = random_linear_connection(rng, a, 2, max_poly_degree=2)
        closed += [(f"sigma{i}", sigma_character(nabla, i).form) for i in (1, 2)]
    checked = Counter()
    for kind, form in closed:
        if form.is_zero():
            continue
        primitive = radial_primitive(form)
        assert a.d(primitive) == form, kind
        degree = max(map(total_degree, form.coeffs.values()))
        assert is_exact(a, form).status != "not_exact", kind
        assert is_exact(a, form, bound=degree + 1).status == "exact", kind
        checked[kind] += 1
    # sigma2 is a 4-form, zero below TR^4
    assert set(checked) == ({"d_A beta", "sigma1", "sigma2"} if n == 4
                            else {"d_A beta", "sigma1"})
    assert checked["d_A beta"] >= n


def test_massey_on_heisenberg():
    h3 = catalog.heisenberg3()
    eps1 = Form.coframe((), 3, 0)
    eps2 = Form.coframe((), 3, 1)
    rep = massey_triple(h3, eps1, eps1, eps2)
    assert rep.defined and rep.reason == "ok"
    # the primitives solve the two defining equations
    assert h3.d(rep.primitive_ab) == eps1.wedge(eps1)
    assert h3.d(rep.primitive_bc) == eps1.wedge(eps2).scale(-1)
    assert h3.d(rep.representative).is_zero()
    assert any(c != 0 for c in rep.class_vector)
    assert rep.indeterminacy_basis == []
    assert rep.nonzero_mod_indeterminacy is True


def test_massey_undefined_when_product_survives():
    ab2 = catalog.abelian(2)
    eps1 = Form.coframe((), 2, 0)
    eps2 = Form.coframe((), 2, 1)
    rep = massey_triple(ab2, eps1, eps2, eps1)
    assert not rep.defined
    assert "not exact" in rep.reason


def test_massey_rejects_non_closed_input():
    h3 = catalog.heisenberg3()
    eps1 = Form.coframe((), 3, 0)
    eps3 = Form.coframe((), 3, 2)  # d eps3 = -eps1^eps2 != 0
    with pytest.raises(NotClosedError) as caught:
        massey_triple(h3, eps3, eps1, eps1)
    assert str(caught.value) == (
        "alpha is not closed: d_A of it is -1 at multi-index (0, 1), fiber 0")
    with pytest.raises(NotClosedError) as caught:
        massey_triple(h3, eps1, eps1, eps3)
    assert str(caught.value).startswith("gamma is not closed: ")


def test_massey_chart_base_representative_only():
    a = catalog.aff1_action_line()
    x = Poly.variable(("x",), 0)
    # rho^*(dx) = eps1 + x eps2 is closed; its square vanishes, products exact
    w = a.d(Form.function(("x",), 2, x))
    rep = massey_triple(a, w, w, w)
    assert rep.defined
    assert "chart base" in rep.reason
    assert rep.class_vector is None
    assert h3_closed(a, rep.representative)


def h3_closed(algebroid, form):
    return algebroid.d(form).is_zero()


# --- the exactness and cohomology systems against the Koszul formula ---------


def _monomials(nvars, bound):
    """Exponent tuples of total degree <= bound, in lexicographic order."""
    if nvars == 0:
        yield ()
        return
    for first in range(bound + 1):
        for rest in _monomials(nvars - 1, bound - first):
            yield (first,) + rest


def exactness_system_reference(algebroid, form, bound):
    """The full ansatz system: one column per monomial within the bound.

    Every (k-1)-form x^exponent e^J with |exponent| <= bound and a nonzero
    `_d_column` image is an unknown, in the global (J, exponent) order, and
    every (J, exponent) that occurs is a row.  Returns the (unknowns, rows,
    rhs) shape of `chernweil._exactness_system`, which must solve the same.
    """
    unknowns = []
    rows = []
    row_index = {}

    def row(key):
        if key not in row_index:
            row_index[key] = len(rows)
            rows.append({})
        return row_index[key]

    for j_idx in itertools.combinations(range(algebroid.rank), form.degree - 1):
        for expo in _monomials(len(algebroid.variables), bound):
            image = tuple_column(algebroid, (j_idx, expo))
            if not image:
                continue
            col = len(unknowns)
            unknowns.append((j_idx, expo))
            for key, val in image.items():
                rows[row(key)][col] = Fraction(val, algebroid._d_den)
    rhs = {row((mi, expo)): val
           for (mi, _), poly in form.coeffs.items()
           for expo, val in exponent_terms(poly).items()}
    return unknowns, rows, rhs


def assert_union_of_components(system, reference, algebroid, form):
    """The closure is whole connected components of the reference system
    times the algebroid's `_d_den`, with its unknowns times the form's
    stored denominator D.

    Its unknowns, read back as (multi-index, exponent tuple) keys, keep the
    reference order, and its rows are exactly the
    reference rows that touch one of its unknowns or carry a right-hand
    side, each with all of its entries times `_d_den` and its right-hand
    side times `_d_den` * D: no row is cut, so no component is.
    """
    unknowns, rows, rhs = system
    unknowns = [tuple_key(algebroid, u) for u in unknowns]
    ref_unknowns, ref_rows, ref_rhs = reference
    scale, chosen = algebroid._d_den, set(unknowns)
    rhs_scale = scale * form._kernel[0]
    assert unknowns == [u for u in ref_unknowns if u in chosen]

    def keyed(names, row, value, factor=1, rhs_factor=1):
        return frozenset((names[c], v * factor) for c, v in row.items()), value * rhs_factor

    expected = Counter(keyed(ref_unknowns, row, ref_rhs.get(i, 0), scale, rhs_scale)
                       for i, row in enumerate(ref_rows)
                       if ref_rhs.get(i) or any(ref_unknowns[c] in chosen for c in row))
    assert Counter(keyed(unknowns, row, rhs.get(i, 0))
                   for i, row in enumerate(rows)) == expected


def koszul_exactness_system(algebroid, form, bound):
    """Unknowns, and per row key {unknown: value}, from the Koszul formula."""
    variables = algebroid.variables
    unknowns = []
    rows = {}
    for j_idx in itertools.combinations(range(algebroid.rank), form.degree - 1):
        for expo in _monomials(len(variables), bound):
            candidate = Form(variables, algebroid.rank, form.degree - 1, 1,
                             {(j_idx, 0): Poly(variables, {expo: Fraction(1)})})
            image = koszul_reference(algebroid, candidate)
            if image.is_zero():
                continue
            col = len(unknowns)
            unknowns.append((j_idx, expo))
            for (mi, _), poly in image.coeffs.items():
                for e, val in exponent_terms(poly).items():
                    rows.setdefault((mi, e), {})[col] = val
    return unknowns, rows


def _row_multiset(rows, rhs_of):
    """Rows with their right-hand sides, forgetting the row order."""
    return sorted((sorted(row.items()), rhs_of(i)) for i, row in enumerate(rows))


@pytest.mark.parametrize("case", ["tr4", "aff1_action_line"])
def test_exactness_system_matches_the_koszul_columns(case):
    if case == "tr4":
        algebroid = tangent_algebroid(Chart(tuple(f"x{i}" for i in range(4))))
        connection = random_linear_connection(random.Random(2024), algebroid, 2, 1)
        form = sigma_character(connection, 2).form
    else:
        algebroid = catalog.aff1_action_line()
        x = Poly.variable(("x",), 0)
        # closed: every 2-form is closed at top degree on a rank-2 frame
        form = Form(("x",), 2, 2, 1, {((0, 1), 0): x * x + Poly.constant(("x",), 3)})
    bound = default_bound(algebroid, [form])
    unknowns, rows, rhs = exactness_system_reference(algebroid, form, bound)
    ref_unknowns, ref_rows = koszul_exactness_system(algebroid, form, bound)
    assert unknowns == ref_unknowns and unknowns
    form_terms = {(mi, e): val for (mi, _), poly in form.coeffs.items()
                  for e, val in exponent_terms(poly).items()}
    for key in form_terms:
        ref_rows.setdefault(key, {})
    ref_keys = list(ref_rows)
    assert len(rows) == len(ref_keys)
    got = _row_multiset(rows, lambda i: rhs.get(i, 0))
    expected = _row_multiset([ref_rows[key] for key in ref_keys],
                             lambda i: form_terms.get(ref_keys[i], 0))
    assert got == expected
    assert_union_of_components(_exactness_system(algebroid, form, bound),
                               (unknowns, rows, rhs), algebroid, form)


def reference_answer(algebroid, degree, reference):
    """is_exact's (status, primitive) from a solve of a reference system."""
    unknowns, rows, rhs = reference
    sol = solve(rows, rhs, len(unknowns))
    if sol is None:
        return "not_exact" if algebroid.chart.dim == 0 else "undecided", None
    variables = algebroid.variables
    coeffs = {}
    for (j_idx, expo), val in zip(unknowns, sol):
        if val:
            poly = Poly(variables, {expo: val})
            coeffs[(j_idx, 0)] = coeffs.get((j_idx, 0), Poly.zero(variables)) + poly
    return "exact", Form(variables, algebroid.rank, degree - 1, 1, coeffs)


EXACTNESS_PRESENTATIONS = {
    **PRESENTATIONS,
    **{f"tr{n}": (lambda n=n: tangent_algebroid(Chart(tuple(f"x{i}" for i in range(n)))))
       for n in range(1, 6)},
}


def closed_forms(algebroid, rng, tangent):
    """Nonzero closed forms of positive degree drawn for one presentation.

    Coboundaries d(w) and top-degree forms everywhere; on a point base also
    a cohomology representative plus a coboundary (not exact); on a tangent
    algebroid the characters of a random connection.  Candidates that are
    not closed (presentations that break the axioms) are dropped.
    """
    a = algebroid
    out = [random_form(rng, a.variables, a.rank, a.rank, max_poly_degree=2, density=3)]
    for degree in range(1, a.rank + 1):
        w = random_form(rng, a.variables, a.rank, degree - 1, max_poly_degree=2,
                        density=3)
        out.append(a.d(w))
    if a.chart.dim == 0:
        for k, reps in CohomologyBasis(a).representatives.items():
            if k and reps:
                out.append(reps[0] + a.d(random_form(rng, (), a.rank, k - 1)))
    if tangent:
        connection = random_linear_connection(rng, a, 2, 1)
        out.extend(sigma_character(connection, i).form
                   for i in range(1, a.rank // 2 + 1))
    return [f for f in out if not f.is_zero() and a.d(f).is_zero()]


@pytest.mark.parametrize("seed", [1, 2])
def test_is_exact_matches_a_solve_of_the_full_system(seed):
    statuses = Counter()
    for name in sorted(EXACTNESS_PRESENTATIONS):
        a = EXACTNESS_PRESENTATIONS[name]()
        rng = random.Random(f"{seed}:{name}")
        for form in closed_forms(a, rng, tangent=name.startswith("tr")):
            for bound in sorted({0, 1, default_bound(a, [form])}):
                result = is_exact(a, form, bound=bound)
                if a.chart.dim == 0:
                    bound = 0  # as is_exact does over a point
                reference = exactness_system_reference(a, form, bound)
                assert_union_of_components(_exactness_system(a, form, bound), reference, a, form)
                status, primitive = reference_answer(a, form.degree, reference)
                assert (result.status, result.primitive) == (status, primitive), \
                    (name, bound, render_form(form))
                statuses[status] += 1
    assert set(statuses) == {"exact", "not_exact", "undecided"}


def exactness_cases():
    """(label, algebroid, closed form) for the primitive-storage test: the
    characters sigma_1..sigma_3 of rank-2 connections of Christoffel degree
    1 and 2 on TR^3-TR^5, the closed forms `closed_forms` draws on every
    point-base presentation (fractional_point's `_d_den` is 210), and
    closed forms with a stored D > 1 on every presentation: drawn ones
    scaled by 5/6 and coboundaries of forms with denominators up to 6,
    where they are closed (d_A^2 fails on some presentations)."""
    for n in (3, 4, 5):
        a = EXACTNESS_PRESENTATIONS[f"tr{n}"]()
        rng = random.Random(f"primitive:tr{n}")
        for degree in (1, 2):
            connection = random_linear_connection(rng, a, 2, degree)
            for index in (1, 2, 3):
                if (n, degree, index) != (5, 2, 2):   # a solve of several seconds
                    yield (f"tr{n} sigma{index} degree {degree}", a,
                           sigma_character(connection, index).form)
    for name in sorted(PRESENTATIONS):
        a = PRESENTATIONS[name]()
        rng = random.Random(f"primitive:{name}")
        drawn = closed_forms(a, rng, tangent=False)
        if a.chart.dim == 0:
            yield from ((name, a, form) for form in drawn)
        yield from ((f"{name} 5/6", a, form.scale(Fraction(5, 6))) for form in drawn[:3])
        for degree in range(a.rank):
            w = random_form(rng, a.variables, a.rank, degree, max_poly_degree=1, density=3)
            form = a.d(w.scale(Fraction(1, 3)))
            if a.d(form).is_zero():
                yield f"{name} d(w)", a, form


def test_is_exact_stores_the_primitive_of_the_fraction_route():
    # the primitive is stored from the integer triples of `integer_solution`
    # over lcm(heads) * D; the Fraction route solves in Fractions and builds
    # the form from them over D: the two must store the same form, keys in order
    statuses, shapes = Counter(), Counter()
    for label, a, form in exactness_cases():
        result, expected = is_exact(a, form), exactness_reference(a, form)
        assert result.status == expected.status, label
        if expected.primitive is not None:
            assert stored(result.primitive) == stored(expected.primitive), label
        statuses[result.status] += 1
        shapes["point" if a.chart.dim == 0 else "chart"] += 1
        shapes["D > 1"] += form._kernel[0] > 1
        if form.degree:
            bound = 0 if a.chart.dim == 0 else default_bound(a, [form])
            unknowns, rows, rhs = _exactness_system(a, form, bound)
            heads = {head for _, _, head in integer_solution(rows, rhs, len(unknowns)) or ()}
            shapes["unequal heads"] += len(heads) > 1
    assert statuses["exact"] >= 40 and statuses["not_exact"] >= 5
    assert min(shapes["point"], shapes["chart"], shapes["D > 1"]) >= 20
    assert shapes["unequal heads"] >= 10


@pytest.mark.parametrize("name", ["aff1", "sl2", "solvable5", "broken_jacobi",
                                  "non_antisymmetric", "tangent_line", "tangent3",
                                  "aff1_action_line", "polynomial", "fractional_point",
                                  "fractional_chart"])
def test_sources_are_the_transpose_of_d_sparse(name):
    """`d_sparse_sources` lists every column whose sparse d_A image,
    `_d_column`, has a term at a given row."""
    a = PRESENTATIONS[name]()
    bound = 3
    for degree in range(a.rank + 1):
        for j_idx in itertools.combinations(range(a.rank), degree):
            for expo in _monomials(len(a.variables), bound):
                column = (j_idx, expo)
                for row in a._d_column(packed_key(column)):
                    sources = [tuple_key(a, key) for key in a.d_sparse_sources(row, bound)]
                    assert column in sources, (column, row)
                    for mi, source in sources:
                        assert len(mi) == degree and list(mi) == sorted(set(mi))
                        assert min(source, default=0) >= 0 and sum(source) <= bound


@pytest.mark.parametrize("name", sorted(EXACTNESS_PRESENTATIONS))
def test_packed_sources_match_the_tuple_reference(name):
    """The packed `d_sparse_sources` lists the same columns as the tuple
    version on every row key (bitmask, monomial of degree <= 2), bounds 0-4."""
    a = EXACTNESS_PRESENTATIONS[name]()
    listed = 0
    for degree in range(a.rank + 1):
        for m_idx in itertools.combinations(range(a.rank), degree):
            for expo in _monomials(len(a.variables), 2):
                row = packed_key((m_idx, expo))
                for bound in range(5):
                    sources = a.d_sparse_sources(row, bound)
                    assert sources == d_sparse_sources_reference(a, row, bound), (row, bound)
                    listed += len(sources)
    assert listed or a.d_vanishes


def test_closure_of_the_tr5_sigma2_system_is_small():
    algebroid = tangent_algebroid(Chart(tuple(f"x{i}" for i in range(5))))
    connection = random_linear_connection(random.Random(201), algebroid, 2, 2)
    form = sigma_character(connection, 2).form
    unknowns, rows, _ = _exactness_system(algebroid, form,
                                          default_bound(algebroid, [form]))
    assert len(rows) <= 100 and len(unknowns) <= 300
    result = is_exact(algebroid, form)
    assert result.status == "exact" and algebroid.d(result.primitive) == form


@pytest.mark.parametrize("maker", [catalog.sl2, catalog.heisenberg3, catalog.solvable5,
                                   PRESENTATIONS["fractional_point"]])
def test_cohomology_matrices_match_the_koszul_formula(maker):
    # d_cols are the columns' integer numerators over `_d_den`
    a = maker()
    basis = CohomologyBasis(a)
    for k in range(a.rank + 1):
        rows = {mi: idx for idx, mi in enumerate(basis.bases[k + 1])}
        cols = []
        for mi in basis.bases[k]:
            cochain = Form((), a.rank, k, 1, {(mi, 0): Poly.one(())})
            cols.append({rows[out_mi]: exponent_terms(poly)[()] * a._d_den
                         for (out_mi, _), poly in koszul_reference(a, cochain).coeffs.items()})
        assert basis.d_cols[k] == cols


# --- the integer exactness system and the bound ---------------------------------------


@pytest.mark.parametrize("name", ["fractional_chart", "tr5"])
def test_each_column_image_is_d_sparse_times_the_denominator(name):
    """Each column of the exactness system is the sparse d_A image of its
    monomial, `_d_column`, which is `Algebroid.d` of the monomial Form times
    `_d_den`: the two readers of the d_A table pin each other."""
    a = EXACTNESS_PRESENTATIONS[name]()
    rng = random.Random(f"columns:{name}")
    den, columns = a._d_den, 0
    for form in closed_forms(a, rng, tangent=name.startswith("tr")):
        unknowns, rows, rhs = _exactness_system(a, form, default_bound(a, [form]))
        assert all(type(v) is int for row in rows for v in row.values())
        assert all(type(v) is int for v in rhs.values())
        for col in unknowns:
            image = a._d_column(col)
            assert image and all(type(v) is int for v in image.values())
            j_idx, expo = tuple_key(a, col)
            monomial = Form(a.variables, a.rank, len(j_idx), 1,
                            {(j_idx, 0): Poly(a.variables, {expo: 1})})
            assert {tuple_key(a, key): n for key, n in image.items()} == {(mi, e): val * den
                             for (mi, _), poly in a.d(monomial).coeffs.items()
                             for e, val in exponent_terms(poly).items()}
            columns += 1
    assert columns >= 30
    assert (den > 1) == (name == "fractional_chart")


def reference_bound(algebroid, forms):
    """default_bound from the total degree of every anchor and structure Poly."""
    degrees = [0]
    for row in algebroid.anchor:
        degrees.extend(map(total_degree, row))
    for row in algebroid.structure:
        for vec in row:
            degrees.extend(map(total_degree, vec))
    degrees.extend(total_degree(p) for form in forms for p in form.coeffs.values())
    return 2 * max(degrees) + 2


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_default_bound_reads_the_nonzero_terms(name):
    a = PRESENTATIONS[name]()
    rng = random.Random(f"bound:{name}")
    drawn = [random_form(rng, a.variables, a.rank, rng.randint(0, a.rank),
                         max_poly_degree=rng.randint(0, 3), density=2) for _ in range(3)]
    assert default_bound(a) == reference_bound(a, [])
    for form in drawn:
        assert default_bound(a, [form]) == reference_bound(a, [form])
    assert default_bound(a, drawn) == reference_bound(a, drawn)
    assert not a._d_table   # nothing is filled for it


# --- theorems as oracles: Künneth, Poincaré duality, the flat frame ---------


POINT_ALGEBRAS = {
    "abelian1": lambda: catalog.abelian(1),
    "aff1": catalog.aff1,
    "heisenberg3": catalog.heisenberg3,
    "sl2": catalog.sl2,
    "aff1_plus_center": catalog.aff1_plus_center,
    "two_aff1_plus_center": catalog.two_aff1_plus_center,
    "solvable5": catalog.solvable5,
}


def betti(algebroid):
    """The Betti numbers b_0..b_n of a Lie algebra of rank n."""
    ce = ce_cohomology(algebroid)
    return [ce.dim(k) for k in range(algebroid.rank + 1)]


def convolve(left, right):
    """The Betti numbers of g + h from those of g and h (Künneth)."""
    out = [0] * (len(left) + len(right) - 1)
    for p, x in enumerate(left):
        for q, y in enumerate(right):
            out[p + q] += x * y
    return out


def direct_sum(summands):
    """The Lie algebra g_1 + ... + g_n over a point, with block-diagonal
    brackets: the frame of each summand follows the last one's."""
    rank = sum(a.rank for a in summands)
    zero, brackets, offset = Poly.zero(()), {}, 0
    for a in summands:
        for i, j in itertools.combinations(range(a.rank), 2):
            if any(not c.is_zero() for c in a.structure[i][j]):
                vec = [zero] * rank
                vec[offset:offset + a.rank] = a.structure[i][j]
                brackets[(offset + i, offset + j)] = vec
        offset += a.rank
    return Algebroid.from_brackets(catalog.POINT, rank, [[] for _ in range(rank)], brackets)


def unimodular(algebroid):
    """Whether tr ad_x = 0 for every x: sum_j c_ij^j = 0 for each i."""
    return all(sum((algebroid.structure[i][j][j] for j in range(algebroid.rank)),
                   Poly.zero(())).is_zero() for i in range(algebroid.rank))


def shifted(form, offset, rank):
    """A form of a summand as a form of the direct sum, its frame at `offset`."""
    return Form((), rank, form.degree, 1, {(tuple(i + offset for i in mi), 0): poly
                                         for (mi, _), poly in form.coeffs.items()})


@pytest.mark.parametrize("maker, summands, numbers", [
    (catalog.aff1_plus_center, [catalog.aff1, lambda: catalog.abelian(1)], [1, 2, 1, 0]),
    (catalog.two_aff1_plus_center, [catalog.aff1, catalog.aff1, lambda: catalog.abelian(1)],
     [1, 3, 3, 1, 0, 0]),
])
def test_betti_numbers_of_a_catalog_sum_are_the_convolution(maker, summands, numbers):
    assert betti(maker()) == reduce(convolve, (betti(make()) for make in summands)) == numbers


def test_kunneth_and_poincare_duality_over_random_direct_sums():
    # Betti(g + h) is the convolution of Betti(g) and Betti(h), and a wedge
    # of classes of two summands has a nonzero class in the sum; b_n != 0
    # exactly when the sum is unimodular, and then b_k = b_(n - k).  Sums of
    # rank at most 8, every other one of unimodular summands only
    rng = random.Random(61)
    names, unimodular_sums = sorted(POINT_ALGEBRAS), 0
    balanced = [name for name in names if unimodular(POINT_ALGEBRAS[name]())]
    for trial in range(16):
        summands = []
        while len(summands) < 2 or rng.random() < 0.5:
            fits = [name for name in (balanced if trial % 2 else names)
                    if sum(a.rank for a in summands) + POINT_ALGEBRAS[name]().rank <= 8]
            if not fits:
                break
            summands.append(POINT_ALGEBRAS[rng.choice(fits)]())
        algebra = direct_sum(summands)
        numbers = betti(algebra)
        assert numbers == reduce(convolve, map(betti, summands))
        assert (numbers[-1] != 0) == unimodular(algebra)
        if unimodular(algebra):
            unimodular_sums += 1
            assert numbers == numbers[::-1]
        g, h = summands[:2]
        alphas = [rep for k in range(1, g.rank + 1) for rep in ce_cohomology(g).representatives[k]]
        betas = [rep for k in range(h.rank + 1) for rep in ce_cohomology(h).representatives[k]]
        ce = ce_cohomology(algebra)
        for alpha, beta in itertools.product(alphas[:2], betas[:2]):
            wedge = shifted(alpha, 0, algebra.rank).wedge(shifted(beta, g.rank, algebra.rank))
            assert any(ce.class_vector(wedge))
    assert 8 <= unimodular_sums < 16


@pytest.mark.parametrize("maker, numbers", [(catalog.sl2, [1, 0, 0, 1]),
                                            (catalog.heisenberg3, [1, 2, 2, 1])])
def test_betti_numbers_of_a_unimodular_algebra_are_palindromic(maker, numbers):
    a = maker()
    assert unimodular(a)
    assert betti(a) == numbers == numbers[::-1]


@pytest.mark.parametrize("name", ["aff1", "solvable5", "aff1_plus_center",
                                  "two_aff1_plus_center"])
def test_the_top_betti_number_of_a_non_unimodular_algebra_is_zero(name):
    a = POINT_ALGEBRAS[name]()
    assert not unimodular(a)
    assert betti(a)[-1] == 0


# --- the integer cohomology against the Fraction build ---------------------------


COHOMOLOGY_ALGEBRAS = {
    **{name: make for name, make in sorted(PRESENTATIONS.items()) if make().chart.dim == 0},
    **{f"abelian{r}": (lambda r=r: catalog.abelian(r)) for r in range(1, 9)},
}


def assert_cohomology_matches_the_fraction_build(a, rng):
    """`CohomologyBasis` of `a` against `oracles.cohomology_reference`: equal
    bases, integer d_cols equal to the Fraction ones times `_d_den`, the same
    representative vectors (values, types and order), dims and stored
    representatives, and equal decompositions of random closed forms."""
    ce, ref = CohomologyBasis(a), cohomology_reference(a)
    assert ce.bases == ref.bases
    assert ce.d_cols == {k: [{i: v * a._d_den for i, v in col.items()} for col in cols]
                         for k, cols in ref.d_cols.items()}
    assert all(type(v) is int for cols in ce.d_cols.values() for col in cols
               for v in col.values())
    assert repr(ce.rep_vectors) == repr(ref.rep_vectors)
    assert [ce.dim(k) for k in range(a.rank + 2)] == [
        len(ref.rep_vectors.get(k, ())) for k in range(a.rank + 2)]
    assert {k: [stored(f) for f in reps] for k, reps in ce.representatives.items()} == {
        k: [stored(f) for f in reps] for k, reps in ref.representatives.items()}
    for k in range(1, a.rank + 1):
        for _ in range(3):
            vec = random_cocycle(rng, ref.cocycles[k])
            form = Form((), a.rank, k, 1, {(ref.bases[k][i], 0): v for i, v in vec.items()})
            coeffs, primitive = ce.decompose(form)
            ref_coeffs, ref_primitive = ref.decompose(form)
            assert coeffs == ref_coeffs and stored(primitive) == stored(ref_primitive)


@pytest.mark.parametrize("name", sorted(COHOMOLOGY_ALGEBRAS))
def test_cohomology_matches_the_fraction_build(name):
    # the point-base presentations include fractional_point (`_d_den` 210)
    # and broken_jacobi (d_A^2 != 0); abelian(r) skips every elimination
    assert_cohomology_matches_the_fraction_build(COHOMOLOGY_ALGEBRAS[name](),
                                                 random.Random(sum(map(ord, name))))


def test_cohomology_of_random_direct_sums_matches_the_fraction_build():
    rng = random.Random(71)
    names = sorted(POINT_ALGEBRAS)
    for _ in range(8):
        summands = []
        while len(summands) < 2 or rng.random() < 0.5:
            fits = [name for name in names
                    if sum(a.rank for a in summands) + POINT_ALGEBRAS[name]().rank <= 8]
            if not fits:
                break
            summands.append(POINT_ALGEBRAS[rng.choice(fits)]())
        assert_cohomology_matches_the_fraction_build(direct_sum(summands), rng)


@pytest.mark.parametrize("make, built", [(lambda: catalog.abelian(8), []), (catalog.sl2, []),
                                         (catalog.solvable5, [1, 1, 2]),
                                         (catalog.heisenberg3, [1, 1])],
                         ids=["abelian8", "sl2", "solvable5", "heisenberg3"])
def test_unit_cochain_degrees_store_their_representatives_with_no_build(monkeypatch, make,
                                                                         built):
    # a degree whose d_k has no nonzero column has unit cochains as its
    # representatives, all of them or those `pivot_columns` picks against
    # the boundaries, each stored as e^J over 1; every other degree builds
    # its representatives through `vector_to_form`, listed here by degree
    degrees, build = [], CohomologyBasis.vector_to_form
    monkeypatch.setattr(CohomologyBasis, "vector_to_form",
                        lambda self, k, vec: degrees.append(k) or build(self, k, vec))
    ce = CohomologyBasis(make())
    assert degrees == built
    units = [k for k in range(ce.algebroid.rank + 1) if not any(ce.d_cols[k])]
    assert 0 in units and not set(units) & set(built)
    for k in units:
        assert all(vec == {i: 1} for vec in ce.rep_vectors[k] for i in vec)
        assert [rep._kernel for rep in ce.representatives[k]] == [
            (1, {(k, 0, 0): {ce._masks[k][i]: [1]}}) for vec in ce.rep_vectors[k] for i in vec]


@pytest.mark.parametrize("make", [catalog.sl2, catalog.solvable5, catalog.heisenberg3],
                         ids=["sl2", "solvable5", "heisenberg3"])
def test_class_vector_reads_the_coefficients_with_no_primitive(monkeypatch, make):
    # `class_vector` is the coefficients of `decompose`, from the same
    # elimination, with no primitive stored
    rng = random.Random(f"class_vector:{make.__name__}")
    a = make()
    ce, ref = CohomologyBasis(a), cohomology_reference(a)
    built = []
    from_terms = Form._from_terms.__func__
    monkeypatch.setattr(Form, "_from_terms", classmethod(
        lambda cls, *args: built.append(args) or from_terms(cls, *args)))
    forms_seen, nonzero = 0, 0
    for k in range(a.rank + 2):
        for _ in range(4):
            vec = random_cocycle(rng, ref.cocycles[k]) if k <= a.rank else {}
            form = Form((), a.rank, k, 1, {(ref.bases[k][i], 0): v for i, v in vec.items()})
            del built[:]
            coeffs = ce.class_vector(form)
            assert not built
            assert coeffs == ce.decompose(form)[0]
            forms_seen += 1
            nonzero += any(coeffs)
    assert forms_seen and nonzero


def test_a_transgression_from_the_flat_frame_is_a_primitive_of_the_character():
    # where d_A^2 = 0, the zero connection is flat and classes do not depend
    # on the connection, so T = transgression(0, nabla, k) has d_A T equal to
    # sigma_k(nabla) exactly, and the class of sigma_k is never nonzero
    rng = random.Random(67)
    draws, statuses, not_flat = 0, Counter(), []
    for name in sorted(PRESENTATIONS):
        a = PRESENTATIONS[name]()
        if not a.d_squared_check()[0]:
            not_flat.append(name)
            continue
        for _ in range(3):
            rank = rng.randint(1, 2)
            nabla = random_linear_connection(rng, a, rank)
            for k in range(1, min(3, a.rank // 2) + 1):
                T = transgression(LinearConnection.zero(a, rank), nabla, k)
                sigma = sigma_character(nabla, k).form
                assert a.d(T) == sigma
                status, _ = class_status(a, sigma)
                assert status != "nonzero"
                statuses[status] += 1
                draws += 1
    assert not_flat == ["broken_jacobi", "polynomial"]
    # and the default bound decides every draw
    assert draws >= 50 and statuses == {"zero": draws}


def test_a_cuth_transgression_from_the_flat_frame_is_a_primitive_of_the_character():
    # the same over connections up to homotopy: the zero cuth, zero
    # connections and D = 0, is flat where d_A^2 = 0, so transgression(0, D,
    # k) is a primitive of sigma_k(D) on R^a[0] + R^b[1], with R[2] or not
    rng = random.Random(71)
    draws, nonzero, statuses = 0, 0, Counter()
    for name in sorted(PRESENTATIONS):
        a = PRESENTATIONS[name]()
        if not a.d_squared_check()[0]:
            continue
        for extra in ([], [(2, 1)], []):
            bundle = GradedBundle([(0, rng.randint(1, 2)), (1, rng.randint(1, 2))] + extra)
            zero = ConnectionUpToHomotopy(a, bundle, {z: LinearConnection.zero(a, r)
                                                      for z, r in bundle.summands})
            conn = random_cuth(rng, a, bundle)
            for k in range(1, 4):
                T = transgression(zero, conn, k)
                sigma = sigma_character(conn, k).form
                assert a.d(T) == sigma
                status, _ = class_status(a, sigma)
                statuses[status] += 1
                nonzero += not sigma.is_zero()
                draws += 1
    # the default bound decides every draw, and the class is never nonzero
    assert draws >= 150 and nonzero >= 40 and statuses == {"zero": draws}, (
        draws, nonzero, statuses)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_a_linear_connection_is_its_one_summand_connection_up_to_homotopy(name):
    # on a section, the operator is the covariant derivative in each e^i; the
    # character, the square-zero report and the transgression are those of
    # the connection up to homotopy built from it on R^n[0]
    a = PRESENTATIONS[name]()
    rng = random.Random(f"one type:{name}")
    for rank in (1, 2, 3):
        nabla = random_linear_connection(rng, a, rank, max_poly_degree=2)
        zero = LinearConnection.zero(a, rank)
        bundle = GradedBundle([(0, rank)])
        twin = ConnectionUpToHomotopy(a, bundle, {0: nabla})
        zero_twin = ConnectionUpToHomotopy(a, bundle, {0: zero})
        section = random_form(rng, a.variables, a.rank, 0, fiber_dim=rank,
                              max_poly_degree=2, density=3)
        components = [section.get((), alpha) for alpha in range(rank)]
        image = nabla.apply(section)
        for i in range(a.rank):
            assert [image.get((i,), beta) for beta in range(rank)] == covariant(
                nabla, i, components)
        assert square_zero_check(nabla) == square_zero_check(twin)
        for k in range(1, 4):
            assert sigma_character(nabla, k) == sigma_character(twin, k)
            assert transgression(zero, nabla, k) == transgression(zero_twin, twin, k)


# frame elements whose ad is diagonal in the frame; x is their sum
CARTAN_ELEMENTS = {"two_aff1_plus_center": (0, 2), "sl2": (0,), "solvable5": (2,)}


def diagonal_weights(algebroid, support):
    """lambda_b with ad(x) e_b = lambda_b e_b, x the sum of the frame elements
    in `support`, read off the structure constants of a point-base algebra."""
    weights = []
    for b in range(algebroid.rank):
        image = [sum((algebroid.structure[c][b][m] for c in support), Poly.zero(()))
                 for m in range(algebroid.rank)]
        assert all(p.is_zero() for m, p in enumerate(image) if m != b)
        weights.append(Fraction(str(image[b])))
    return weights


@pytest.mark.parametrize("name", sorted(CARTAN_ELEMENTS))
def test_cartan_primitives_of_the_nonzero_weight_parts_of_closed_forms(name):
    # L_x acts on e^J by the weight w(J) = -sum_(j in J) lambda_j and d_A keeps
    # the weight, so by Cartan's L_x = d i_x + i_x d each closed part omega_w
    # of weight w != 0 has the primitive i_x omega_w / w
    a = PRESENTATIONS[name]()
    support = CARTAN_ELEMENTS[name]
    weights = diagonal_weights(a, support)
    assert any(weights)
    x = [Fraction(int(b in support)) for b in range(a.rank)]
    rng = random.Random(f"cartan:{name}")
    closed = [a.d(random_form(rng, (), a.rank, k, density=4))
              for k in range(a.rank) for _ in range(4)]
    closed += [sigma_character(random_linear_connection(rng, a, 2), k).form
               for k in (1, 2) for _ in range(3)]
    checked = 0
    for omega in closed:
        parts = {}
        for (mi, alpha), poly in omega.coeffs.items():
            parts.setdefault(-sum(weights[j] for j in mi), {})[(mi, alpha)] = poly
        for w, coeffs in parts.items():
            part = Form((), a.rank, omega.degree, 1, coeffs)
            assert a.d(part).is_zero()
            if w:
                assert a.d(interior(x, part).scale(1 / w)) == part
                checked += 1
    assert checked >= 10, checked
