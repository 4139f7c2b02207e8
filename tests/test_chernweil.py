"""Characters, invariant polynomials, cohomology, secondary products."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from gradweil import catalog
from gradweil.algebroid import Chart, tangent_algebroid
from gradweil.chernweil import (
    CohomologyBasis,
    _exactness_system,
    _monomials,
    anchor_pullback_character,
    ce_cohomology,
    class_status,
    default_bound,
    invariant_poly_f,
    invariant_polys,
    is_exact,
    massey_triple,
    pontryagin_class,
    sigma_character,
    total_pontryagin,
    transgression,
)
from gradweil.connections import LinearConnection
from gradweil.errors import MismatchError, NotClosedError
from gradweil.forms import Form, GradedBundle, render_form
from gradweil.randgen import random_cuth, random_form, random_linear_connection
from gradweil.ring import Poly
from test_algebroid import koszul_reference


def scalar_aff1_connection():
    a = catalog.aff1()
    return LinearConnection(a, 1, [[[Poly.constant((), 2)]],
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
            assert fs[0].get(()).constant_value() == 1
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
    total = total_pontryagin(nab)
    assert [c.index for c in total] == [1]
    p2_candidates = total_pontryagin(
        random_linear_connection(rng, catalog.abelian(8), 3))
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
            assert ce.class_is_zero(form) == all(c == 0 for c in coeffs)


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
    t = catalog.tangent_line()
    x = Poly.variable(("x",), 0)
    w = Form.coframe(("x",), 1, 0).scale(x * x)
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


def test_is_exact_rejects_non_closed():
    a = catalog.aff1()
    with pytest.raises(NotClosedError):
        is_exact(a, Form.coframe((), 2, 1))


# --- anchor pullback --------------------------------------------------------


def test_anchor_pullback_identity_anchor():
    t = catalog.tangent_plane()
    vs = ("x", "y")
    y = Poly.variable(vs, 1)
    base = LinearConnection(tangent_algebroid(Chart(vs)), 1, [[[y]], [[Poly.zero(vs)]]])
    pulled = anchor_pullback_character(t, base, 1)
    same = LinearConnection(t, 1, [[[y]], [[Poly.zero(vs)]]])
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
        assert a.rho_pullback(t.d(w)) == a.d(a.rho_pullback(w))
        assert a.rho_pullback(w.wedge(v)) == a.rho_pullback(w).wedge(
            a.rho_pullback(v))


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
    with pytest.raises(NotClosedError):
        massey_triple(h3, eps3, eps1, eps1)


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


def reference_exactness_system(algebroid, form, bound):
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
                for e, val in poly.terms.items():
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
    unknowns, rows, rhs = _exactness_system(algebroid, form, bound)
    ref_unknowns, ref_rows = reference_exactness_system(algebroid, form, bound)
    assert unknowns == ref_unknowns and unknowns
    form_terms = {(mi, e): val for (mi, _), poly in form.coeffs.items()
                  for e, val in poly.terms.items()}
    for key in form_terms:
        ref_rows.setdefault(key, {})
    ref_keys = list(ref_rows)
    assert len(rows) == len(ref_keys)
    got = _row_multiset(rows, lambda i: rhs.get(i, 0))
    expected = _row_multiset([ref_rows[key] for key in ref_keys],
                             lambda i: form_terms.get(ref_keys[i], 0))
    assert got == expected


@pytest.mark.parametrize("maker", [catalog.sl2, catalog.heisenberg3, catalog.solvable5])
def test_cohomology_matrices_match_the_koszul_formula(maker):
    a = maker()
    basis = CohomologyBasis(a)
    for k in range(a.rank + 1):
        rows = {mi: idx for idx, mi in enumerate(basis.bases[k + 1])}
        cols = []
        for mi in basis.bases[k]:
            cochain = Form((), a.rank, k, 1, {(mi, 0): Poly.one(())})
            cols.append({rows[out_mi]: poly.constant_value() for (out_mi, _), poly
                         in koszul_reference(a, cochain).coeffs.items()})
        assert basis.d_cols[k] == cols
