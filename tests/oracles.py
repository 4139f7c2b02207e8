"""Oracles and fixtures that several test modules share.

The package has no use for them: each is either an independent second
computation that a test compares the engine with, or input data for tests.
"""

import itertools
from fractions import Fraction

from gradweil.algebroid import Algebroid, Chart, tangent_algebroid
from gradweil.errors import MismatchError
from gradweil.forms import Form, GradedElement, TotalForm
from gradweil.ring import Poly


def sort_with_sign(indices):
    """Sort an index tuple, returning (sign, sorted) or (0, None) on repeats."""
    indices = tuple(indices)
    if len(set(indices)) != len(indices):
        return 0, None
    inversions = sum(a > b for a, b in itertools.combinations(indices, 2))
    return (-1 if inversions % 2 else 1), tuple(sorted(indices))


# --- the anchor pullback: rho^* is a cochain map, a cross-check of d_A ----------


def anchor_minor(algebroid, rows, cols):
    """det of the anchor submatrix anchor[rows][cols], exact expansion."""
    size = len(rows)
    acc = Poly.zero(algebroid.variables)
    for perm in itertools.permutations(range(size)):
        sgn, _ = sort_with_sign(perm)
        prod = Poly.one(algebroid.variables)
        for a in range(size):
            prod = prod * algebroid.anchor[rows[a]][cols[perm[a]]]
            if prod.is_zero():
                break
        acc = acc + (prod if sgn == 1 else -prod)
    return acc


def rho_pullback(algebroid, form):
    """Pull a scalar coordinate-frame form back through the anchor.

    (rho^* w)(e_{i_1}..e_{i_s}) = w(rho e_{i_1}.. rho e_{i_s}); on
    ascending indices the coefficient is a sum of anchor minors times the
    coordinate coefficients.
    """
    assert form.frame_rank == algebroid.chart.dim and form.fiber_dim == 1
    s = form.degree
    coeffs = {}
    for out_idx in itertools.combinations(range(algebroid.rank), s):
        acc = Poly.zero(algebroid.variables)
        for (mi, _), val in form.coeffs.items():
            minor = anchor_minor(algebroid, out_idx, mi)
            if not minor.is_zero():
                acc = acc + minor * val
        if not acc.is_zero():
            coeffs[(out_idx, 0)] = acc
    return Form(algebroid.variables, algebroid.rank, s, 1, coeffs)


# --- forms on Poly coefficients: the references of the stored kernel ----------------


def poly_add(left, right):
    """left + right, coefficient by coefficient on Polys."""
    if (left.variables, left.frame_rank, left.degree, left.fiber_dim) != (
            right.variables, right.frame_rank, right.degree, right.fiber_dim):
        raise MismatchError("form shapes differ")
    coeffs = dict(left.coeffs)
    for key, poly in right.coeffs.items():
        coeffs[key] = coeffs[key] + poly if key in coeffs else poly
    return Form(left.variables, left.frame_rank, left.degree, left.fiber_dim, coeffs)


def poly_scale(form, scalar):
    """form times a rational number or a Poly, coefficient by coefficient."""
    if not isinstance(scalar, Poly):
        scalar = Poly.constant(form.variables, scalar)
    return Form(form.variables, form.frame_rank, form.degree, form.fiber_dim,
                {key: scalar * poly for key, poly in form.coeffs.items()})


def poly_wedge(left, right):
    """left ^ right with at least one factor scalar, on Polys: each pair of
    ascending multi-indices merges with the sign of its sorting permutation,
    and the product of coefficients takes the vector-valued factor's fiber
    index."""
    if left.fiber_dim != 1 and right.fiber_dim != 1:
        raise MismatchError("wedge of two vector-valued forms is undefined")
    coeffs = {}
    for (mi1, a1), p1 in left.coeffs.items():
        for (mi2, a2), p2 in right.coeffs.items():
            sign, merged = sort_with_sign(mi1 + mi2)
            if sign == 0:
                continue
            key = (merged, a1 if left.fiber_dim > 1 else a2)
            prod = p1 * p2 if sign == 1 else -(p1 * p2)
            coeffs[key] = coeffs[key] + prod if key in coeffs else prod
    return Form(left.variables, left.frame_rank, left.degree + right.degree,
                max(left.fiber_dim, right.fiber_dim), coeffs)


def poly_d(algebroid, form):
    """d_A of a form by the derivation rule on Polys, fiber component by
    component: d(c e^J) = sum_i rho(e_i)(c) e^i ^ e^J + c d(e^J), with d e^k =
    -sum_{a<b} c_ab^k e^a ^ e^b and d(e^J) by the Leibniz rule, every product
    a `poly_wedge`."""
    variables, rank = algebroid.variables, algebroid.rank

    def scalar(degree, coeffs):
        return Form(variables, rank, degree, 1, coeffs)

    def d_monomial(mi):
        # d(e^j ^ e^rest) = d e^j ^ e^rest - e^j ^ d(e^rest)
        if not mi:
            return scalar(1, {})
        j, rest = mi[0], mi[1:]
        d_j = scalar(2, {((a, b), 0): -algebroid.structure[a][b][j]
                         for a in range(rank) for b in range(a + 1, rank)})
        rest_form = scalar(len(rest), {(rest, 0): Poly.one(variables)})
        return poly_add(poly_wedge(d_j, rest_form),
                        poly_scale(poly_wedge(Form.coframe(variables, rank, j),
                                              d_monomial(rest)), -1))

    out = Form.zero(variables, rank, form.degree + 1, form.fiber_dim)
    for (mi, alpha), c in form.coeffs.items():
        dc = scalar(1, {((i,), 0): algebroid.anchor_apply(i, c) for i in range(rank)})
        term = poly_add(poly_wedge(dc, scalar(len(mi), {(mi, 0): Poly.one(variables)})),
                        poly_scale(d_monomial(mi), c))
        unit = Form(variables, rank, 0, form.fiber_dim, {((), alpha): Poly.one(variables)})
        out = poly_add(out, poly_wedge(term, unit))
    return out


def poly_connection_d(nabla, form):
    """d_nabla w = d_A w + sum_i e^i ^ (G_i w) on Polys, G_i the target-major
    Christoffel matrix of frame direction i."""
    algebroid = nabla.algebroid
    out = poly_d(algebroid, form)
    for i, mat in enumerate(nabla.mats):
        moved = {}
        for (mi, alpha), poly in form.coeffs.items():
            for beta in range(nabla.rank):
                key, prod = (mi, beta), mat[beta][alpha] * poly
                moved[key] = moved[key] + prod if key in moved else prod
        moved = Form(algebroid.variables, algebroid.rank, form.degree, nabla.rank, moved)
        out = poly_add(out, poly_wedge(Form.coframe(algebroid.variables, algebroid.rank, i),
                                       moved))
    return out


# --- connections up to homotopy ----------------------------------------------------


def hat(total_form, element):
    """hat(K) on a GradedElement over its source: the one kernel pass
    `TotalForm._apply` over the element's parts."""
    if element.bundle != total_form.src:
        raise MismatchError("element bundle does not match the source bundle")
    return total_form._apply(element.parts)



def curvature_power(conn, power):
    """R^i as an iterated composition wedge; hat of it equals cal_D^(2i).

    The full product, the oracle of `chernweil.power_traces`.
    """
    if power == 0:
        return TotalForm.identity(conn.variables, conn.algebroid.rank, conn.bundle)
    r = conn.curvature()
    out = r
    for _ in range(power - 1):
        out = out.wedge(r)
    return out


def basis_element(variables, frame_rank, bundle, summand, alpha):
    """The constant section alpha of the summand of degree `summand`."""
    form = Form(variables, frame_rank, 0, bundle.rank(summand),
                {((), alpha): Poly.one(variables)})
    return GradedElement.single(bundle, form, summand)


# --- input data --------------------------------------------------------------------


def random_structure_perturbation(rng, algebroid, span=2):
    """Antisymmetrically perturb one structure entry (sometimes a no-op).

    Returns a new presentation with the same chart, rank, and anchor; the
    perturbation keeps antisymmetry by construction, so validity hinges on
    the Jacobi/anchor conditions alone.
    """
    r = algebroid.rank
    structure = [[[p for p in vec] for vec in row] for row in algebroid.structure]
    if rng.random() >= 0.25:
        i = rng.randrange(r)
        j = rng.randrange(r)
        while j == i:
            j = rng.randrange(r)
        k = rng.randrange(r)
        delta = Poly.constant(algebroid.variables,
                              Fraction(rng.randint(-span, span)))
        structure[i][j][k] = structure[i][j][k] + delta
        structure[j][i][k] = structure[j][i][k] - delta
    return Algebroid(algebroid.chart, r, algebroid.anchor, structure)


def tangent_line():
    """TM of the chart (x)."""
    return tangent_algebroid(Chart(("x",)))


def solvable5_module():
    """Flat rank-2 Christoffels over the first-four subframe of solvable5.

    lambda(e1) = diag(1,0), lambda(e2) = E12; flat since [diag(1,0), E12]
    = E12 = lambda([e1,e2]).  Source-major tables (for from_christoffel),
    frames of the restricted subalgebra.
    """
    one = Poly.one(())
    zero = Poly.zero(())
    return [
        [[one, zero], [zero, zero]],   # e1: diag(1,0)
        [[zero, zero], [one, zero]],   # e2: E12 once transposed to target-major
        [[zero, zero], [zero, zero]],
        [[zero, zero], [zero, zero]],
    ]


def flat_borel_module():
    """Rank-1 module data for the Borel subalgebra span(h, e) of sl2.

    lambda(h) = 1, lambda(e) = 0 is a Lie algebra map to gl(1) since
    [h, e] = 2e acts by 2*lambda(e) = 0 = [lambda(h), lambda(e)].
    """
    one = Poly.one(())
    zero = Poly.zero(())
    return [[[one]], [[zero]]]  # christoffel [frame][source][target] over (h, e)
