"""Oracles and fixtures that several test modules share.

The package has no use for them: each is either an independent second
computation that a test compares the engine with, or input data for tests.
"""

import itertools
from fractions import Fraction

from gradweil.algebroid import Algebroid, Chart, tangent_algebroid
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


# --- connections up to homotopy ----------------------------------------------------


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
