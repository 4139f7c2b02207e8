"""Gauge-orbit oracle: a gauge transformation moves the curvature by conjugation.

For g = g0 + N of total degree 0, with g0 an invertible (0, z, z) part and N
nilpotent of form degree >= 1, the operator g cal_D g^-1 is cal_D' = d_A +
hat(Omega') with Omega' = g Omega g^-1 - (d_A g) g^-1, because d_A is a
derivation.  So cal_D'^2 = g cal_D^2 g^-1, and with cal_D^2 = d_A^2 + hat(R):

    R' = g R g^-1 + g d_A^2(g^-1),

whose last term vanishes on every presentation with d_A^2 = 0.  There the
graded trace kills graded commutators, so sigma_k(cal_D') == sigma_k(cal_D)
as forms.  Both identities are checked exactly; none of the algebra below is
shared with the curvature's kernel passes.
"""

import random

import pytest

from gradweil.chernweil import sigma_character
from gradweil.connections import ConnectionUpToHomotopy
from gradweil.forms import GradedBundle, TotalForm
from gradweil.randgen import random_cuth, random_fraction, random_poly
from gradweil.ring import Poly
from test_algebroid import PRESENTATIONS

# ranks 1-3, with odd and even summand degrees
GAUGE_BUNDLES = (
    GradedBundle([(1, 1)]),
    GradedBundle([(0, 1), (1, 1)]),
    GradedBundle([(-1, 1), (0, 1), (1, 1)]),
    GradedBundle([(0, 2), (2, 1)]),
)


def random_blocks(rng, algebroid, bundle, keep, entry):
    """A total-degree-0 form with random `entry(row, col)` matrices at one or
    two multi-indices of each block (i, l, j), i = l - j, that `keep(i)` admits."""
    rank = algebroid.rank
    blocks = {}
    for l, cols in bundle.summands:
        for j, rows in bundle.summands:
            i = l - j
            if 0 <= i <= rank and keep(i):
                blocks[(i, l, j)] = {
                    tuple(sorted(rng.sample(range(rank), i))):
                        [[entry(r, c) for c in range(cols)] for r in range(rows)]
                    for _ in range(1 + (i > 0))}
    return TotalForm(algebroid.variables, rank, bundle, bundle, 0, blocks)


def gauge(rng, algebroid, bundle):
    """(g, g^-1): g = C (1 + P) with C constant diagonal, P = M + C^-1 N, M
    strictly lower triangular in each summand (Poly entries on a chart) and
    N of form degree >= 1, so P is nilpotent and g^-1 = sum (-P)^k C^-1."""
    variables, rank = algebroid.variables, algebroid.rank
    zero = Poly.zero(variables)
    scale = [[random_fraction(rng) or 1 for _ in range(r)] for _, r in bundle.summands]

    def diagonal(power):
        return TotalForm(variables, rank, bundle, bundle, 0, {
            (0, z, z): {(): [[Poly.constant(variables, scale[k][r] ** power) if r == c
                              else zero for c in range(n)] for r in range(n)]}
            for k, (z, n) in enumerate(bundle.summands)})

    C, C_inv = diagonal(1), diagonal(-1)
    M = random_blocks(rng, algebroid, bundle, lambda i: i == 0,
                      lambda r, c: random_poly(rng, variables) if r > c else zero)
    N = random_blocks(rng, algebroid, bundle, lambda i: i > 0,
                      lambda r, c: random_poly(rng, variables))
    P = M + C_inv.wedge(N)
    identity = TotalForm.identity(variables, rank, bundle)
    g = C.wedge(identity + P)
    series, term = identity, identity
    while not term.is_zero():
        term = -term.wedge(P)
        series = series + term
    g_inv = series.wedge(C_inv)
    assert g.wedge(g_inv) == identity and g_inv.wedge(g) == identity
    return g, g_inv


def gauge_transform(conn, g, g_inv):
    """The connection up to homotopy with Omega' = g Omega g^-1 - (d_A g) g^-1,
    kept with the same grading connections and D' = Omega' - Gamma."""
    d = conn.algebroid.d_total
    omega = g.wedge(conn.omega()).wedge(g_inv) - d(g).wedge(g_inv)
    return ConnectionUpToHomotopy(conn.algebroid, conn.bundle, conn.nablas,
                                  omega - conn.connection_form())


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_gauge_transformation_conjugates_the_curvature(name):
    algebroid = PRESENTATIONS[name]()
    rng = random.Random(sum(map(ord, name)) + 16)
    d = algebroid.d_total
    flat_d = algebroid.d_squared_check()[0]
    moved = 0
    for bundle in GAUGE_BUNDLES:
        conn = random_cuth(rng, algebroid, bundle)
        g, g_inv = gauge(rng, algebroid, bundle)
        moved_conn = gauge_transform(conn, g, g_inv)
        correction = g.wedge(d(d(g_inv)))
        assert moved_conn.curvature() == (
            g.wedge(conn.curvature()).wedge(g_inv) + correction)
        moved += moved_conn.omega() != conn.omega()
        if flat_d:
            assert correction.is_zero()
            for k in (1, 2):
                assert sigma_character(moved_conn, k).form == sigma_character(conn, k).form
    assert moved

