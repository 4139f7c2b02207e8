"""Seeded generators for randomized property suites.

Everything takes an explicit random.Random so that suites are reproducible
from a single seed.  Generated data is intentionally sparse and small:
exact arithmetic pays for dense high-degree inputs with coefficient blowup,
and the identities under test are linear enough in the data that sparse
samples already exercise every code path.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .connections import ConnectionUpToHomotopy, LinearConnection
from .forms import Form, TotalForm
from .ring import Poly


def random_fraction(rng, span=3, max_den=2):
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def random_poly(rng, variables, max_degree=1, terms=2, span=3):
    out = Poly.zero(variables)
    n = len(variables)
    for _ in range(terms):
        if n:
            expo = [0] * n
            for _ in range(rng.randint(0, max_degree)):
                expo[rng.randrange(n)] += 1
            expo = tuple(expo)
        else:
            expo = ()
        out = out + Poly(variables, {expo: random_fraction(rng)})
    return out


def random_form(rng, variables, frame_rank, degree, fiber_dim=1,
                max_poly_degree=1, density=2):
    """A sparse form: `density` random terms (repeats accumulate)."""
    coeffs = {}
    indices = list(itertools.combinations(range(frame_rank), degree))
    if not indices:
        return Form.zero(variables, frame_rank, degree, fiber_dim)
    for _ in range(density):
        mi = rng.choice(indices)
        alpha = rng.randrange(fiber_dim)
        poly = random_poly(rng, variables, max_poly_degree)
        key = (mi, alpha)
        acc = coeffs.get(key, Poly.zero(variables)) + poly
        coeffs[key] = acc
    return Form(variables, frame_rank, degree, fiber_dim, coeffs)


def random_matrix(rng, rows, cols, variables, max_poly_degree=1):
    return [[random_poly(rng, variables, max_poly_degree, terms=1)
             for _ in range(cols)] for _ in range(rows)]


def random_total_form(rng, variables, frame_rank, bundle, total_degree,
                      max_poly_degree=1, density=1):
    """Random blocks in every admissible (i, l, j) slot of the total degree."""
    degrees = bundle.degrees()
    blocks = {}
    for l in degrees:
        for j in degrees:
            i = total_degree + l - j
            if i < 0 or i > frame_rank:
                continue
            entries = {}
            for mi in itertools.combinations(range(frame_rank), i):
                if rng.random() < 0.5 and density:
                    entries[mi] = random_matrix(rng, bundle.rank(j),
                                                bundle.rank(l), variables,
                                                max_poly_degree)
            if entries:
                blocks[(i, l, j)] = entries
    return TotalForm(variables, frame_rank, bundle, bundle, total_degree,
                     blocks)


def random_linear_connection(rng, algebroid, rank, max_poly_degree=1):
    gamma = [random_matrix(rng, rank, rank, algebroid.variables,
                           max_poly_degree)
             for _ in range(algebroid.rank)]
    return LinearConnection.from_christoffel(algebroid, gamma)


def random_cuth(rng, algebroid, bundle, max_poly_degree=1):
    """A random connection up to homotopy: grading connections plus a D part."""
    nablas = {z: random_linear_connection(rng, algebroid, r, max_poly_degree)
              for z, r in bundle.summands}
    d_part = random_total_form(rng, algebroid.variables, algebroid.rank,
                               bundle, 1, max_poly_degree)
    return ConnectionUpToHomotopy(algebroid, bundle, nablas, d_part)

