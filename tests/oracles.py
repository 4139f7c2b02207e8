"""Oracles and fixtures that several test modules share.

The package has no use for them: each is either an independent second
computation that a test compares the engine with, or input data for tests.
"""

import itertools
import json
from fractions import Fraction
from math import lcm
from types import SimpleNamespace

from gradweil.algebroid import Algebroid, Chart, tangent_algebroid
from gradweil.chernweil import ExactnessResult, _exactness_system, default_bound
from gradweil.errors import InternalCheckError, MismatchError, NotClosedError
from gradweil.forms import (_LINE, Form, GradedBundle, TotalForm, _canonical, _from_polys,
                            _indices, _mask, _width, gtr, mat_is_zero)
from gradweil.linalg import nullspace, pivot_columns, solve, transpose
from gradweil.ring import Poly, _pack, _unpack


def flat_matmul(a, b, rows, inner, cols):
    """a @ b for flat row-major integer matrices a (rows x inner) and b
    (inner x cols), by a plain triple loop."""
    out = [0] * (rows * cols)
    for r in range(rows):
        for c in range(cols):
            for k in range(inner):
                out[r * cols + c] += a[r * inner + k] * b[k * cols + c]
    return out


def block_pass(tgt, koszul, left, right, shape, trace, triangle):
    """The pair loop of one point-base block pair, the reference of
    `forms._block_kernel`: a new {merged mask: accumulator} with, added to
    the accumulators of `tgt`, koszul * merge_sign * (a @ b) of every
    disjoint pair of a left {mask: flat matrix} and a right [(mask, parity
    word, flat matrix)], the word unread; with `trace` an accumulator is a
    one-element list and the product's diagonal sum is added, with
    `triangle` the left mask at position p meets only right[p + 1:]."""
    rows, inner, cols = shape
    out = {mask: list(acc) for mask, acc in tgt.items()}
    for p, (mask1, a) in enumerate(left.items()):
        for mask2, _, b in (right[p + 1:] if triangle else right):
            sign = koszul * merge_sign(mask1, mask2)
            if not sign:
                continue
            product, merged = flat_matmul(a, b, rows, inner, cols), mask1 | mask2
            if trace:
                product = [sum(product[r * cols + r] for r in range(rows))]
            out[merged] = [n + sign * m for n, m in
                           zip(out.get(merged, [0] * len(product)), product)]
    return out


def chart_accumulate(acc, sign, left, right, cols, width):
    """acc += sign * (left @ right) for sparse chart rows `left` and `right`
    into a flat accumulator: the term x^e1 * x^e2 of cell (r, c) adds into
    the key ((r * cols + c) << width) + e1 + e2."""
    get = acc.get
    for r, row in enumerate(left):
        base = r * cols
        for k, lterms in row:
            for c, rterms in right[k]:
                cell = (base + c) << width
                for e1, n1 in lterms:
                    n1 *= sign
                    e1 += cell
                    for e2, n2 in rterms:
                        e = e1 + e2
                        acc[e] = get(e, 0) + n1 * n2


def chart_trace(cell, sign, left, right):
    """cell += sign * tr(left @ right) for sparse chart rows, forming only
    the diagonal entries; `cell` is {packed monomial: numerator}."""
    get = cell.get
    for r, row in enumerate(left):
        for k, lterms in row:
            for c, rterms in right[k]:
                if c == r:
                    for e1, n1 in lterms:
                        n1 *= sign
                        for e2, n2 in rterms:
                            e = e1 + e2
                            cell[e] = get(e, 0) + n1 * n2


def chart_block_pass(tgt, koszul, left, right, cols, width, trace, triangle):
    """The pair loop of one chart block pair, the reference of
    `forms._block_kernel` on a chart: a new {merged mask: accumulator} with,
    added to copies of the flat dict accumulators of `tgt`, koszul *
    merge_sign * (a @ b) of every disjoint pair of a left {mask: sparse
    rows} and a right [(mask, parity word, sparse rows)], the word unread,
    by `chart_accumulate`, or by `chart_trace` with `trace`; every disjoint
    pair's merged mask gets an accumulator, an empty one if nothing adds."""
    out = {mask: dict(acc) for mask, acc in tgt.items()}
    for p, (mask1, a) in enumerate(left.items()):
        for mask2, _, b in (right[p + 1:] if triangle else right):
            sign = koszul * merge_sign(mask1, mask2)
            if not sign:
                continue
            acc = out.setdefault(mask1 | mask2, {})
            if trace:
                chart_trace(acc, sign, a, b)
            else:
                chart_accumulate(acc, sign, a, b, cols, width)
    return out


def exponent_terms(poly):
    """The terms of a Poly keyed by exponent tuples instead of packed monomials."""
    return {_unpack(m, len(poly.variables)): c for m, c in poly.terms.items()}


def total_degree(poly):
    """The highest total degree of a term of a Poly; 0 for the zero Poly."""
    return max(map(sum, exponent_terms(poly)), default=0)


def sort_with_sign(indices):
    """Sort an index tuple, returning (sign, sorted) or (0, None) on repeats."""
    indices = tuple(indices)
    if len(set(indices)) != len(indices):
        return 0, None
    inversions = sum(a > b for a, b in itertools.combinations(indices, 2))
    return (-1 if inversions % 2 else 1), tuple(sorted(indices))


def merge_sign(left, right):
    """The sign of the permutation that sorts the indices of `left` followed
    by those of `right`, as bitmasks, or 0 when they overlap: each bit `low`
    of `right` passes the bits of `left` above it, left & -low.  A
    per-bit count, the reference of the kernel's parity-word sign."""
    if left & right:
        return 0
    inversions = 0
    while right:
        low = right & -right
        inversions += (left & -low).bit_count()
        right ^= low
    return -1 if inversions & 1 else 1


# --- the transpose of d_A, on exponent tuples -------------------------------


def d_sparse_sources_reference(algebroid, key, bound):
    """`Algebroid.d_sparse_sources` on exponent tuples, read off the anchor
    and structure Polys: the row key's packed monomial is unpacked, each
    source is an exponent tuple checked field by field and packed again.
    The columns (bitmask, packed monomial) whose sparse d_A image can hold
    the row (bitmask of M, packed b), read off the anchor and coframe terms
    backwards."""
    mask, mono = key
    expo, mi, out = _unpack(mono, len(algebroid.variables)), _indices(mask), set()
    for i in mi:
        for m, poly in enumerate(algebroid.anchor[i]):
            for beta in exponent_terms(poly):
                # rho(e_i) = a x^beta d/dx_m lowers x_m: the source is b - beta + unit(m)
                source = tuple(e - s + (v == m) for v, (e, s) in enumerate(zip(expo, beta)))
                if source[m] >= 1 and min(source) >= 0 and sum(source) <= bound:
                    out.add((mask ^ (1 << i), _pack(source)))
    for p, q in itertools.combinations(mi, 2):
        rest = mask ^ (1 << p) ^ (1 << q)
        for j in range(algebroid.rank):
            if rest >> j & 1:
                continue
            for beta in exponent_terms(algebroid.structure[p][q][j]):
                source = tuple(e - s for e, s in zip(expo, beta))
                if min(source, default=0) >= 0 and sum(source) <= bound:
                    out.add((rest | (1 << j), _pack(source)))
    return out


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


def covariant(nabla, i, components):
    """nabla_{e_i} of a section given by its coefficient vector, on Polys:
    rho_i of each component plus sum_alpha s_alpha nabla_{e_i} f_alpha, where
    gamma[alpha][beta], gamma the Christoffel matrix of frame element i, is
    the e_beta coefficient of nabla_{e_i} f_alpha."""
    if len(components) != nabla.rank:
        raise MismatchError("section has the wrong number of components")
    gamma = nabla.christoffel[i]
    out = []
    for beta in range(nabla.rank):
        acc = nabla.algebroid.anchor_apply(i, components[beta])
        for alpha in range(nabla.rank):
            acc = acc + gamma[alpha][beta] * components[alpha]
        out.append(acc)
    return out


def transposed(matrices):
    """Each matrix of a list transposed: a connection's Christoffel matrices
    give its G_i, the matrices with the target index as row that act on
    column vectors (G_i[beta][alpha] = christoffel[i][alpha][beta]), and back."""
    return [tuple(zip(*m)) for m in matrices]


def from_mats(variables, frame_rank, src, dst, total_degree, blocks):
    """A TotalForm on Poly matrices {(i, l, j): {multi-index: matrix}}, with
    no zero matrix and no empty block, stored by `_from_polys` with nothing
    checked: the Poly-matrix build, the reference of the connection form
    that `ConnectionUpToHomotopy.connection_form` writes in one pass."""
    return TotalForm._unchecked(tuple(variables), frame_rank, src, dst, total_degree,
                                _from_polys(blocks, _width(variables)))


def connection_form_reference(conn):
    """Gamma of a connection up to homotopy by Poly matrices: each summand's
    Christoffel matrices transposed as Poly tuples, zero ones left out,
    stored through `from_mats`."""
    blocks = {}
    for z in conn.bundle.degrees():
        entries = {(i,): m for i, m in enumerate(transposed(conn.nablas[z].christoffel))
                   if not mat_is_zero(m)}
        if entries:
            blocks[(1, z, z)] = entries
    return from_mats(conn.variables, conn.algebroid.rank, conn.bundle, conn.bundle, 1, blocks)


def omega_reference(conn):
    """Omega = Gamma + D by Poly matrices: the blocks of
    `connection_form_reference` and then those of D, a matrix both have
    summed entry by entry, zero matrices and empty blocks dropped, stored
    through `from_mats`."""
    blocks: dict = {}
    for part in (connection_form_reference(conn), conn.D):
        for key, entries in part.blocks.items():
            out = blocks.setdefault(key, {})
            for mi, mat in entries.items():
                have = out.get(mi)
                out[mi] = mat if have is None else tuple(
                    tuple(p + q for p, q in zip(r1, r2)) for r1, r2 in zip(have, mat))
    blocks = {key: kept for key, entries in blocks.items()
              if (kept := {mi: m for mi, m in entries.items() if not mat_is_zero(m)})}
    return from_mats(conn.variables, conn.algebroid.rank, conn.bundle, conn.bundle, 1, blocks)


def covariant_section(nabla, direction, components):
    """nabla_u for a section direction u given by frame components."""
    out = [Poly.zero(nabla.variables) for _ in range(nabla.rank)]
    for i, u_i in enumerate(direction):
        if u_i.is_zero():
            continue
        step = covariant(nabla, i, components)
        out = [acc + u_i * v for acc, v in zip(out, step)]
    return out


def interior(x, form):
    """i_x of a form, x a frame vector of numbers: i_x e^J = sum_t (-1)^t
    x_(j_t) e^(J without j_t) for J = (j_0 < j_1 < ...)."""
    coeffs = {}
    for (mi, alpha), poly in form.coeffs.items():
        for t, j in enumerate(mi):
            if x[j]:
                key = (mi[:t] + mi[t + 1:], alpha)
                term = poly * (x[j] if t % 2 == 0 else -x[j])
                coeffs[key] = coeffs[key] + term if key in coeffs else term
    return Form(form.variables, form.frame_rank, form.degree - 1, form.fiber_dim, coeffs)


def poly_connection_d(nabla, form):
    """d_nabla w = d_A w + sum_i e^i ^ (G_i w) on Polys, G_i[beta][alpha] =
    gamma[alpha][beta], gamma the Christoffel matrix of frame direction i."""
    algebroid = nabla.algebroid
    out = poly_d(algebroid, form)
    for i, gamma in enumerate(nabla.christoffel):
        moved = {}
        for (mi, alpha), poly in form.coeffs.items():
            for beta in range(nabla.rank):
                key, prod = (mi, beta), gamma[alpha][beta] * poly
                moved[key] = moved[key] + prod if key in moved else prod
        moved = Form(algebroid.variables, algebroid.rank, form.degree, nabla.rank, moved)
        out = poly_add(out, poly_wedge(Form.coframe(algebroid.variables, algebroid.rank, i),
                                       moved))
    return out


def restrict_total_form(total_form, indices):
    """The pullback of a total form along the inclusion of the subframe
    `indices`, by Poly matrices: the multi-indices inside the subframe,
    renumbered 0..len - 1, through the checked constructor.  The reference
    of `ideal_membership(total_form, indices, 1)` as "the restriction is
    zero"."""
    indices = tuple(sorted(indices))
    lookup = {g: i for i, g in enumerate(indices)}
    blocks = {}
    for key, entries in total_form.blocks.items():
        kept = {tuple(lookup[i] for i in mi): mat for mi, mat in entries.items()
                if all(i in lookup for i in mi)}
        if kept:
            blocks[key] = kept
    return TotalForm(total_form.variables, len(indices), total_form.src,
                     total_form.dst, total_form.total_degree, blocks)


def extend_total_form_by_polys(total_form, indices, frame_rank):
    """A total form on the subframe `indices` pushed to a frame of rank
    `frame_rank`, zero off the subframe, by Poly matrices through the
    checked constructor: the reference of `forms.extend_total_form`."""
    indices = tuple(sorted(indices))
    blocks = {key: {tuple(indices[i] for i in mi): mat for mi, mat in entries.items()}
              for key, entries in total_form.blocks.items()}
    return TotalForm(total_form.variables, frame_rank, total_form.src,
                     total_form.dst, total_form.total_degree, blocks)


# --- the Poincare lemma: a primitive on TR^n that shares no code with the solver ---


def radial_primitive(form):
    """h w, the radial homotopy operator of the Poincare lemma (Bott-Tu,
    Differential Forms in Algebraic Topology, section 4), on a scalar
    polynomial p-form w, p >= 1, of TR^n in its coordinate frame (frame
    element i is d/dx_i).  For w = sum_I f_I dx^I,

        h w = sum_I sum_k (-1)^k (int_0^1 t^(p-1) f_I(t x) dt) x_(i_k) dx^(I - i_k),

    k counted from 0 along I, and a monomial c x^a of f_I integrates to
    c x^a / (p + |a|), so the coefficients stay rational and rise one degree.
    Since d h + h d is the identity on forms of degree p >= 1, h w is a
    primitive of a closed w.  Exponents and Fractions only, no form arithmetic.
    """
    p, coeffs = form.degree, {}
    for (mi, _), f in form.coeffs.items():
        for k, i in enumerate(mi):
            terms = coeffs.setdefault((mi[:k] + mi[k + 1:], 0), {})
            for expo, c in exponent_terms(f).items():
                raised = expo[:i] + (expo[i] + 1,) + expo[i + 1:]
                terms[raised] = terms.get(raised, 0) + (-1) ** k * c / (p + sum(expo))
    return Form(form.variables, form.frame_rank, p - 1, 1,
                {key: Poly(form.variables, terms) for key, terms in coeffs.items()})


# --- connections up to homotopy ----------------------------------------------------


def hat(total_form, x):
    """hat(K) on an element x of the total complex of K's source, a
    one-column total form from R[0]: the product K ^ x."""
    return total_form.wedge(x)


def graded_commutator(k1, k2):
    """[K1, K2] = K1 ^ K2 - (-1)^(|K1| |K2|) K2 ^ K1 with total degrees: two
    kernel wedges and their sum, the reference of `d_end`'s fused passes."""
    swapped = k2.wedge(k1)
    if (k1.total_degree * k2.total_degree) % 2:
        return k1.wedge(k2) + swapped
    return k1.wedge(k2) - swapped


def curvature_formula(conn):
    """R = Omega ^ Omega + d_A Omega from public calls: a kernel wedge and
    `Algebroid.d_total`, summed; the unfused reference of `curvature`'s fused
    last pass."""
    omega = conn.omega()
    return omega.wedge(omega) + conn.algebroid.d_total(omega)


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


def transgression_by_sums(old, new, index):
    """The transgression of two connections up to homotopy, index * the
    integral over t of gtr(R_t^(index - 1) D), from public calls: R_t = R +
    t d_End D + t^2 D ^ D expanded by public wedge and `+`, each coefficient
    traced by `gtr` of its full public wedge with D, and the pieces summed
    one `+` and `scale` at a time, zero pieces included."""
    diff = new.omega() - old.omega()
    r_t = [old.curvature(), old.d_end(diff), diff.wedge(diff)]
    power = [TotalForm.identity(old.variables, old.algebroid.rank, old.bundle)]
    for _ in range(index - 1):
        out = [None] * (len(power) + 2)
        for i, x in enumerate(power):
            for j, y in enumerate(r_t):
                out[i + j] = x.wedge(y) if out[i + j] is None else out[i + j] + x.wedge(y)
        power = out
    total = Form.zero(old.variables, old.algebroid.rank, 2 * index - 1)
    for j, p in enumerate(power):
        total = total + gtr(p.wedge(diff)).scale(Fraction(index, j + 1))
    return total


LINE = GradedBundle([(0, 1)])   # R[0], the source of every element


def element(bundle, form, summand):
    """The E_summand-valued form `form` as an element of the total complex of
    `bundle`: its block (t, 0, 0) moved to (t, 0, summand)."""
    t = form.degree
    return TotalForm(form.variables, form.frame_rank, form.src, bundle, t + summand,
                     {(t, 0, summand): form.block(t, 0, 0)})


def basis_element(variables, frame_rank, bundle, summand, alpha):
    """The constant section alpha of the summand of degree `summand`: column
    alpha of the identity's block (0, summand, summand), a one-column form
    of total degree `summand`."""
    block = TotalForm.identity(variables, frame_rank, bundle).block(0, summand, summand)[()]
    return TotalForm(variables, frame_rank, LINE, bundle, summand,
                     {(0, 0, summand): {(): [[row[alpha]] for row in block]}})


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


def fractional_point_presentation():
    """A rank-5 solvable Lie algebra whose structure constants have
    denominators 2, 3, 5, 6 and 7: [e0, e1] = e1/2, [e0, e2] = e2/3,
    [e0, e3] = 5/6 e3, [e0, e4] = 2/7 e4 and [e1, e2] = 3/5 e3, so its
    `_d_den` is 210."""
    brackets = {(0, 1): [0, Fraction(1, 2), 0, 0, 0], (0, 2): [0, 0, Fraction(1, 3), 0, 0],
                (0, 3): [0, 0, 0, Fraction(5, 6), 0], (0, 4): [0, 0, 0, 0, Fraction(2, 7)],
                (1, 2): [0, 0, 0, Fraction(3, 5), 0]}
    return Algebroid.from_brackets(Chart(()), 5, [[] for _ in range(5)], brackets)


def solvable5_module():
    """Flat rank-2 Christoffels over the first-four subframe of solvable5.

    lambda(e1) = diag(1,0), lambda(e2) = E12; flat since [diag(1,0), E12]
    = E12 = lambda([e1,e2]).  Christoffel tables of a `LinearConnection`,
    christoffel[frame][source][target], frames of the restricted subalgebra.
    """
    one = Poly.one(())
    zero = Poly.zero(())
    return [
        [[one, zero], [zero, zero]],   # e1: diag(1,0)
        [[zero, zero], [one, zero]],   # e2: nabla f2 = f1, so E12 on columns
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


# --- a plain Fraction Gauss-Jordan ----------------------------------------------


def dense_rref(matrix):
    """Gauss-Jordan in plain Fractions with the first nonzero row as pivot:
    (RREF, pivots) of a dense matrix, the reference of `linalg`."""
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def dense_solve(matrix, rhs):
    """The free-variables-zero solution, or None if inconsistent."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if nrows == 0:
        return [Fraction(0)] * ncols
    aug = [list(row) + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    reduced, pivots = dense_rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = reduced[i][ncols]
    return x


def dense_nullspace(matrix):
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if ncols == 0:
        return []
    if nrows == 0:
        return [[Fraction(1) if j == i else Fraction(0) for j in range(ncols)]
                for i in range(ncols)]
    reduced, pivots = dense_rref(matrix)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -reduced[i][free]
        basis.append(vec)
    return basis


# --- Chevalley-Eilenberg cohomology in Fractions --------------------------------


def stored(form):
    """A form's stored form (D, view) with the order of its keys, which `==`
    on forms does not see."""
    D, view = form._kernel
    return D, [(key, list(entries.items())) for key, entries in view.items()]


def canonical_form(frame_rank, degree, terms, variables=(), den=1):
    """A scalar Form on nonzero {(bitmask, packed monomial): Fraction} terms
    taken over the integer `den`, stored over `den` times the lcm of their
    denominators and reduced by `_canonical`: the Fraction build, the
    reference of the integer `Form._from_terms`."""
    D, width, entries = lcm(*{q.denominator for q in terms.values()}), _width(variables), {}
    for (mask, mono), q in sorted(terms.items()):
        n = q.numerator * (D // q.denominator)
        if width:
            entries.setdefault(mask, {})[mono] = n
        else:
            entries[mask] = [n]
    return Form._unchecked(tuple(variables), frame_rank, _LINE, _LINE, degree,
                           _canonical(D * den, {(degree, 0, 0): (1, 1, entries)}, width))


def exactness_reference(algebroid, form, bound=None):
    """`chernweil.is_exact` by the Fraction route: the same integer system
    (`_exactness_system`) solved by `solve`, a Fraction per solved unknown,
    and the primitive stored by `canonical_form` over the form's D.  The
    reference of the primitive `is_exact` stores from the integer triples
    of `integer_solution`.  It makes both of `is_exact`'s checks, the
    form's closedness and d_A(primitive) == form."""
    if form.fiber_dim != 1:
        raise MismatchError("exactness applies to scalar forms")
    if not algebroid.d(form).is_zero():
        raise NotClosedError("is_exact requires a closed form")
    point, k = algebroid.chart.dim == 0, form.degree
    if k == 0:
        if form.is_zero():
            return ExactnessResult("exact", Form.zero(algebroid.variables, algebroid.rank, 0))
        return ExactnessResult("not_exact", None)
    if point:
        bound = 0
    elif bound is None:
        bound = default_bound(algebroid, [form])
    unknowns, rows, rhs = _exactness_system(algebroid, form, bound)
    sol = solve(rows, rhs, len(unknowns))
    if sol is None:
        return ExactnessResult("not_exact" if point else "undecided", None)
    primitive = canonical_form(algebroid.rank, k - 1,
                               {key: val for key, val in zip(unknowns, sol) if val},
                               algebroid.variables, form._kernel[0])
    if algebroid.d(primitive) != form:
        raise InternalCheckError("the Fraction route returned a bad primitive")
    return ExactnessResult("exact", primitive)


def random_cocycle(rng, cocycles):
    """A random rational combination of cocycle vectors, as a sparse vector."""
    out = {}
    for vec in cocycles:
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for i, v in vec.items():
            out[i] = out.get(i, 0) + c * v
    return {i: v for i, v in out.items() if v}


def cohomology_reference(algebroid):
    """The cohomology of a point-base algebroid built in Fractions, the
    reference of `CohomologyBasis`: d_cols[k] are the columns of d_k over
    `_d_den` as Fractions, cocycles[k] the `nullspace` basis of d_k, and
    rep_vectors[k] the cocycles that are pivots of [boundaries | cocycles],
    with no degree skipped; representatives are stored through
    `canonical_form`.  `decompose(form)` solves [reps | boundaries] for a
    closed form of degree 1..rank as `CohomologyBasis.decompose` does."""
    r, den = algebroid.rank, algebroid._d_den
    bases = {k: list(itertools.combinations(range(r), k)) for k in range(r + 2)}
    masks = {k: [_mask(mi) for mi in basis] for k, basis in bases.items()}
    index = {k: {mask: i for i, mask in enumerate(ms)} for k, ms in masks.items()}
    d_cols = {k: [{index[k + 1][out]: Fraction(n, den)
                   for (out, _), n in algebroid._d_column((mask, 0)).items()}
                  for mask in masks[k]]
              for k in range(r + 1)}

    def vector_to_form(k, vec):
        return canonical_form(r, k, {(masks[k][i], 0): v for i, v in vec.items() if v})

    cocycles, rep_vectors = {}, {}
    for k in range(r + 1):
        n = len(bases[k])
        cocycles[k] = nullspace(transpose(d_cols[k], len(bases[k + 1])), n)
        boundaries = d_cols[k - 1] if k > 0 else []
        columns = boundaries + cocycles[k]
        pivots = pivot_columns(transpose(columns, n), len(columns))
        rep_vectors[k] = [columns[p] for p in pivots if p >= len(boundaries)]

    def decompose(form):
        k = form.degree
        reps = rep_vectors[k]
        columns = reps + d_cols[k - 1]
        target = {index[k][mask]: v for (mask, _), v in form._terms().items()}
        sol = solve(transpose(columns, len(bases[k])), target, len(columns))
        assert sol is not None, "closed form failed to decompose"
        return sol[:len(reps)], vector_to_form(k - 1, dict(enumerate(sol[len(reps):])))

    return SimpleNamespace(
        bases=bases, d_cols=d_cols, cocycles=cocycles, rep_vectors=rep_vectors,
        representatives={k: [vector_to_form(k, v) for v in reps]
                         for k, reps in rep_vectors.items()},
        decompose=decompose)


# --- the problem boundary: algebroids from bracket data -------------------------


def from_brackets_reference(chart, rank, anchor, brackets):
    """The Algebroid of bracket data {(i, j): coefficient list} built by
    adding every vector into an r x r x r array of zeros and subtracting it
    at the swapped pair, the reference of `Algebroid.from_brackets`, which
    places a vector directly unless both (i, j) and (j, i) are given."""
    if not isinstance(chart, Chart):
        chart = Chart(chart)
    zero = chart.zero()
    structure = [[[zero for _ in range(rank)] for _ in range(rank)]
                 for _ in range(rank)]
    for (i, j), coeffs in brackets.items():
        if i == j:
            raise MismatchError(f"diagonal bracket ({i},{i}) must be omitted")
        if not 0 <= i < rank or not 0 <= j < rank:
            raise MismatchError(f"bracket pair ({i},{j}) out of range")
        vec = [chart.poly(c) for c in coeffs]
        if len(vec) != rank:
            raise MismatchError(f"bracket ({i},{j}) needs {rank} coefficients")
        structure[i][j] = [structure[i][j][k] + vec[k] for k in range(rank)]
        structure[j][i] = [structure[j][i][k] - vec[k] for k in range(rank)]
    return Algebroid(chart, rank, anchor, structure)


def from_json_reference(data):
    """`Algebroid.from_json` with every entry read by the grammar
    (`Poly._parse_terms`, no literal shortcut) and built by
    `from_brackets_reference`."""
    chart = Chart(data["chart"]["vars"])

    def parse(text):
        return Poly._parse_terms(text, chart.variables)

    anchor = [[parse(p) for p in row] for row in data["anchor"]]
    brackets = {}
    for entry in data.get("brackets", []):
        key = (entry["i"], entry["j"])
        if key in brackets or (key[1], key[0]) in brackets:
            raise MismatchError(f"duplicate bracket pair {key}")
        brackets[key] = [parse(c) for c in entry["coeffs"]]
    return from_brackets_reference(chart, data["rank"], anchor, brackets)


def corpus_algebroids(corpus):
    """{file stem/key: algebroid JSON} of every algebroid the problem files
    of the directory `corpus` carry, goldens left out."""
    out = {}
    for path in sorted(corpus.glob("*.json")):
        if path.name.endswith(".golden.json"):
            continue
        data = json.loads(path.read_text())
        for key in ("algebroid", "source_algebroid"):
            if key in data:
                out[f"{path.stem}/{key}"] = data[key]
    return out
