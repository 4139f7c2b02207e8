"""Characteristic forms and classes, exact cohomology, transgression, Massey.

Characters are graded traces of curvature powers; classes over a point base
are decided by exact rank computations on the frame cochain complex, and
over a chart base by a bounded linear solve for polynomial primitives
(status "undecided" when the bound is exhausted).

Every trace of a curvature power in the engine comes from one loop,
`power_traces`: the characters gtr(R^i), the power traces behind the
invariant polynomials and Pontryagin classes, and the vanishing reports of
`constructions`.  It builds the full powers only up to R^ceil(top/2) and
gets each higher trace as one trace-only product of two of them, so the
4-form R^2 is the only full power behind f_4 and p2.  The tests keep the
full product R^i as its oracle.

Scaled classes keep the normalization symbolic: the representative is the
unnormalized invariant polynomial of the curvature, the rational prefactor
(-1)^i comes from the (imaginary unit / 2 pi)^(2i) rescaling, and the
transcendental part stays a formal (2 pi)^(-2i) exponent so that all stored
data remains rational.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .connections import cuth_difference
from .errors import InternalCheckError, MismatchError, NotClosedError
from .forms import _LINE, Form, _combine, _indices, _mask, _width, gtr, tr
from .linalg import integer_solution, nullspace, pivot_columns, solve, transpose
from .ring import _total_degree

# ----------------------------------------------------------------------
# characters


@dataclass
class CharacterForm:
    """gtr(R^i): a scalar form of degree 2i, closed when d_A^2 = 0 holds."""

    index: int
    form: Form
    closed: bool


def power_traces(curvature, top, graded, first=1):
    """tr(R^j), or gtr(R^j) when `graded`, for j = first..top.

    The one loop that multiplies a curvature by itself, by halves: it
    builds the full powers R^2..R^h, h = ceil(top / 2), that is h - 1
    wedges, and traces each of them; a higher power's trace is the one
    product `TotalForm.wedge_trace` of R^(j - j // 2) and R^(j // 2), which
    forms only the diagonal entries of the diagonal blocks of R^j.
    """
    if first < 1:
        raise MismatchError("curvature power traces start at the first power")
    trace = gtr if graded else tr
    powers = [None, curvature]   # powers[i] is R^i
    for _ in range(2, (top + 1) // 2 + 1):
        powers.append(powers[-1].wedge(curvature))
    return [trace(powers[j]) if j < len(powers)
            else powers[j - j // 2].wedge_trace(powers[j // 2], graded)
            for j in range(first, top + 1)]


def sigma_character(conn, index):
    """The degree-2i character gtr(R^i) of a connection (up to homotopy).

    Closedness is a theorem once d_A^2 = 0 holds, so a character that is not
    closed comes back with closed=False over an algebroid that fails
    `d_squared_check`, and raises InternalCheckError over one that passes it.
    """
    form = power_traces(conn.curvature(), index, True, first=index)[0]
    algebroid = conn.algebroid
    term = nonclosed_term(algebroid, form)
    if term is not None and algebroid.d_squared_check()[0]:
        raise InternalCheckError(
            f"character gtr(R^{index}) is not closed although d_A^2 = 0 holds: "
            + _where(term))
    return CharacterForm(index, form, term is None)


def nonclosed_term(algebroid, form):
    """None for a closed form, else the first nonzero term of d_A(form).

    The term is {"index": multi-index, "fiber": fiber index, "value": its
    coefficient}, the first in the sorted order of `Form.to_json`.
    """
    image = algebroid.d(form)
    if image.is_zero():
        return None
    mi, fiber = min(image.coeffs)
    return {"index": list(mi), "fiber": fiber,
            "value": str(image.coeffs[(mi, fiber)])}


def _where(term):
    return (f"d_A of it is {term['value']} at multi-index "
            f"{tuple(term['index'])}, fiber {term['fiber']}")


def _require_closed(algebroid, form, message):
    """Raise NotClosedError(message) naming where d_A(form) is nonzero."""
    term = nonclosed_term(algebroid, form)
    if term is not None:
        raise NotClosedError(f"{message}: {_where(term)}")


# ----------------------------------------------------------------------
# invariant polynomials and scaled classes


def invariant_polys(curvature, up_to):
    """Elementary invariant forms f_0..f_up_to of an ungraded curvature.

    Defined by det(lambda I + X) = sum_i f_i(X) lambda^(k-i) and computed
    through Newton's identities from the power traces; all arithmetic is
    exact, so f_i for i beyond the fiber rank vanishes identically.
    """
    if len(curvature.src.summands) != 1 or curvature.src != curvature.dst:
        raise MismatchError("invariant polynomials need an ungraded End-valued form")
    variables = curvature.variables
    frame_rank = curvature.frame_rank
    ones = Form._from_terms(variables, frame_rank, 0, 1, {(0, 0): 1})   # 1 over 1
    out = [ones]
    traces = power_traces(curvature, up_to, False)
    for i in range(1, up_to + 1):
        acc = Form.zero(variables, frame_rank, 2 * i)
        for j in range(1, i + 1):
            term = out[i - j].wedge(traces[j - 1])
            if j % 2 == 0:
                term = -term
            acc = acc + term
        out.append(acc.scale(Fraction(1, i)))
    return out


def invariant_poly_f(curvature, index):
    return invariant_polys(curvature, index)[index]


@dataclass
class ScaledClass:
    """A Pontryagin class with its normalization kept symbolic.

    The honest representative is prefactor * (2 pi)^(two_pi_exponent) times
    `representative`; two classes agree iff the prefactors match and the
    representatives are cohomologous.
    """

    index: int
    representative: Form
    prefactor: Fraction
    two_pi_exponent: int


def pontryagin_class(nabla, index):
    """p^i of an ordinary connection: [f_(2i)] with the (-1)^i (2 pi)^(-2i) scale."""
    curvature = nabla.curvature()
    rep = invariant_poly_f(curvature, 2 * index)
    return ScaledClass(index, rep, Fraction(-1) ** index, -2 * index)


# ----------------------------------------------------------------------
# cohomology over a point base


_ONE = Fraction(1)   # a unit cochain's entry, as `nullspace` builds it


class CohomologyBasis:
    """Exact Chevalley-Eilenberg cohomology of a point-base algebroid.

    Stores, per degree, the coboundary as sparse columns, chosen
    representative cocycles, and enough data to decompose any closed form
    into class coefficients plus an explicit primitive.  `_masks[k]` lists
    the bitmasks of the multi-indices `bases[k]`, the keys of stored forms.
    `d_cols[k]` holds the image of each basis cochain of `bases[k]` as a
    {index in bases[k + 1]: numerator} dict, the integers of
    `Algebroid._d_column` over the algebroid's `_d_den`, so no Fraction is
    built for d; where d_A vanishes no column is read at all.  Cochains and
    representatives are sparse vectors {index in bases[k]: value} of
    Fractions, read off a Form's terms and stored as its integer numerators
    over the lcm of their denominators (`vector_to_form`, through
    `Form._from_terms`), with no Poly in between.

    Scaling the columns by `_d_den` changes no kernel, no pivot and no
    solution but the primitive's, which `decompose` scales back: it stores
    the boundary unknowns of `integer_solution`, numerator / head, as their
    numerators times `_d_den` over lcm(heads), and the class coefficients
    are the Fractions numerator / head.  Two eliminations are skipped where
    they are trivial, each exactly: a d_k with no nonzero column has the
    unit cochains as its `nullspace` basis, the free-column vectors of a
    system with no pivot; and with no nonzero boundary column every cocycle
    is a pivot of [boundaries | cocycles], since the `nullspace` vectors are
    independent (each is 1 at its own free column and 0 at the others).  A
    degree whose d_k has no nonzero column (every degree of an abelian
    algebra, degree 0, the top degree of a unimodular one, and degree 2 of
    heisenberg3, where `pivot_columns` picks among the unit cochains) has
    unit cochains as its representatives and stores each e^J directly as 1
    over 1, with no builder.  The elimination of `decompose` is `_eliminate`,
    so `class_vector` reads the class coefficients and builds no primitive.
    """

    def __init__(self, algebroid):
        if algebroid.chart.dim != 0:
            raise MismatchError("exact cohomology requires a point base; "
                                "use the bounded exactness solver over charts")
        self.algebroid = algebroid
        r = algebroid.rank
        self.bases = {k: list(itertools.combinations(range(r), k))
                      for k in range(r + 2)}
        self._masks = {k: [_mask(mi) for mi in basis] for k, basis in self.bases.items()}
        self._index = {k: {mask: i for i, mask in enumerate(masks)}
                       for k, masks in self._masks.items()}
        if algebroid.d_vanishes:
            self.d_cols = {k: [{} for _ in self._masks[k]] for k in range(r + 1)}
        else:
            self.d_cols = {k: [{self._index[k + 1][out]: n
                                for (out, _), n in algebroid._d_column((mask, 0)).items()}
                               for mask in self._masks[k]]
                           for k in range(r + 1)}
        self.rep_vectors = {}
        self.representatives = {}
        for k in range(r + 1):
            self._pick_representatives(k)

    def form_to_vector(self, form):
        index = self._index[form.degree]
        return {index[mask]: val for (mask, _), val in form._terms().items()}

    def vector_to_form(self, k, vec):
        """The Form of a cochain {index in bases[k]: value}, its values'
        numerators over the lcm of their denominators."""
        masks, D = self._masks[k], lcm(*[val.denominator for val in vec.values()])
        return Form._from_terms(self.algebroid.variables, self.algebroid.rank, k, D,
                                {(masks[i], 0): val.numerator * (D // val.denominator)
                                 for i, val in vec.items() if val})

    def _pick_representatives(self, k):
        n, d_k = len(self.bases[k]), self.d_cols[k]
        boundaries = self.d_cols[k - 1] if k > 0 else []
        d_zero = not any(d_k)
        if d_zero:
            cocycles = [{i: _ONE} for i in range(n)]
        else:
            cocycles = nullspace(transpose(d_k, len(self.bases[k + 1])), n)
        if any(boundaries):
            columns = boundaries + cocycles
            pivots = pivot_columns(transpose(columns, n), len(columns))
            reps = [columns[p] for p in pivots if p >= len(boundaries)]
        else:
            reps = cocycles
        self.rep_vectors[k] = reps
        if d_zero:
            # every representative is a unit cochain e^J, stored as 1 over 1
            variables, r, masks = self.algebroid.variables, self.algebroid.rank, self._masks[k]
            self.representatives[k] = [
                Form._unchecked(variables, r, _LINE, _LINE, k, (1, {(k, 0, 0): {masks[i]: [1]}}))
                for v in reps for i in v]
        else:
            self.representatives[k] = [self.vector_to_form(k, v) for v in reps]

    def dim(self, k):
        return len(self.rep_vectors.get(k, []))

    def _eliminate(self, form):
        """(class coefficients, boundary triples) of a closed form: the
        coefficients are the Fractions numerator / head of the
        representative unknowns of `integer_solution`, 0 where none is
        solved, and the triples (index in bases[k - 1], numerator, head)
        those of the boundary unknowns; both empty above the rank.  Raises
        NotClosedError on a non-cocycle."""
        _require_closed(self.algebroid, form, "cannot decompose a non-closed form")
        k = form.degree
        if k > self.algebroid.rank:
            return [], []
        n = len(self.rep_vectors[k])
        columns = self.rep_vectors[k] + (self.d_cols[k - 1] if k > 0 else [])
        rows = transpose(columns, len(self.bases[k]))
        solution = integer_solution(rows, self.form_to_vector(form), len(columns))
        if solution is None:
            raise InternalCheckError("closed form failed to decompose")
        coeffs, boundary = [Fraction(0)] * n, []
        for c, numerator, head in solution:
            if c < n:
                coeffs[c] = Fraction(numerator, head)
            else:
                boundary.append((c - n, numerator, head))
        return coeffs, boundary

    def decompose(self, form):
        """Write a closed form as sum(c_i rep_i) + d(primitive).

        Returns (coefficients, primitive Form).  Raises NotClosedError on a
        non-cocycle.
        """
        coeffs, boundary = self._eliminate(form)
        k, variables, r = form.degree, self.algebroid.variables, self.algebroid.rank
        if not boundary:
            return coeffs, Form.zero(variables, r, max(k - 1, 0))
        # the boundary columns are `_d_den` times d, so the primitive is
        # `_d_den` times their part of the solution, stored over lcm(heads)
        den, masks = self.algebroid._d_den, self._masks[k - 1]
        L = lcm(*[head for _, _, head in boundary])
        return coeffs, Form._from_terms(variables, r, k - 1, L,
                                        {(masks[i], 0): m * den * (L // head)
                                         for i, m, head in boundary})

    def class_vector(self, form):
        """The class coefficients of `decompose`, with no primitive built."""
        return self._eliminate(form)[0]


def ce_cohomology(algebroid):
    return CohomologyBasis(algebroid)


# ----------------------------------------------------------------------
# exactness


@dataclass
class ExactnessResult:
    status: str  # "exact" | "not_exact" | "undecided"
    primitive: Form | None

    @property
    def is_exact(self):
        return self.status == "exact"


def default_bound(algebroid, forms=()):
    """2 * (max total degree over the input data) + 2.

    The algebroid's degree is kept on it (`Algebroid._degree`); a form's
    are the field sums of its packed monomials, so no Poly is built.
    """
    degrees = [algebroid._degree]
    for form in forms:
        if form is not None and form.variables:
            degrees.extend(_total_degree(m) for entries in form._kernel[1].values()
                           for rows in entries.values() for row in rows
                           for _, entry in row for m, _ in entry)
    return 2 * max(degrees) + 2


def _exactness_system(algebroid, form, bound):
    """The ansatz d(sum_u c_u u) = form, cut down to what the form reaches.

    The candidate unknowns u are the (k-1)-forms x^exponent e^J (J a frame
    multi-index, exponent of total degree <= bound), keyed (bitmask of J,
    packed monomial) as stored forms are.  Starting from the rows the form
    touches, the closure alternates `Algebroid.d_sparse_sources` (the
    columns that can reach a row) and `Algebroid._d_column` (the rows a
    column reaches) until nothing new appears, so it is a union of
    connected components of the full ansatz system.  The full system is
    block diagonal over its components, and a component with a zero
    right-hand side solves to zero when the free variables are zero, so
    solving the closure gives the full ansatz's solution.  The unknowns are
    the closure's columns with a nonzero image, sorted by (J, packed
    monomial), which is the global (J, exponent) order since packed order
    is exponent-tuple order; it fixes the free-variables-zero solution.
    Returns (unknowns, rows, rhs): `rows` are {unknown: value} dicts, one
    per key that occurs, and `rhs` is a {row: value} dict, all integers.
    The form is read off its stored form (D, view) as integer numerators
    over D, and each column's image is its integer numerators over the
    algebroid's common denominator `_d_den` (`_d_column`), so the system is
    the ansatz scaled by `_d_den` * D with the unknowns scaled by D: the
    rows are the images' numerators and the right-hand side is each
    numerator of the form times `_d_den`.  Its solution is D times the
    ansatz's, and `is_exact` divides it by D.
    """
    den = algebroid._d_den
    targets = {key: n * den for key, n in form._numerators().items()}
    images = {}
    seen = set(targets)
    frontier = list(targets)
    while frontier:
        reached = []
        for key in frontier:
            for col in algebroid.d_sparse_sources(key, bound):
                if col in images:
                    continue
                image = images[col] = algebroid._d_column(col)
                for row_key in image:
                    if row_key not in seen:
                        seen.add(row_key)
                        reached.append(row_key)
        frontier = reached
    unknowns = sorted((col for col, image in images.items() if image),
                      key=lambda col: (_indices(col[0]), col[1]))
    rows = []
    row_index = {}

    def row(key):
        if key not in row_index:
            row_index[key] = len(rows)
            rows.append({})
        return row_index[key]

    for col, unknown in enumerate(unknowns):
        for key, val in images[unknown].items():
            rows[row(key)][col] = val
    rhs = {row(key): val for key, val in targets.items()}
    return unknowns, rows, rhs


def is_exact(algebroid, form, bound=None):
    """Decide exactness of a closed scalar form.

    Over a point base the answer is decisive.  Over a chart base the solver
    looks for a primitive with polynomial coefficients of total degree at
    most `bound`; failure within the bound reports "undecided" since a
    higher-degree primitive is not ruled out.  The linear system is only the
    closure of the form's terms in the ansatz (see `_exactness_system`), and
    its solution is the free-variables-zero solution of the full ansatz.
    That system is in integers, its unknowns scaled by the form's stored
    denominator D, so the primitive's coefficients are its solution over D:
    `integer_solution` gives each solved unknown as numerator / head, and
    the primitive is stored as their numerators over lcm(heads) * D, with
    no Fraction built per unknown.
    The form's closedness is checked first, and d_A of the primitive is
    checked against the form before it is returned.
    """
    if form.fiber_dim != 1:
        raise MismatchError("exactness applies to scalar forms")
    _require_closed(algebroid, form, "is_exact requires a closed form")
    point = algebroid.chart.dim == 0
    k = form.degree
    if k == 0:
        if form.is_zero():
            return ExactnessResult("exact", Form.zero(algebroid.variables,
                                                      algebroid.rank, 0))
        return ExactnessResult("not_exact", None)
    if point:
        bound = 0
    elif bound is None:
        bound = default_bound(algebroid, [form])
    unknowns, rows, rhs = _exactness_system(algebroid, form, bound)
    solution = integer_solution(rows, rhs, len(unknowns))
    if solution is None:
        return ExactnessResult("not_exact" if point else "undecided", None)
    # unknown c is numerator / head over the form's D: every one over
    # lcm(heads) * D, reduced once
    L = lcm(*[head for _, _, head in solution])
    primitive = Form._from_terms(algebroid.variables, algebroid.rank, k - 1,
                                 L * form._kernel[0],
                                 {unknowns[c]: n * (L // head) for c, n, head in solution})
    if algebroid.d(primitive) != form:
        raise InternalCheckError("exactness solver returned a bad primitive")
    return ExactnessResult("exact", primitive)


def class_status(algebroid, form, bound=None):
    """"zero" / "nonzero" / "undecided" for the class of a closed form."""
    result = is_exact(algebroid, form, bound=bound)
    if result.status == "exact":
        return "zero", result.primitive
    if result.status == "not_exact":
        return "nonzero", None
    return "undecided", None


# ----------------------------------------------------------------------
# transgression


def transgression(old, new, index):
    """A primitive T with d_A T = gtr(R_new^index) - gtr(R_old^index).

    Interpolates cal_D_t = cal_D + t hat(D) with D = cal_D' - cal_D, expands
    R_t = R + t (d_End D) + t^2 (D wedge D) as a polynomial in t with total
    form coefficients, and integrates index * gtr(R_t^(index-1) D) exactly:
    T = sum_j index / (j + 1) gtr(P_j D), P_j the coefficient of t^j.

    Index 1 is gtr(D).  Index 2 is the Chern-Simons form
    2 gtr(R D) + gtr(d_End D D) + 2/3 gtr(D^2 D), with d_End D = d_A D +
    [Omega, D] = d_A D + Omega D + D Omega since D has total degree 1.  The
    graded trace is cyclic, gtr(X Y) = (-1)^(|X| |Y|) gtr(Y X) (the Koszul
    factor of `_product` makes it so), which gives gtr(D Omega D) =
    gtr(Omega D^2), and so

        T_2 = 2 gtr(R D) + gtr(d_A D D) + 2 gtr(Omega D^2) + 2/3 gtr(D^2 D):

    the one product D^2, one `Algebroid.d_total` and four trace-only
    products, with no `d_end`.  From index 3 up d_End D enters the powers of
    R_t more than once, so the power is expanded as it stands, starting at
    R_t, and each of its coefficients is one trace-only product with D.

    T has degree 2 index - 1, so above the frame rank it is the zero form,
    returned right after the bundle and algebroid checks, with no
    curvature, product or trace.
    """
    if old.bundle != new.bundle or old.algebroid != new.algebroid:
        raise MismatchError("transgression needs two cuths on the same bundle")
    total = Form.zero(old.variables, old.algebroid.rank, 2 * index - 1)
    if 2 * index - 1 > old.algebroid.rank:
        return total
    curvature = old.curvature()
    diff = cuth_difference(new, old)
    if index == 1:
        pieces = [(1, 1, gtr(diff))]
    elif index == 2:
        square = diff.wedge(diff)
        pieces = [(2, 1, curvature.wedge_trace(diff, graded=True)),
                  (1, 1, old.algebroid.d_total(diff).wedge_trace(diff, graded=True)),
                  (2, 1, old.omega().wedge_trace(square, graded=True)),
                  (2, 3, square.wedge_trace(diff, graded=True))]
    else:
        r_t = [curvature, old.d_end(diff), diff.wedge(diff)]
        power = r_t
        for _ in range(index - 2):
            out = [None] * (len(power) + 2)
            for i, x in enumerate(power):
                for j, y in enumerate(r_t):
                    term = x.wedge(y)
                    out[i + j] = term if out[i + j] is None else out[i + j] + term
            power = out
        pieces = [(index, j + 1, p.wedge_trace(diff, graded=True))
                  for j, p in enumerate(power)]
    # sum of num / den * piece, in one pass over the stored forms
    return total._same_shape(_combine(
        [(num, (p._kernel[0] * den, p._kernel[1])) for num, den, p in pieces if p._kernel[1]],
        total.src, _width(old.variables)))


# ----------------------------------------------------------------------
# Massey triple products


@dataclass
class MasseyReport:
    defined: bool
    reason: str
    representative: Form | None
    primitive_ab: Form | None
    primitive_bc: Form | None
    class_vector: list | None
    indeterminacy_basis: list | None
    nonzero_mod_indeterminacy: bool | None


def massey_triple(algebroid, alpha, beta, gamma, bound=None):
    """<[alpha], [beta], [gamma]> with its indeterminacy over a point base.

    Needs alpha^beta and (-1)^|alpha| beta^gamma exact; the representative
    is w ^ gamma - alpha ^ eta for chosen primitives w, eta.  Over a point
    the class is decomposed against the cohomology basis and compared with
    the ideal ([alpha], [gamma]) in the target degree; over a chart base
    only the representative and primitives are reported.
    """
    for name, form in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        _require_closed(algebroid, form, f"{name} is not closed")
    ab = alpha.wedge(beta)
    res_ab = is_exact(algebroid, ab, bound=bound)
    if not res_ab.is_exact:
        return MasseyReport(False, f"alpha^beta is not exact ({res_ab.status})",
                            None, None, None, None, None, None)
    bc = beta.wedge(gamma)
    if alpha.degree % 2:
        bc = -bc
    res_bc = is_exact(algebroid, bc, bound=bound)
    if not res_bc.is_exact:
        return MasseyReport(False,
                            f"(-1)^|alpha| beta^gamma is not exact ({res_bc.status})",
                            None, None, None, None, None, None)
    w, eta = res_ab.primitive, res_bc.primitive
    representative = w.wedge(gamma) - alpha.wedge(eta)
    if not algebroid.d(representative).is_zero():
        raise InternalCheckError("massey representative failed its closedness check")
    if algebroid.chart.dim != 0:
        return MasseyReport(True, "chart base: representative only",
                            representative, w, eta, None, None, None)
    cohomology = CohomologyBasis(algebroid)
    target = representative.degree
    ideal_vectors = []
    for h in cohomology.representatives.get(target - alpha.degree, []):
        ideal_vectors.append(cohomology.class_vector(alpha.wedge(h)))
    for h in cohomology.representatives.get(target - gamma.degree, []):
        ideal_vectors.append(cohomology.class_vector(h.wedge(gamma)))
    # the ideal's class vectors as sparse columns over H^target
    columns = [{i: c for i, c in enumerate(vec) if c} for vec in ideal_vectors]
    rows = transpose(columns, cohomology.dim(target))
    basis = [ideal_vectors[p] for p in pivot_columns(rows, len(ideal_vectors))]
    cls = cohomology.class_vector(representative)
    in_ideal = solve(rows, dict(enumerate(cls)), len(ideal_vectors)) is not None
    return MasseyReport(True, "ok", representative, w, eta, cls, basis,
                        not in_ideal)
