"""Characteristic forms and classes, exact cohomology, transgression, Massey.

Characters are graded traces of curvature powers; classes over a point base
are decided by exact rank computations on the frame cochain complex, and
over a chart base by a bounded linear solve for polynomial primitives
(status "undecided" when the bound is exhausted).

Every trace of a curvature power in the engine comes from one loop,
`power_traces`: the characters gtr(R^i), the power traces behind the
invariant polynomials and Pontryagin classes, and the vanishing reports of
`constructions`.  The tests keep the full product R^i as its oracle.

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

from .connections import ConnectionUpToHomotopy, cuth_difference
from .errors import InternalCheckError, MismatchError, NotClosedError
from .forms import Form, gtr, tr
from .linalg import nullspace, rref, solve, transpose
from .ring import Poly

_ONE = Fraction(1)


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

    The one loop that multiplies a curvature by itself: top - 2 full wedges
    up to R^(top-1), and a last product `TotalForm.wedge_trace` that forms
    only the diagonal entries of the diagonal blocks of R^top.
    """
    if first < 1:
        raise MismatchError("curvature power traces start at the first power")
    trace = gtr if graded else tr
    traces = []
    power = curvature
    for j in range(1, top):
        if j > 1:
            power = power.wedge(curvature)
        if j >= first:
            traces.append(trace(power))
    if top >= first:
        traces.append(power.wedge_trace(curvature, graded) if top > 1
                      else trace(curvature))
    return traces


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
    ones = Form.function(variables, frame_rank, Poly.one(variables))
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


class CohomologyBasis:
    """Exact Chevalley-Eilenberg cohomology of a point-base algebroid.

    Stores, per degree, the coboundary as sparse columns, chosen
    representative cocycles, and enough data to decompose any closed form
    into class coefficients plus an explicit primitive.  `d_cols[k]` holds
    the image of each basis cochain of `bases[k]` under `Algebroid.d_sparse`
    as a {index in bases[k + 1]: value} dict; cochains and representatives
    are sparse vectors {index in bases[k]: value} of the same kind.
    """

    def __init__(self, algebroid):
        if algebroid.chart.dim != 0:
            raise MismatchError("exact cohomology requires a point base; "
                                "use the bounded exactness solver over charts")
        self.algebroid = algebroid
        r = algebroid.rank
        self.bases = {k: list(itertools.combinations(range(r), k))
                      for k in range(r + 2)}
        self.d_cols = {}
        for k in range(r + 1):
            index = {mi: i for i, mi in enumerate(self.bases[k + 1])}
            self.d_cols[k] = [
                {index[out_mi]: val for (out_mi, _), val
                 in algebroid.d_sparse({(mi, ()): _ONE}).items()}
                for mi in self.bases[k]]
        self.rep_vectors = {}
        self.representatives = {}
        for k in range(r + 1):
            self._pick_representatives(k)

    def form_to_vector(self, form):
        index = {mi: i for i, mi in enumerate(self.bases[form.degree])}
        return {index[mi]: poly.constant_value()
                for (mi, _), poly in form.coeffs.items()}

    def vector_to_form(self, k, vec):
        variables = self.algebroid.variables
        coeffs = {(self.bases[k][i], 0): Poly.constant(variables, val)
                  for i, val in sorted(vec.items()) if val}
        return Form(variables, self.algebroid.rank, k, 1, coeffs)

    def _pick_representatives(self, k):
        n = len(self.bases[k])
        cocycles = nullspace(transpose(self.d_cols[k], len(self.bases[k + 1])), n)
        boundaries = self.d_cols[k - 1] if k > 0 else []
        columns = boundaries + cocycles
        pivots = rref(transpose(columns, n), len(columns))[1]
        reps = [columns[p] for p in pivots if p >= len(boundaries)]
        self.rep_vectors[k] = reps
        self.representatives[k] = [self.vector_to_form(k, v) for v in reps]

    def dim(self, k):
        return len(self.rep_vectors.get(k, []))

    def decompose(self, form):
        """Write a closed form as sum(c_i rep_i) + d(primitive).

        Returns (coefficients, primitive Form).  Raises NotClosedError on a
        non-cocycle.
        """
        _require_closed(self.algebroid, form, "cannot decompose a non-closed form")
        k = form.degree
        if k > self.algebroid.rank:
            return [], Form.zero(self.algebroid.variables, self.algebroid.rank,
                                 max(k - 1, 0))
        reps = self.rep_vectors[k]
        columns = reps + (self.d_cols[k - 1] if k > 0 else [])
        rows = transpose(columns, len(self.bases[k]))
        sol = solve(rows, self.form_to_vector(form), len(columns))
        if sol is None:
            raise InternalCheckError("closed form failed to decompose")
        coeffs, prim_vec = sol[:len(reps)], dict(enumerate(sol[len(reps):]))
        primitive = (self.vector_to_form(k - 1, prim_vec) if k > 0
                     else Form.zero(self.algebroid.variables,
                                    self.algebroid.rank, 0))
        return coeffs, primitive

    def class_vector(self, form):
        return self.decompose(form)[0]


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

    The algebroid's degrees are read from the nonzero terms d_A is built
    from: an anchor term a x^beta d/dx_m, kept with shift beta - unit(m),
    has degree sum(shift) + 1, and a term c x^beta of c_ab^k (a < b) has
    degree sum(beta).
    """
    degrees = [0]
    degrees.extend(sum(shift) + 1 for row in algebroid._anchor_terms for _, shift, _ in row)
    degrees.extend(sum(beta) for row in algebroid._d_coframe for _, beta, _ in row)
    for form in forms:
        if form is not None:
            degrees.extend(p.total_degree() for p in form.coeffs.values())
    return 2 * max(degrees) + 2


def _exactness_system(algebroid, form, bound):
    """The ansatz d(sum_u c_u u) = form, cut down to what the form reaches.

    The candidate unknowns u are the (k-1)-forms x^exponent e^J (J a frame
    multi-index, exponent of total degree <= bound).  Starting from the rows
    the form touches, the closure alternates `Algebroid.d_sparse_sources`
    (the columns that can reach a row) and `Algebroid._d_column` (the rows a
    column reaches) until nothing new appears, so it is a union of connected
    components of the full ansatz system.  The full system is block
    diagonal over its components, and a component with a zero right-hand
    side solves to zero when the free variables are zero, so solving the
    closure gives the full ansatz's solution.  The unknowns are the closure's
    columns with a nonzero image, in the global (J, exponent) order, which
    fixes the free-variables-zero solution.  Returns (unknowns, rows, rhs):
    `rows` are {unknown: value} dicts, one per (J, exponent) that occurs,
    and `rhs` is a {row: value} dict.  The system is the ansatz times the
    algebroid's common denominator `_d_den`: each column's image is its
    integer numerators over it (`Algebroid._d_column`), and the right-hand
    side is scaled by it, which leaves the solution as it is.
    """
    den = algebroid._d_den
    targets = {(mi, expo): val * den for (mi, _), poly in form.coeffs.items()
               for expo, val in poly.terms.items()}
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
    unknowns = sorted(col for col, image in images.items() if image)
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
    if bound is None:
        bound = default_bound(algebroid, [form])
    if point:
        bound = 0
    variables = algebroid.variables
    unknowns, rows, rhs = _exactness_system(algebroid, form, bound)
    sol = solve(rows, rhs, len(unknowns))
    if sol is None:
        return ExactnessResult("not_exact" if point else "undecided", None)
    coeffs = {}
    for (j_idx, expo), val in zip(unknowns, sol):
        if val:
            key = (j_idx, 0)
            poly = Poly(variables, {expo: val})
            coeffs[key] = coeffs.get(key, Poly.zero(variables)) + poly
    primitive = Form(variables, algebroid.rank, k - 1, 1, coeffs)
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
    form coefficients, and integrates index * gtr(R_t^(index-1) D) exactly;
    the power starts at R_t and each term is one trace-only product with D.
    """
    curvature = old.curvature()   # a LinearConnection's kept one
    if not isinstance(old, ConnectionUpToHomotopy):
        old = ConnectionUpToHomotopy.from_linear(old)
    if not isinstance(new, ConnectionUpToHomotopy):
        new = ConnectionUpToHomotopy.from_linear(new)
    if old.bundle != new.bundle or old.algebroid != new.algebroid:
        raise MismatchError("transgression needs two cuths on the same bundle")
    diff = cuth_difference(new, old)
    if index == 1:
        pieces = [gtr(diff)]
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
        pieces = [p.wedge_trace(diff, graded=True) for p in power]
    total = Form.zero(old.variables, old.algebroid.rank, 2 * index - 1)
    for j, piece in enumerate(pieces):
        if not piece.is_zero():
            total = total + piece.scale(Fraction(index, j + 1))
    return total


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
    basis = [ideal_vectors[p] for p in rref(rows, len(ideal_vectors))[1]]
    cls = cohomology.class_vector(representative)
    in_ideal = solve(rows, dict(enumerate(cls)), len(ideal_vectors)) is not None
    return MasseyReport(True, "ok", representative, w, eta, cls, basis,
                        not in_ideal)
