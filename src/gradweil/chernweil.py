"""Characteristic forms and classes, exact cohomology, transgression, Massey.

Characters are graded traces of curvature powers; classes over a point base
are decided by exact rank computations on the frame cochain complex, and
over a chart base by a bounded linear solve for polynomial primitives
(status "undecided" when the bound is exhausted).

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
from .forms import Form, TotalForm, gtr, tr
from .linalg import nullspace, rref, solve, transpose
from .ring import Poly

_ONE = Fraction(1)


# ----------------------------------------------------------------------
# characters


@dataclass
class CharacterForm:
    """gtr(R^i): a closed scalar form of degree 2i."""

    index: int
    form: Form
    closed: bool


def sigma_character(conn, index):
    """The degree-2i character of a connection (up to homotopy)."""
    if not isinstance(conn, ConnectionUpToHomotopy):
        conn = ConnectionUpToHomotopy.from_linear(conn)
    power = conn.curvature_power(index)
    form = gtr(power)
    closed = conn.algebroid.d(form).is_zero()
    if not closed:
        # closedness is a theorem here; failing it means broken input data
        # (an algebroid that does not satisfy its axioms) or an engine bug
        raise InternalCheckError(
            f"character gtr(R^{index}) is not closed; check the algebroid axioms")
    return CharacterForm(index, form, closed)


# ----------------------------------------------------------------------
# invariant polynomials and scaled classes


def _power_traces(curvature, up_to):
    """tr(R^j) for j = 1..up_to as scalar forms (plain trace)."""
    traces = []
    power = curvature
    for j in range(1, up_to + 1):
        traces.append(tr(power))
        if j < up_to:
            power = power.wedge(curvature)
    return traces


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
    traces = _power_traces(curvature, up_to)
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


def total_pontryagin(nabla):
    """All p^i with a possibly nonzero representative: 4i <= frame rank."""
    out = []
    for index in range(1, nabla.algebroid.rank // 4 + 1):
        out.append(pontryagin_class(nabla, index))
    return out


def anchor_pullback_character(algebroid, base_connection, index):
    """rho^* of a coordinate-frame character: the induced-connection route.

    `base_connection` is a connection over the tangent algebroid of the
    chart; its character pulls back through the anchor to a character
    representative of the induced A-connection.
    """
    char = sigma_character(base_connection, index)
    return algebroid.rho_pullback(char.form)


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

    def is_closed(self, form):
        return self.algebroid.d(form).is_zero()

    def decompose(self, form):
        """Write a closed form as sum(c_i rep_i) + d(primitive).

        Returns (coefficients, primitive Form).  Raises NotClosedError on a
        non-cocycle.
        """
        if not self.is_closed(form):
            raise NotClosedError("cannot decompose a non-closed form")
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

    def class_is_zero(self, form):
        return all(c == 0 for c in self.class_vector(form))


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
    """2 * (max total degree over the input data) + 2."""
    degrees = [0]
    for row in algebroid.anchor:
        degrees.extend(p.total_degree() for p in row)
    for row in algebroid.structure:
        for vec in row:
            degrees.extend(p.total_degree() for p in vec)
    for form in forms:
        if form is not None:
            degrees.extend(p.total_degree() for p in form.coeffs.values())
    return 2 * max(degrees) + 2


def _monomials(nvars, bound):
    """Exponent tuples of total degree <= bound, in lexicographic order."""
    if nvars == 0:
        yield ()
        return
    for first in range(bound + 1):
        for rest in _monomials(nvars - 1, bound - first):
            yield (first,) + rest


def _exactness_system(algebroid, form, bound):
    """The ansatz d(sum_u c_u u) = form as a sparse linear system in the c_u.

    The unknowns u are the (k-1)-forms x^exponent e^J (J a frame multi-index,
    exponent of total degree <= bound) with a nonzero image; their order
    fixes the free-variables-zero solution.  Each column is the image of one
    unknown under `Algebroid.d_sparse`.  Returns (unknowns, rows, rhs):
    `rows` are {unknown: value} dicts, one per (J, exponent) that occurs,
    and `rhs` is a {row: value} dict.
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
            image = algebroid.d_sparse({(j_idx, expo): _ONE})
            if not image:
                continue
            col = len(unknowns)
            unknowns.append((j_idx, expo))
            for key, val in image.items():
                rows[row(key)][col] = val
    rhs = {row((mi, expo)): val
           for (mi, _), poly in form.coeffs.items()
           for expo, val in poly.terms.items()}
    return unknowns, rows, rhs


def is_exact(algebroid, form, bound=None):
    """Decide exactness of a closed scalar form.

    Over a point base the answer is decisive.  Over a chart base the solver
    looks for a primitive with polynomial coefficients of total degree at
    most `bound`; failure within the bound reports "undecided" since a
    higher-degree primitive is not ruled out.
    """
    if form.fiber_dim != 1:
        raise MismatchError("exactness applies to scalar forms")
    if not algebroid.d(form).is_zero():
        raise NotClosedError("is_exact requires a closed form")
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
    form coefficients, and integrates the graded trace exactly.
    """
    if not isinstance(old, ConnectionUpToHomotopy):
        old = ConnectionUpToHomotopy.from_linear(old)
    if not isinstance(new, ConnectionUpToHomotopy):
        new = ConnectionUpToHomotopy.from_linear(new)
    if old.bundle != new.bundle or old.algebroid != new.algebroid:
        raise MismatchError("transgression needs two cuths on the same bundle")
    diff = cuth_difference(new, old)
    r_t = [old.curvature(), old.d_end(diff), diff.wedge(diff)]

    def poly_mul(a, b):
        out = [None] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                term = x.wedge(y)
                out[i + j] = term if out[i + j] is None else out[i + j] + term
        return out

    power = [TotalForm.identity(old.variables, old.algebroid.rank, old.bundle)]
    for _ in range(index - 1):
        power = poly_mul(power, r_t)
    integrand = poly_mul(power, [diff])
    variables = old.variables
    total = Form.zero(variables, old.algebroid.rank, 2 * index - 1)
    for j, coeff in enumerate(integrand):
        piece = gtr(coeff)
        if piece.is_zero():
            continue
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
        if not algebroid.d(form).is_zero():
            raise NotClosedError(f"{name} is not closed")
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
