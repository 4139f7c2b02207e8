"""Named constructions and obstruction reports.

Double/adjoint/morphism 2-representations, Bott-style vanishing reports
(ordinary, Atiyah-refined, graded), and the four-condition infinitesimal
ideal system checker.

One builder makes the two-term representation of a map B -> A, with the
five-term curvature written once; the adjoint representation over a chart is
the one of the anchor A -> TM, and the basic connections and the basic
curvature are read off it.  Reports are plain dicts shaped {"checks":
[{"name", "pass", "witness"?}], "thresholds"?, "note"?} ready for canonical
JSON serialization; `problems.run_problem` adds the task name under "task"
and "construction".  No report rebuilds a total form from Polys: a
curvature restricts to zero on a subframe exactly when no stored bitmask
lies inside it, which is `ideal_membership(R, indices, 1)`, so `atiyah`'s
"quotient_well_defined" and `graded-bott`'s "restriction_vanishes" and
"curvature_in_ideal" read that one predicate; a graded-Bott extension
renames the stored bitmasks of D (`extend_total_form`); and the witness of
a curvature block is that block's terms of the curvature's `to_json`.
"""

from __future__ import annotations

from .algebroid import Subframe, tangent_algebroid
from .chernweil import class_status, invariant_poly_f, power_traces
from .connections import (ConnectionUpToHomotopy, LinearConnection,
                          extend_connection, induced_hom_connection,
                          restrict_connection, two_term_connection)
from .errors import InternalCheckError, MismatchError, MorphismError
from .forms import (Form, ideal_membership, mat_identity, mat_is_zero,
                    extend_total_form)
from .ring import Poly


# ----------------------------------------------------------------------
# report plumbing


def _check(name, ok, witness=None):
    entry = {"name": name, "pass": bool(ok)}
    if witness is not None:
        entry["witness"] = witness
    return entry


def _trace_power_checks(curvature, graded, prefix, first, top):
    """One vanishing check per power l in [first, top] of tr(R^l), or gtr(R^l)
    when `graded`."""
    return [_check(f"{prefix}_{l}_vanishes", trace.is_zero(),
                   None if trace.is_zero() else trace.to_json())
            for l, trace in enumerate(power_traces(curvature, top, graded,
                                                   first=first), start=first)]


def _report(checks, thresholds=None, note=None):
    out = {"checks": checks}
    if thresholds is not None:
        out["thresholds"] = thresholds
    if note is not None:
        out["note"] = note
    return out


def report_passed(report):
    return all(entry["pass"] for entry in report["checks"])


def _block_json(total_form, key):
    """The JSON of one block of a total form: its `to_json` terms in that block."""
    data = total_form.to_json()
    return {"total_degree": data["total_degree"],
            "terms": [term for term in data["terms"] if term["block"] == list(key)]}


def _basis(variables, rank, index):
    one = Poly.one(variables)
    zero = Poly.zero(variables)
    return [one if k == index else zero for k in range(rank)]


def _vec_add(*vectors):
    out = list(vectors[0])
    for vec in vectors[1:]:
        out = [a + b for a, b in zip(out, vec)]
    return out


def _vec_neg(vector):
    return [-p for p in vector]


def _covariant(nabla, direction, section):
    """nabla_u s = sum_i u_i (rho_i(s) + sum_alpha s_alpha nabla_{e_i} f_alpha)
    for u and s given by frame components, nabla_{e_i} f_alpha read off row
    alpha of the source-major Christoffel matrix of frame element i."""
    out = [Poly.zero(nabla.variables)] * nabla.rank
    for i, u_i in enumerate(direction):
        if u_i.is_zero():
            continue
        step = [nabla.algebroid.anchor_apply(i, s) for s in section]
        for s, row in zip(section, nabla.christoffel[i]):
            step = [acc + coeff * s for acc, coeff in zip(step, row)]
        out = [acc + u_i * v for acc, v in zip(out, step)]
    return out


# ----------------------------------------------------------------------
# square-zero reports

# component equations of a 2-term connection, in curvature-block terms
_TWO_TERM_NAMES = {
    (2, 0, 0): "R_nabla0_plus_omega_circ_partial",
    (2, 1, 1): "R_nabla1_plus_partial_circ_omega",
    (1, 0, 1): "chain_map_commutes",
    (3, 1, 0): "d_end_omega",
}


def square_zero_check(conn):
    """Report whether a connection up to homotopy squares to zero.

    For a normalized 2-term input the four component equations of the
    flatness condition are reported separately under their usual names;
    other curvature blocks are listed generically.
    """
    curvature = conn.curvature()
    checks = [_check("square_zero", curvature.is_zero())]
    keys = []
    if conn.bundle.degrees() == (0, 1) and conn.is_normalized():
        keys.extend(_TWO_TERM_NAMES)
    keys.extend(k for k in sorted(curvature.blocks) if k not in keys)
    for key in keys:
        present = key in curvature.blocks
        name = _TWO_TERM_NAMES.get(key, "block_%d_%d_%d" % key)
        witness = _block_json(curvature, key) if present else None
        checks.append(_check(name, not present, witness))
    return _report(checks)


# ----------------------------------------------------------------------
# double representation


def double_rep(nabla):
    """The 2-representation on E[0] + E[1] defined by a linear connection.

    Degree-0 sections go to their covariant differential plus themselves in
    degree 1; degree-1 sections pick up minus the curvature.  Square-zero
    then holds identically (the chain map is the identity and the remaining
    component equations reduce to the Bianchi identity).
    """
    curvature = nabla.curvature()
    omega = (-curvature).block(2, 0, 0)
    partial = mat_identity(nabla.rank, nabla.variables)
    return two_term_connection(nabla.algebroid, nabla, nabla, partial, omega)


# ----------------------------------------------------------------------
# morphism representation; the adjoint representation is the one of the anchor


def _rho_of_section(algebroid, coeffs):
    """Vector-field components of rho applied to a coefficient vector."""
    n = algebroid.chart.dim
    out = [Poly.zero(algebroid.variables) for _ in range(n)]
    for k, c in enumerate(coeffs):
        for p in range(n):
            out[p] = out[p] + c * algebroid.anchor[k][p]
    return out


def check_morphism(algebroid_b, algebroid_a, partial):
    """Verify that a fiberwise map of presentations is a morphism.

    partial[i] holds the target-frame coefficients of the image of the
    i-th source frame element.  Raises MorphismError naming the failing
    frame element (anchor compatibility) or pair (bracket compatibility).
    """
    if algebroid_b.chart != algebroid_a.chart:
        raise MismatchError("morphism endpoints must share the base chart")
    variables = algebroid_a.variables
    rb, ra = algebroid_b.rank, algebroid_a.rank
    partial = [[Poly.constant(variables, p) if not isinstance(p, Poly) else p
                for p in row] for row in partial]
    if len(partial) != rb or any(len(row) != ra for row in partial):
        raise MismatchError("morphism matrix has the wrong shape")
    for i in range(rb):
        image_rho = _rho_of_section(algebroid_a, partial[i])
        for m, component in enumerate(image_rho):
            if component != algebroid_b.anchor[i][m]:
                raise MorphismError(
                    f"anchor mismatch on frame element {i}", pair=(i,))
    for i in range(rb):
        for j in range(i + 1, rb):
            lhs = [Poly.zero(variables) for _ in range(ra)]
            for k, c in enumerate(algebroid_b.bracket_vector(i, j)):
                lhs = [acc + c * p for acc, p in zip(lhs, partial[k])]
            rhs = algebroid_a.section_bracket(partial[i], partial[j])
            if lhs != rhs:
                raise MorphismError(
                    f"bracket compatibility fails on the pair ({i}, {j})",
                    pair=(i, j))
    return partial


def morphism_rep(algebroid_b, algebroid_a, partial, nabla):
    """The 2-representation of B on B[0] + A[1] defined by a morphism into A.

    `nabla` is a target-frame connection on the sections of B.  The two
    induced connections combine the brackets with `nabla` through the
    morphism, and omega is minus the five-term curvature of the pair.  The
    map is not checked: run it through check_morphism first.  For a map
    that is no morphism the result still exists; its square-zero report is
    where the failure shows up.
    """
    if nabla.algebroid != algebroid_a or nabla.rank != algebroid_b.rank:
        raise MismatchError("expected a target-frame connection on the source sections")
    variables = algebroid_a.variables
    rb, ra = algebroid_b.rank, algebroid_a.rank
    christoffel = nabla.christoffel

    # nabla^partial on B:  [b_i, b_j] + nabla_{partial(b_j)} b_i
    gamma_b = []
    for i in range(rb):
        rows = []
        for j in range(rb):
            rows.append(_vec_add(
                algebroid_b.bracket_vector(i, j),
                _covariant(nabla, partial[j], _basis(variables, rb, i))))
        gamma_b.append(rows)

    # nabla^partial on A:  [partial(b_i), e_a] + partial(nabla_{e_a} b_i)
    gamma_a = []
    for i in range(rb):
        rows = []
        for a in range(ra):
            vec = algebroid_a.section_bracket(partial[i],
                                              _basis(variables, ra, a))
            for k, c in enumerate(christoffel[a][i]):
                vec = [acc + c * p for acc, p in zip(vec, partial[k])]
            rows.append(vec)
        gamma_a.append(rows)

    # five-term curvature R^partial(b_i, b_j) e_a, valued in B
    omega = {}
    for i in range(rb):
        for j in range(i + 1, rb):
            mat = [[Poly.zero(variables) for _ in range(ra)]
                   for _ in range(rb)]
            for a in range(ra):
                delta_a = _basis(variables, ra, a)
                bracket = algebroid_b.bracket_vector(i, j)
                t1 = _vec_neg(_covariant(nabla, delta_a, bracket))
                t2 = algebroid_b.section_bracket(christoffel[a][i],
                                                 _basis(variables, rb, j))
                t3 = algebroid_b.section_bracket(_basis(variables, rb, i),
                                                 christoffel[a][j])
                t4 = _covariant(nabla, gamma_a[j][a], _basis(variables, rb, i))
                t5 = _vec_neg(_covariant(nabla, gamma_a[i][a],
                                         _basis(variables, rb, j)))
                vec = _vec_add(t1, t2, t3, t4, t5)
                for k in range(rb):
                    mat[k][a] = -vec[k]
            if not mat_is_zero(mat):
                omega[(i, j)] = mat

    nabla0 = LinearConnection(algebroid_b, gamma_b)
    nabla1 = LinearConnection(algebroid_b, gamma_a)
    partial_block = [[partial[i][a] for i in range(rb)] for a in range(ra)]
    return two_term_connection(algebroid_b, nabla0, nabla1,
                               partial_block, omega)


def adjoint_rep(algebroid, nabla_tm=None):
    """The adjoint 2-representation on sections[0] + fields[1].

    Over a chart it is the morphism representation of the anchor
    rho: A -> TM for the tangent-frame connection `nabla_tm`: the chain map
    is rho, the connections are the basic connections and omega is minus
    the basic curvature.  The anchor is not run through check_morphism, so
    a presentation that breaks the anchor axiom still gets a connection up
    to homotopy, and its square-zero report names the failure.  Over a
    point base the fields summand is trivial and the construction
    degenerates to the bracket action on sections, whose square-zero is
    the Jacobi identity.
    """
    if algebroid.chart.dim == 0:
        r = algebroid.rank
        gamma = [[list(algebroid.bracket_vector(i, j)) for j in range(r)]
                 for i in range(r)]
        return LinearConnection(algebroid, gamma)
    if nabla_tm is None:
        raise MismatchError("a tangent-frame connection is required over a chart base")
    return morphism_rep(algebroid, tangent_algebroid(algebroid.chart),
                        algebroid.anchor, nabla_tm)


# ----------------------------------------------------------------------
# Bott vanishing


def bott_report(algebroid, subframe, nabla_sub, complement=None):
    """Vanishing report for a flat subframe representation.

    Extends the connection by the given (default zero) complement
    Christoffels, places the curvature of the extension in the annihilator
    ideal of the subframe, and confirms the structural vanishing of the
    trace powers beyond the codimension.
    """
    sub_algebroid = algebroid.restrict(subframe)
    if nabla_sub.algebroid != sub_algebroid:
        raise MismatchError("connection does not live over the restricted subframe")
    if not nabla_sub.is_flat():
        raise MismatchError("the subframe connection must be flat")
    nabla_tilde = extend_connection(algebroid, subframe, nabla_sub, complement)
    curvature = nabla_tilde.curvature()
    q = subframe.codim
    checks = [
        _check("flat_on_subframe", True),
        _check("curvature_in_ideal",
               ideal_membership(curvature, subframe.indices, 1)),
    ]
    checks += _trace_power_checks(curvature, False, "trace_power", q + 1,
                                  max(q + 1, algebroid.rank // 2))
    return _report(checks, thresholds={"q": q, "vanish_above": 2 * q})


# ----------------------------------------------------------------------
# Atiyah refinement


def atiyah_form(algebroid, subframe, nabla_sub, extension=None,
                complement=None):
    """The curvature pairing of subframe and quotient directions.

    Returns (form, report).  The form lives over the restricted subframe
    with the fiber Hom(quotient, endomorphisms) flattened to a vector;
    closedness is checked against the connection combining the complement
    bracket action with the induced endomorphism connection.  When the form
    vanishes for the supplied extension the refined threshold applies.
    """
    sub_algebroid = algebroid.restrict(subframe)
    if nabla_sub.algebroid != sub_algebroid:
        raise MismatchError("connection does not live over the restricted subframe")
    if not nabla_sub.is_flat():
        raise MismatchError("the subframe connection must be flat")
    if extension is None:
        extension = extend_connection(algebroid, subframe, nabla_sub,
                                      complement)
    restricts = restrict_connection(extension, subframe) == nabla_sub
    if not restricts:
        raise MismatchError("the supplied extension does not restrict to the subframe connection")
    variables = algebroid.variables
    k = nabla_sub.rank
    q = subframe.codim
    comp = subframe.complement()
    curvature = extension.curvature()
    block = curvature.block(2, 0, 0)

    coeffs = {}
    for bi, b in enumerate(subframe.indices):
        for ci, c in enumerate(comp):
            pair = (b, c) if b < c else (c, b)
            mat = block.get(pair)
            if mat is None:
                continue
            for mu in range(k):
                for al in range(k):
                    value = mat[mu][al] if b < c else -mat[mu][al]
                    if value.is_zero():
                        continue
                    fiber = (mu * k + al) * q + ci
                    key = ((bi,), fiber)
                    coeffs[key] = coeffs.get(key, Poly.zero(variables)) + value
    omega = Form(variables, subframe.rank, 1, q * k * k, coeffs)

    # Bott action on the quotient directions: complement part of [b, c]
    gamma_bott = []
    for b in subframe.indices:
        rows = []
        for c in comp:
            bracket = algebroid.bracket_vector(b, c)
            rows.append([bracket[c2] for c2 in comp])
        gamma_bott.append(rows)
    bott_conn = LinearConnection(sub_algebroid, gamma_bott)
    end_conn = induced_hom_connection(nabla_sub, nabla_sub)
    hom_conn = induced_hom_connection(bott_conn, end_conn)
    closed = hom_conn.apply(omega).is_zero()

    zero_form = omega.is_zero()
    if zero_form != ideal_membership(curvature, subframe.indices, 2):
        raise InternalCheckError("pairing form and ideal membership disagree")
    checks = [
        _check("flat_on_subframe", True),
        _check("extension_restricts", True),
        _check("quotient_well_defined", ideal_membership(curvature, subframe.indices, 1)),
        _check("pairing_closed", closed),
        _check("pairing_vanishes", zero_form),
    ]
    vanish_above = q if zero_form else 2 * q
    if zero_form:
        checks += _trace_power_checks(curvature, False, "trace_power", q // 2 + 1,
                                      max(q // 2 + 1, algebroid.rank // 2))
    report = _report(checks, thresholds={"q": q, "vanish_above": vanish_above})
    return omega, report


# ----------------------------------------------------------------------
# graded Bott vanishing


def graded_bott_report(algebroid, subframe, conn_sub):
    """Vanishing report for a square-zero connection over a subframe.

    Extends the per-summand connections and the structure form D by zero on
    complement directions, then checks that the extended curvature restricts
    to zero on the subframe and that its graded trace powers beyond the
    codimension are identically zero.  Gamma and D both extend by zero, so
    the extension of Omega = Gamma + D does not depend on how the input
    splits it, and the input need not be normalized.
    """
    sub_algebroid = algebroid.restrict(subframe)
    if conn_sub.algebroid != sub_algebroid:
        raise MismatchError("connection does not live over the restricted subframe")
    if not conn_sub.curvature().is_zero():
        raise MismatchError("the subframe connection up to homotopy must square to zero")
    nablas = {z: extend_connection(algebroid, subframe, conn_sub.nablas[z])
              for z, _ in conn_sub.bundle.summands}
    d_ext = extend_total_form(conn_sub.D, subframe.indices, algebroid.rank)
    tilde = ConnectionUpToHomotopy(algebroid, conn_sub.bundle, nablas, d_ext)
    curvature = tilde.curvature()
    q = subframe.codim
    # the curvature restricts to zero on the subframe exactly when it lies in
    # the annihilator ideal: one predicate under both names
    in_ideal = ideal_membership(curvature, subframe.indices, 1)
    checks = [
        _check("square_zero_on_subframe", True),
        _check("restriction_vanishes", in_ideal),
        _check("curvature_in_ideal", in_ideal),
    ]
    checks += _trace_power_checks(curvature, True, "gtr_power", q + 1,
                                  max(q + 1, algebroid.rank // 2))
    return _report(checks, thresholds={"q": q, "vanish_above": 2 * q})


# ----------------------------------------------------------------------
# infinitesimal ideal systems


def iis_default_extension(algebroid):
    """Zero tangent-frame connection; it preserves any subframe pair."""
    return LinearConnection.zero(tangent_algebroid(algebroid.chart),
                                 algebroid.rank)


def _quotient_connection_flat(algebroid, j_sub, fm_sub, nabla_tilde):
    """Flatness of the induced quotient connection along the field subframe."""
    if fm_sub.rank == 0:
        return True
    j_comp = j_sub.complement()
    if not j_comp:
        return True
    christoffel = nabla_tilde.christoffel
    gamma = []
    for m in fm_sub.indices:
        rows = []
        for cj in j_comp:
            rows.append([christoffel[m][cj][ck] for ck in j_comp])
        gamma.append(rows)
    tangent = tangent_algebroid(algebroid.chart)
    fm_tangent = tangent.restrict(Subframe(algebroid.chart.dim,
                                           fm_sub.indices))
    quotient = LinearConnection(fm_tangent, gamma)
    return quotient.is_flat()


def _first_nonzero(name, cells):
    """A failed check witnessing the first nonzero cell, else a pass.

    `cells` yields (witness, Poly) pairs in scan order; the failing witness
    gains the cell's value.
    """
    for witness, value in cells:
        if not value.is_zero():
            return _check(name, False, {**witness, "value": str(value)})
    return _check(name, True)


def iis_check(algebroid, j_subframe, fm_subframe, nabla_tilde=None):
    """The four-condition characterization of an infinitesimal ideal system.

    Checks, in adapted frames: (1) the anchor maps the section subframe into
    the field subframe; (2) the basic connection on sections preserves the
    section subframe; (3) the basic connection on fields preserves the field
    subframe; (4) the basic curvature pairs the field subframe into the
    section subframe.  Conditions 2-4 are read off one adjoint
    representation.  The equivalence of these conditions with the quotient
    definition is cited by the source material, not re-derived here.
    """
    r, n = algebroid.rank, algebroid.chart.dim
    if fm_subframe.frame_rank != n or j_subframe.frame_rank != r:
        raise MismatchError("subframes not adapted to the algebroid's frames")
    point = n == 0
    if not point and nabla_tilde is None:
        nabla_tilde = iis_default_extension(algebroid)
    adjoint = adjoint_rep(algebroid, nabla_tilde)
    j_set = set(j_subframe.indices)
    fm_set = set(fm_subframe.indices)
    if not point:
        christoffel = nabla_tilde.christoffel
        for m in fm_subframe.indices:
            for i in j_subframe.indices:
                for k in range(r):
                    if k not in j_set and not christoffel[m][i][k].is_zero():
                        raise MismatchError(
                            "the tangent-frame connection does not preserve "
                            "the section subframe along the field subframe")

    gamma_a = adjoint.nablas[0].christoffel
    # over a point the field subframe is empty, so gamma_tm is never read
    gamma_tm = [] if point else adjoint.nablas[1].christoffel
    omega = adjoint.D.block(2, 1, 0)
    checks = [
        _first_nonzero("anchor_maps_into_fields", (
            ({"section": i, "field": m}, algebroid.anchor[i][m])
            for i in j_subframe.indices for m in range(n)
            if m not in fm_set)),
        _first_nonzero("basic_connection_preserves_sections", (
            ({"frame": i, "section": j, "target": k}, gamma_a[i][j][k])
            for i in range(r) for j in j_subframe.indices for k in range(r)
            if k not in j_set)),
        _first_nonzero("basic_connection_preserves_fields", (
            ({"frame": i, "field": m, "target": p}, gamma_tm[i][m][p])
            for i in range(r) for m in fm_subframe.indices for p in range(n)
            if p not in fm_set)),
        # the basic curvature is minus omega
        _first_nonzero("basic_curvature_pairs_into_sections", (
            ({"index": list(mi), "field": m, "target": k}, -mat[k][m])
            for mi, mat in omega.items() for m in fm_subframe.indices
            for k in range(r) if k not in j_set)),
    ]

    flat = True if point else _quotient_connection_flat(
        algebroid, j_subframe, fm_subframe, nabla_tilde)
    checks.append(_check("quotient_connection_flat", flat))
    return _report(
        checks,
        note="four-condition characterization for the supplied extension; "
             "equivalence with the quotient definition is cited, not re-proved")


def iis_obstruction(algebroid, j_subframe, fm_subframe, l_values=(1,), bound=None):
    """Equality of the classes attached to the two subframe bundles.

    Computes representatives of the degree-4l classes of the section and
    field subbundles from their zero connections and reports whether their
    difference is exact.  A rank-0 subframe has the zero representative.
    """
    checks = []
    for l in l_values:
        rep_j = _subframe_class_rep(algebroid, j_subframe.rank, l)
        rep_fm = _subframe_class_rep(algebroid, fm_subframe.rank, l)
        diff = rep_j - rep_fm
        status, primitive = class_status(algebroid, diff, bound=bound)
        witness = {"status": status}
        if primitive is not None:
            witness["primitive"] = primitive.to_json()
        checks.append(_check(f"p{l}_difference_exact", status == "zero",
                             witness))
    return _report(checks)


def _subframe_class_rep(algebroid, rank, index):
    if rank == 0:
        return Form.zero(algebroid.variables, algebroid.rank, 4 * index)
    return invariant_poly_f(LinearConnection.zero(algebroid, rank).curvature(),
                            2 * index)
