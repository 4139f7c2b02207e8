"""Canonical 2-representations, vanishing reports, ideal systems."""

import functools
import itertools
import json
import operator
import pathlib
import random
from fractions import Fraction

import pytest

from gradweil import catalog, constructions
from gradweil.algebroid import Algebroid, Chart, Subframe, tangent_algebroid
from gradweil.connections import (ConnectionUpToHomotopy, LinearConnection,
                                  two_term_connection)
from gradweil.constructions import (
    adjoint_rep,
    atiyah_form,
    bott_report,
    check_morphism,
    double_rep,
    graded_bott_report,
    iis_check,
    iis_default_extension,
    iis_obstruction,
    morphism_rep,
    report_passed,
    square_zero_check,
)
from gradweil.errors import MismatchError, MorphismError
from gradweil.forms import GradedBundle, TotalForm, mat_is_zero, render_form
from gradweil.problems import run_problem
from gradweil.randgen import random_linear_connection, random_poly
from gradweil.ring import Poly

from oracles import (covariant, covariant_section, flat_borel_module, solvable5_module,
                     tangent_line)
from test_algebroid import polynomial_presentation
from test_connections import _count_first_curvatures
from test_forms import mat_neg

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

X = ("x",)


def scalar_aff1_connection():
    return LinearConnection(catalog.aff1(), [[[Poly.constant((), 2)]],
                                             [[Poly.constant((), 3)]]])


def check_names(report):
    return [c["name"] for c in report["checks"]]


def failing(report):
    return [c["name"] for c in report["checks"] if not c["pass"]]


# --- double and adjoint -----------------------------------------------------


def test_double_of_scalar_connection():
    D = double_rep(scalar_aff1_connection())
    assert D.bundle.summands == ((0, 1), (1, 1))
    # chain map is the identity, omega = -R = 3 eps1^eps2
    assert D.D.blocks[(0, 0, 1)][()][0][0] == 1
    assert D.D.blocks[(2, 1, 0)][(0, 1)][0][0] == Fraction(3)
    assert report_passed(square_zero_check(D))


def test_double_random_connections_square_zero():
    rng = random.Random(3)
    for a in (catalog.sl2(), catalog.aff1_action_line()):
        for _ in range(5):
            nab = random_linear_connection(rng, a, rng.randint(1, 2))
            assert report_passed(square_zero_check(double_rep(nab)))


def test_adjoint_point_base():
    assert report_passed(square_zero_check(adjoint_rep(catalog.sl2())))
    assert report_passed(square_zero_check(adjoint_rep(catalog.heisenberg3())))
    bad = square_zero_check(adjoint_rep(catalog.broken_jacobi()))
    assert not report_passed(bad)
    assert "square_zero" in failing(bad)


def test_adjoint_chart_base():
    al = catalog.aff1_action_line()
    t = tangent_algebroid(Chart(X))
    ntm = LinearConnection.zero(t, 2)
    adj = adjoint_rep(al, ntm)
    # chain map block carries the anchor row (1, x)
    partial = adj.D.blocks[(0, 0, 1)][()]
    assert [str(p) for p in partial[0]] == ["1", "x"]
    assert report_passed(square_zero_check(adj))


def test_adjoint_chart_base_random_tangent_connections():
    rng = random.Random(7)
    al = catalog.aff1_action_line()
    t = tangent_algebroid(Chart(X))
    for _ in range(6):
        ntm = random_linear_connection(rng, t, 2)
        assert report_passed(square_zero_check(adjoint_rep(al, ntm)))


def test_adjoint_requires_tangent_connection_over_chart():
    al = catalog.aff1_action_line()
    with pytest.raises(MismatchError):
        adjoint_rep(al)
    with pytest.raises(MismatchError):
        # wrong underlying algebroid
        adjoint_rep(al, LinearConnection.zero(al, 2))


# --- basic connections ------------------------------------------------------


def basic_connections(adjoint):
    """(on sections, on vector fields) of an adjoint representation, as
    `iis_check` reads them; the second is None over a point base."""
    return adjoint.nablas[0], adjoint.nablas.get(1)


def basic_curvature(adjoint):
    """Minus the (2, 1, 0) block of an adjoint representation's D, as
    `iis_check` reads it."""
    return {mi: mat_neg(mat) for mi, mat in adjoint.D.block(2, 1, 0).items()}


def test_basic_connection_point_base_is_bracket_action():
    sl2 = catalog.sl2()
    bas, tm = basic_connections(adjoint_rep(sl2))
    assert tm is None
    one, zero = Poly.one(()), Poly.zero(())
    # nabla^bas_h e = [h, e] = 2e
    assert [str(c) for c in covariant(bas, 0, [zero, one, zero])] == ["0", "2", "0"]


def test_basic_connection_values_on_action_line():
    al = catalog.aff1_action_line()
    t = tangent_algebroid(Chart(X))
    ntm = LinearConnection.zero(t, 2)
    bas_a, bas_tm = basic_connections(adjoint_rep(al, ntm))
    one, zero = Poly.one(X), Poly.zero(X)
    # nabla^bas_{e1} e2 = [e1, e2] + 0 = e1
    assert [str(c) for c in covariant(bas_a, 0, [zero, one])] == ["1", "0"]
    # nabla^bas_{e2} d/dx = [x d/dx, d/dx] = -d/dx
    assert [str(c) for c in covariant(bas_tm, 1, [one])] == ["-1"]
    assert not basic_curvature(adjoint_rep(al, ntm))


def test_basic_curvature_over_a_point_is_zero():
    # the adjoint representation of a Lie algebra has no fields summand
    assert not basic_curvature(adjoint_rep(catalog.sl2(), None))


def test_basic_connection_leibniz_in_direction():
    # basic connections differentiate along the *section* slot; along the
    # direction slot they are tensorial only after the bracket correction,
    # so check the honest Leibniz rule instead
    al = catalog.aff1_action_line()
    t = tangent_algebroid(Chart(X))
    rng = random.Random(11)
    ntm = random_linear_connection(rng, t, 2)
    bas_a, _ = basic_connections(adjoint_rep(al, ntm))
    x = Poly.variable(X, 0)
    f = x * x + Poly.one(X)
    v = [x, Poly.constant(X, 3)]
    fv = [f * c for c in v]
    for i in range(2):
        lhs = covariant(bas_a, i, fv)
        step = covariant(bas_a, i, v)
        rho_f = al.anchor_apply(i, f)
        rhs = [f * step[k] + rho_f * v[k] for k in range(2)]
        assert lhs == rhs


# --- reference basic connections and basic curvature ---------------------------
# The section-level formulas, kept as oracles for adjoint_rep, which builds
# the same objects as the morphism representation of the anchor.


def _unit(variables, rank, index):
    return [Poly.one(variables) if k == index else Poly.zero(variables)
            for k in range(rank)]


def _add(*vectors):
    return [functools.reduce(operator.add, parts) for parts in zip(*vectors)]


def _neg(vector):
    return [-p for p in vector]


def _rho(algebroid, coeffs):
    """Vector-field components of rho applied to a coefficient vector."""
    zero = Poly.zero(algebroid.variables)
    return [functools.reduce(operator.add,
                             (c * algebroid.anchor[k][p]
                              for k, c in enumerate(coeffs)), zero)
            for p in range(algebroid.chart.dim)]


def basic_connections_reference(algebroid, nabla_tm):
    """(nabla^bas on sections, nabla^bas on vector fields) over a chart.

    nabla^bas_{e_i} e_j = [e_i, e_j] + nabla_{rho(e_j)} e_i and
    nabla^bas_{e_i} d_m = [rho(e_i), d_m] + rho(nabla_{d_m} e_i).
    """
    variables = algebroid.variables
    r, n = algebroid.rank, algebroid.chart.dim
    gamma_a = [[_add(algebroid.bracket_vector(i, j),
                     covariant_section(nabla_tm, algebroid.anchor[j],
                                            _unit(variables, r, i)))
                for j in range(r)] for i in range(r)]
    christoffel = nabla_tm.christoffel
    gamma_tm = [[_add(algebroid.vector_field_bracket(algebroid.anchor[i],
                                                     _unit(variables, n, m)),
                      _rho(algebroid, christoffel[m][i]))
                 for m in range(n)] for i in range(r)]
    return (LinearConnection(algebroid, gamma_a),
            LinearConnection(algebroid, gamma_tm))


def basic_curvature_reference(algebroid, nabla_tm):
    """The five-term formula R(a, b) x evaluated on frames, as block (2, 1, 0).

    R(a, b) x = -nabla_x [a, b] + [nabla_x a, b] + [a, nabla_x b]
                + nabla_{nabla^bas_b x} a - nabla_{nabla^bas_a x} b.
    """
    _, bas_tm = basic_connections_reference(algebroid, nabla_tm)
    variables = algebroid.variables
    r, n = algebroid.rank, algebroid.chart.dim
    entries = {}
    for i, j in itertools.combinations(range(r), 2):
        a, b = _unit(variables, r, i), _unit(variables, r, j)
        mat = [[Poly.zero(variables) for _ in range(n)] for _ in range(r)]
        for m in range(n):
            x = _unit(variables, n, m)
            vec = _add(
                _neg(covariant_section(nabla_tm, x, algebroid.section_bracket(a, b))),
                algebroid.section_bracket(covariant_section(nabla_tm, x, a), b),
                algebroid.section_bracket(a, covariant_section(nabla_tm, x, b)),
                covariant_section(nabla_tm, covariant_section(bas_tm, b, x), a),
                _neg(covariant_section(nabla_tm, covariant_section(bas_tm, a, x), b)))
            for k in range(r):
                mat[k][m] = vec[k]
        if not mat_is_zero(mat):
            entries[(i, j)] = mat
    bundle = GradedBundle([(0, r), (1, n)])
    return TotalForm(variables, r, bundle, bundle, 1, {(2, 1, 0): entries})


def broken_anchor_line():
    """rho(e1) = d/dx, rho(e2) = 0 and [e1, e2] = e1: only the anchor axiom fails."""
    return Algebroid.from_brackets(Chart(X), 2, [["1"], ["0"]],
                                   {(0, 1): ["1", "0"]})


ADJOINT_CASES = {
    "aff1_action_line": catalog.aff1_action_line,
    "tangent_line": tangent_line,
    "tangent_plane": catalog.tangent_plane,
    "polynomial": polynomial_presentation,
}


def parts(cuth):
    """What a connection up to homotopy is built from."""
    return cuth.algebroid, cuth.bundle, cuth.nablas, cuth.D


@pytest.mark.parametrize("name", sorted(ADJOINT_CASES))
def test_adjoint_is_the_morphism_representation_of_the_anchor(name):
    algebroid = ADJOINT_CASES[name]()
    tangent = tangent_algebroid(algebroid.chart)
    r, n = algebroid.rank, algebroid.chart.dim
    rng = random.Random(sum(map(ord, name)))
    for _ in range(4):
        ntm = random_linear_connection(rng, tangent, r, max_poly_degree=2)
        bas_a, bas_tm = basic_connections_reference(algebroid, ntm)
        rbas = basic_curvature_reference(algebroid, ntm)
        adjoint = adjoint_rep(algebroid, ntm)
        assert basic_connections(adjoint) == (bas_a, bas_tm)
        assert basic_curvature(adjoint) == rbas.block(2, 1, 0)
        partial = [[algebroid.anchor[i][m] for i in range(r)] for m in range(n)]
        omega = {mi: mat_neg(mat) for mi, mat in rbas.block(2, 1, 0).items()}
        assert parts(adjoint) == parts(two_term_connection(algebroid, bas_a, bas_tm,
                                                           partial, omega))
        if name == "polynomial":
            # no axiom holds, so the anchor is no morphism
            with pytest.raises(MorphismError):
                check_morphism(algebroid, tangent, algebroid.anchor)
        else:
            anchor = check_morphism(algebroid, tangent, algebroid.anchor)
            assert parts(adjoint) == parts(morphism_rep(algebroid, tangent, anchor, ntm))


def test_adjoint_of_a_broken_anchor_reports_square_zero():
    algebroid = broken_anchor_line()
    assert not algebroid.check_axioms().anchor_ok
    tangent = tangent_algebroid(algebroid.chart)
    ntm = LinearConnection.zero(tangent, 2)
    with pytest.raises(MorphismError):
        check_morphism(algebroid, tangent, algebroid.anchor)
    adjoint = adjoint_rep(algebroid, ntm)
    assert isinstance(adjoint, ConnectionUpToHomotopy)
    assert "square_zero" in failing(square_zero_check(adjoint))
    # the adjoint task reports it as a failed check (exit 1)
    report = run_problem({"task": "adjoint", "algebroid": algebroid.to_json()})
    assert "square_zero" in failing(report)


# --- morphisms ---------------------------------------------------------------


def test_morphism_identity_map():
    aff = catalog.aff1()
    one, zero = Poly.one(()), Poly.zero(())
    ident = [[one, zero], [zero, one]]
    assert check_morphism(aff, aff, ident) == ident
    rep = morphism_rep(aff, aff, ident, LinearConnection.zero(aff, 2))
    assert report_passed(square_zero_check(rep))


def test_morphism_ideal_inclusion():
    aff = catalog.aff1()
    ab1 = catalog.abelian(1)
    partial = [[Poly.zero(()), Poly.one(())]]  # b1 -> e2, source-major row
    assert check_morphism(ab1, aff, partial) == partial
    rep = morphism_rep(ab1, aff, partial, LinearConnection.zero(aff, 1))
    assert rep.bundle.summands == ((0, 1), (1, 2))
    assert report_passed(square_zero_check(rep))


def test_morphism_violation_named_pair():
    ab2 = catalog.abelian(2)
    aff = catalog.aff1()
    one, zero = Poly.one(()), Poly.zero(())
    ident = [[one, zero], [zero, one]]  # b_i -> e_i is not bracket-compatible
    with pytest.raises(MorphismError) as err:
        check_morphism(ab2, aff, ident)
    assert err.value.pair == (0, 1)
    assert "bracket compatibility" in str(err.value)


# --- square-zero diagnostics -------------------------------------------------


def test_square_zero_reports_broken_omega():
    # identity chain map between two copies of the scalar module with
    # R = -3 eps1^eps2; omega = 3 eps1^eps2 closes the square, omega = 4
    # leaves a surplus of 1 in both curvature component equations
    a = catalog.aff1()
    E = GradedBundle([(0, 1), (1, 1)])
    one = Poly.one(())

    def cuth_with_omega(value):
        blocks = {(0, 0, 1): {(): [[one]]},
                  (2, 1, 0): {(0, 1): [[Poly.constant((), value)]]}}
        D = TotalForm(a.variables, a.rank, E, E, 1, blocks)
        return ConnectionUpToHomotopy(
            a, E, {0: scalar_aff1_connection(),
                   1: scalar_aff1_connection()}, D)

    report = square_zero_check(cuth_with_omega(4))
    bad = failing(report)
    assert "square_zero" in bad
    assert "R_nabla0_plus_omega_circ_partial" in bad
    assert "R_nabla1_plus_partial_circ_omega" in bad
    witness = [c for c in report["checks"]
               if c["name"] == "R_nabla0_plus_omega_circ_partial"][0]["witness"]
    assert witness["terms"] == [{"block": [2, 0, 0], "index": [0, 1],
                                 "row": 0, "col": 0, "coeff": "1"}]
    assert report_passed(square_zero_check(cuth_with_omega(3)))


# --- Bott vanishing ----------------------------------------------------------


def borel_module():
    sl2 = catalog.sl2()
    borel = Subframe(3, [0, 1])
    return sl2, borel, LinearConnection(sl2.restrict(borel), flat_borel_module())


def test_bott_borel():
    sl2, borel, nab = borel_module()
    report = bott_report(sl2, borel, nab)
    assert check_names(report) == [
        "flat_on_subframe", "curvature_in_ideal", "trace_power_2_vanishes"]
    assert report_passed(report)
    assert report["thresholds"] == {"q": 1, "vanish_above": 2}


def test_bott_five_dimensional():
    a = catalog.solvable5()
    sub = Subframe(5, [0, 1, 2, 3])
    nab = LinearConnection(a.restrict(sub), solvable5_module())
    report = bott_report(a, sub, nab)
    assert report_passed(report)
    assert "trace_power_2_vanishes" in check_names(report)
    # the extension curvature itself is nonzero, so the vanishing is the
    # ideal-power statement rather than R = 0
    from gradweil.connections import extend_connection
    tilde = extend_connection(a, sub, nab)
    assert not tilde.curvature().is_zero()


WIRE_COMPLEMENT_CASES = {
    # algebroid, bracket-closed subframe, its flat rank-2 module on the wire
    # (None: random, flat because the subframe has rank 1)
    "solvable5": (catalog.solvable5, [0, 1, 2, 3],
                  {"rank": 2, "christoffel": [
                      {"frame": 0, "matrix": [["1", "0"], ["0", "0"]]},
                      {"frame": 1, "matrix": [["0", "0"], ["1", "0"]]}]}),
    "tangent_plane": (catalog.tangent_plane, [0], None),
}


@pytest.mark.parametrize("name", sorted(WIRE_COMPLEMENT_CASES))
def test_bott_vanishes_for_every_complement_read_source_major(name, monkeypatch):
    """Bott's vanishing holds for every extension of a flat subframe module,
    so the bott task passes for random non-symmetric complements; and the
    extension's Christoffel matrix at a complement frame is the wire matrix
    read source-major, nabla_{e_c} f_alpha = sum_beta matrix[alpha][beta] f_beta."""
    make, indices, module = WIRE_COMPLEMENT_CASES[name]
    algebroid = make()
    chart = algebroid.chart
    rng = random.Random(sum(map(ord, name)))

    def wire_matrix():
        while True:
            matrix = [[str(random_poly(rng, algebroid.variables)) for _ in range(2)]
                      for _ in range(2)]
            if chart.poly(matrix[0][1]) != chart.poly(matrix[1][0]):
                return matrix

    extensions = []
    original = constructions.extend_connection

    def spy(*args):
        extensions.append(original(*args))
        return extensions[-1]

    monkeypatch.setattr(constructions, "extend_connection", spy)
    complement = Subframe(algebroid.rank, indices).complement()
    for _ in range(4):
        connection = module or {"rank": 2, "christoffel": [
            {"frame": 0, "matrix": wire_matrix()}]}
        wire = {str(c): wire_matrix() for c in complement}
        report = run_problem({"task": "bott", "algebroid": algebroid.to_json(),
                              "subframe": indices, "connection": connection,
                              "complement": wire})
        assert report_passed(report), failing(report)
        extension = extensions[-1]
        for key, matrix in wire.items():
            for alpha in range(2):
                unit = [Poly.constant(algebroid.variables, int(beta == alpha))
                        for beta in range(2)]
                assert covariant(extension, int(key), unit) == [
                    chart.poly(p) for p in matrix[alpha]]


def test_bott_rejects_non_flat_module():
    sl2, borel, _ = borel_module()
    bad = LinearConnection(sl2.restrict(borel), [[[Poly.constant((), 1)]],
                                                 [[Poly.constant((), 1)]]])
    assert not bad.is_flat()
    with pytest.raises(MismatchError):
        bott_report(sl2, borel, bad)


# --- Atiyah refinement --------------------------------------------------------


def test_atiyah_borel_pairing():
    sl2, borel, nab = borel_module()
    form, report = atiyah_form(sl2, borel, nab)
    assert render_form(form) == "-1*eps2"
    assert failing(report) == ["pairing_vanishes"]


def test_atiyah_zero_pairing_refines_threshold():
    a = catalog.aff1_plus_center()
    sub = Subframe(3, [0, 1])
    nab = LinearConnection.zero(a.restrict(sub), 1)
    form, report = atiyah_form(a, sub, nab)
    assert form.is_zero()
    assert report_passed(report)
    names = check_names(report)
    assert "pairing_vanishes" in names
    # with omega = 0 the refined trace vanishing beyond q/2 activates
    assert any(n.startswith("trace_power_") for n in names)
    assert report["thresholds"]["vanish_above"] == 1


# --- graded Bott ---------------------------------------------------------------


def five_dim_graded_module():
    a = catalog.solvable5()
    sub = Subframe(5, [0, 1, 2, 3])
    b = a.restrict(sub)
    n0 = LinearConnection(b, solvable5_module())
    n1 = LinearConnection(b, solvable5_module())
    E = GradedBundle([(0, 2), (1, 2)])
    ident = [[Poly.one(()), Poly.zero(())], [Poly.zero(()), Poly.one(())]]
    D = TotalForm(b.variables, b.rank, E, E, 1, {(0, 0, 1): {(): ident}})
    return a, sub, ConnectionUpToHomotopy(b, E, {0: n0, 1: n1}, D)


def test_graded_bott_five_dimensional():
    a, sub, cuth = five_dim_graded_module()
    report = graded_bott_report(a, sub, cuth)
    assert report_passed(report)
    names = check_names(report)
    assert names[0] == "square_zero_on_subframe"
    assert "curvature_in_ideal" in names
    assert any(n.startswith("gtr_power_") for n in names)


def test_graded_bott_rejects_broken_square_zero():
    a, sub, cuth = five_dim_graded_module()
    b = cuth.algebroid
    E = cuth.bundle
    omega = {(0, 1): [[Poly.constant((), 4), Poly.zero(())],
                      [Poly.zero(()), Poly.zero(())]]}
    bad_D = cuth.D + TotalForm(b.variables, b.rank, E, E, 1,
                               {(2, 1, 0): omega})
    bad = ConnectionUpToHomotopy(b, E, cuth.nablas, bad_D)
    assert not report_passed(square_zero_check(bad))
    with pytest.raises(MismatchError):
        graded_bott_report(a, sub, bad)


def test_graded_bott_task_computes_two_curvatures(monkeypatch):
    # the subframe connection's, kept from its square-zero check for the
    # report, and the extension's
    counts = {}
    _count_first_curvatures(monkeypatch, counts)
    payload = json.loads((CORPUS / "graded_bott_5dim.json").read_text())
    assert report_passed(run_problem(payload))
    assert counts == {"curvature": 2}


# --- infinitesimal ideal systems ------------------------------------------------


def test_iis_naive_ideal_in_heisenberg():
    h3 = catalog.heisenberg3()
    report = iis_check(h3, Subframe(3, [2]), Subframe(0, []))
    assert report_passed(report)
    assert check_names(report) == [
        "anchor_maps_into_fields",
        "basic_connection_preserves_sections",
        "basic_connection_preserves_fields",
        "basic_curvature_pairs_into_sections",
        "quotient_connection_flat",
    ]
    ob = iis_obstruction(h3, Subframe(3, [2]), Subframe(0, []))
    assert report_passed(ob)
    assert check_names(ob) == ["p1_difference_exact"]


def test_iis_tangent_plane():
    t = catalog.tangent_plane()
    report = iis_check(t, Subframe(2, [0]), Subframe(2, [0]))
    assert report_passed(report)
    ob = iis_obstruction(t, Subframe(2, [0]), Subframe(2, [0]),
                         l_values=(1, 2))
    assert report_passed(ob)
    assert check_names(ob) == ["p1_difference_exact", "p2_difference_exact"]


def test_iis_unstable_subframe_fails_condition_two():
    aff = catalog.aff1()
    report = iis_check(aff, Subframe(2, [0]), Subframe(0, []))
    assert failing(report) == ["basic_connection_preserves_sections"]
    witness = [c for c in report["checks"]
               if c["name"] == "basic_connection_preserves_sections"][0]["witness"]
    assert witness["value"] == "-1"


def test_iis_extension_must_preserve_ideal():
    al = catalog.aff1_action_line()
    t = tangent_algebroid(Chart(X))
    # an extension whose e2-Christoffel pushes e1 out of J = span(e1)
    bad = LinearConnection(t, [[[Poly.zero(X), Poly.one(X)],
                                [Poly.zero(X), Poly.zero(X)]]])
    with pytest.raises(MismatchError):
        iis_check(al, Subframe(2, [0]), Subframe(1, [0]), nabla_tilde=bad)


def test_iis_default_extension_exists():
    al = catalog.aff1_action_line()
    ext = iis_default_extension(al)
    assert ext.rank == al.rank
    report = iis_check(al, Subframe(2, [0]), Subframe(1, [0]),
                       nabla_tilde=ext)
    assert report_passed(report)


def iis_witness_reference(algebroid, j_subframe, fm_subframe, nabla_tilde):
    """Conditions 1-4 of iis_check, each scanned by nested loops to its first
    nonzero cell, with the basic connections and curvature of the references."""
    r, n = algebroid.rank, algebroid.chart.dim
    point = n == 0
    if point:
        gamma = [[list(algebroid.bracket_vector(i, j)) for j in range(r)]
                 for i in range(r)]
        bas_a = LinearConnection(algebroid, gamma)
    else:
        bas_a, bas_tm = basic_connections_reference(algebroid, nabla_tilde)
    j_set = set(j_subframe.indices)
    fm_set = set(fm_subframe.indices)

    witness = None
    ok1 = True
    for i in j_subframe.indices:
        for m in range(n):
            if m not in fm_set and not algebroid.anchor[i][m].is_zero():
                ok1, witness = False, {"section": i, "field": m,
                                       "value": str(algebroid.anchor[i][m])}
                break
        if not ok1:
            break
    checks = [("anchor_maps_into_fields", ok1, witness)]

    gamma_a = bas_a.christoffel
    witness = None
    ok2 = True
    for i in range(r):
        for j in j_subframe.indices:
            for k in range(r):
                if k not in j_set and not gamma_a[i][j][k].is_zero():
                    ok2, witness = False, {"frame": i, "section": j,
                                           "target": k,
                                           "value": str(gamma_a[i][j][k])}
                    break
            if not ok2:
                break
        if not ok2:
            break
    checks.append(("basic_connection_preserves_sections", ok2, witness))

    witness = None
    ok3 = True
    if not point:
        gamma_tm = bas_tm.christoffel
        for i in range(r):
            for m in fm_subframe.indices:
                for p in range(n):
                    if p not in fm_set and not gamma_tm[i][m][p].is_zero():
                        ok3, witness = False, {"frame": i, "field": m,
                                               "target": p,
                                               "value": str(gamma_tm[i][m][p])}
                        break
                if not ok3:
                    break
            if not ok3:
                break
    checks.append(("basic_connection_preserves_fields", ok3, witness))

    witness = None
    ok4 = True
    if not point:
        rbas = basic_curvature_reference(algebroid, nabla_tilde)
        for mi, mat in rbas.block(2, 1, 0).items():
            for m in fm_subframe.indices:
                for k in range(r):
                    if k not in j_set and not mat[k][m].is_zero():
                        ok4, witness = False, {"index": list(mi), "field": m,
                                               "target": k,
                                               "value": str(mat[k][m])}
                        break
                if not ok4:
                    break
            if not ok4:
                break
    checks.append(("basic_curvature_pairs_into_sections", ok4, witness))
    return [{"name": name, "pass": ok, **({} if w is None else {"witness": w})}
            for name, ok, w in checks]


def _subsets(size):
    return [c for k in range(size + 1)
            for c in itertools.combinations(range(size), k)]


def _sparse_extensions(algebroid):
    """Every tangent-frame connection with one or two Christoffel entries x_0.

    Their basic curvatures have few nonzero cells, so which cell a scan
    meets first depends on the scan order.
    """
    r, n = algebroid.rank, algebroid.chart.dim
    x, zero = Poly.variable(algebroid.variables, 0), Poly.zero(algebroid.variables)
    tangent = tangent_algebroid(algebroid.chart)
    cells = list(itertools.product(range(n), range(r), range(r)))
    for chosen in itertools.chain(itertools.combinations(cells, 1),
                                  itertools.combinations(cells, 2)):
        gamma = [[[x if (m, i, k) in chosen else zero for k in range(r)]
                  for i in range(r)] for m in range(n)]
        yield LinearConnection(tangent, gamma)


def _preserves(nabla_tilde, j_subframe, fm_subframe):
    christoffel = nabla_tilde.christoffel
    return all(christoffel[m][i][k].is_zero()
               for m in fm_subframe.indices for i in j_subframe.indices
               for k in j_subframe.complement())


def swapped_plane():
    """TM of the chart (x, y) in the frame (d/dy, d/dx).

    Its anchor has a zero first entry, so the anchor scan's order shows.
    """
    chart = Chart(("x", "y"))
    return Algebroid.from_brackets(chart, 2, [["0", "1"], ["1", "0"]], {})


IIS_CASES = {
    "aff1": catalog.aff1,
    "heisenberg3": catalog.heisenberg3,
    "aff1_action_line": catalog.aff1_action_line,
    "tangent_plane": catalog.tangent_plane,
    "swapped_plane": swapped_plane,
}


@pytest.mark.parametrize("name", list(IIS_CASES))
def test_iis_checks_match_the_cell_scans(name):
    algebroid = IIS_CASES[name]()
    r, n = algebroid.rank, algebroid.chart.dim
    extensions = [None]
    if n:
        # the default extension, then random dense and sparse ones, each
        # wherever it preserves J along FM
        tangent = tangent_algebroid(algebroid.chart)
        rng = random.Random(sum(map(ord, name)))
        extensions = [iis_default_extension(algebroid)]
        extensions += [random_linear_connection(rng, tangent, r) for _ in range(2)]
        extensions += _sparse_extensions(algebroid)
    failed = 0
    for k, ext in enumerate(extensions):
        for j_indices in _subsets(r):
            for fm_indices in _subsets(n):
                j_sub, fm_sub = Subframe(r, j_indices), Subframe(n, fm_indices)
                if k and not _preserves(ext, j_sub, fm_sub):
                    continue
                report = iis_check(algebroid, j_sub, fm_sub, nabla_tilde=ext)
                assert report["checks"][:4] == iis_witness_reference(
                    algebroid, j_sub, fm_sub, ext)
                failed += len(failing(report))
    assert failed
