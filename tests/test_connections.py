"""Connections, twisted differentials, connections up to homotopy."""

import gc
import itertools
import random
from fractions import Fraction

import pytest

from gradweil import catalog
from gradweil.connections import (
    ConnectionUpToHomotopy,
    LinearConnection,
    cuth_difference,
    extend_connection,
    induced_hom_connection,
    restrict_connection,
    two_term_connection,
)
from gradweil.errors import InternalCheckError, MismatchError, ParseError
from gradweil.algebroid import Chart, Subframe, tangent_algebroid
from gradweil.forms import Form, GradedBundle, TotalForm, mat_mul, mat_zero
from gradweil.randgen import (
    random_cuth,
    random_form,
    random_linear_connection,
    random_matrix,
    random_total_form,
)
from gradweil.ring import Poly
from oracles import (LINE, basis_element, covariant, curvature_formula,
                     curvature_power, element, flat_borel_module, graded_commutator, hat,
                     sort_with_sign, tangent_line, transposed)
from test_algebroid import PRESENTATIONS
from test_forms import apply_part_reference, mat_add, single_block, unhat_from_sections


def scalar_aff1_connection():
    """Rank-1 bundle over aff(1) with Gamma(e1) = 2, Gamma(e2) = 3."""
    a = catalog.aff1()
    two = Poly.constant((), 2)
    three = Poly.constant((), 3)
    return LinearConnection(a, [[[two]], [[three]]])


def basis_section(nab, alpha):
    """The constant section f_alpha of a linear connection's bundle, as a 0-form."""
    return Form(nab.variables, nab.algebroid.rank, 0, nab.rank,
                {((), alpha): Poly.one(nab.variables)})


def test_twisted_differential_on_basis_section():
    nab = scalar_aff1_connection()
    e = basis_section(nab, 0)
    de = nab.apply(e)
    two, three = Poly.constant((), 2), Poly.constant((), 3)
    assert de == Form((), 2, 1, 1, {((0,), 0): two, ((1,), 0): three})


def test_scalar_curvature_value():
    # R(e1,e2) = rho_1(3) - rho_2(2) + [2,3] - Gamma_{[e1,e2]} = -3
    nab = scalar_aff1_connection()
    R = nab.curvature()
    assert set(R.blocks) == {(2, 0, 0)}
    entries = R.blocks[(2, 0, 0)]
    assert set(entries) == {(0, 1)}
    assert entries[(0, 1)][0][0] == Fraction(-3)
    assert not nab.is_flat()


def test_curvature_is_d_squared():
    rng = random.Random(7)
    for a in (catalog.aff1(), catalog.sl2(), catalog.aff1_action_line()):
        for _ in range(8):
            r = rng.randint(1, 3)
            nab = random_linear_connection(rng, a, r)
            R = nab.curvature()
            omega = random_form(rng, a.variables, a.rank,
                                rng.randint(0, 1), fiber_dim=r)
            assert nab.apply(nab.apply(omega)) == hat(R, omega)


def test_twisted_differential_leibniz():
    rng = random.Random(11)
    a = catalog.aff1_action_line()
    for _ in range(15):
        r = rng.randint(1, 2)
        nab = random_linear_connection(rng, a, r)
        p = rng.randint(0, 1)
        alpha = random_form(rng, a.variables, a.rank, p)
        omega = random_form(rng, a.variables, a.rank, rng.randint(0, 1),
                            fiber_dim=r)
        lhs = nab.apply(alpha.wedge(omega))
        sign = -1 if p % 2 else 1
        rhs = a.d(alpha).wedge(omega) + alpha.wedge(nab.apply(omega)).scale(sign)
        assert lhs == rhs


def test_hom_connection_leibniz():
    rng = random.Random(13)
    a = catalog.aff1_action_line()
    src = random_linear_connection(rng, a, 2)
    dst = random_linear_connection(rng, a, 2)
    hom = induced_hom_connection(src, dst)
    assert hom.rank == 4
    for _ in range(10):
        phi = random_matrix(rng, 2, 2, a.variables)
        s = [p for (p,) in random_matrix(rng, 2, 1, a.variables)]
        for i in range(a.rank):
            # (nabla^Hom phi)(s) + phi(nabla s) == nabla'(phi s)
            dphi_flat = covariant(hom, i, [p for row in phi for p in row])
            dphi = [dphi_flat[my * 2:(my + 1) * 2] for my in range(2)]
            phi_s = [sum((phi[m][al] * s[al] for al in range(2)),
                         Poly.zero(a.variables)) for m in range(2)]
            lhs = [sum((dphi[m][al] * s[al] for al in range(2)),
                       Poly.zero(a.variables)) for m in range(2)]
            ds = covariant(src, i, s)
            rhs = covariant(dst, i, phi_s)
            mid = [sum((phi[m][al] * ds[al] for al in range(2)),
                       Poly.zero(a.variables)) for m in range(2)]
            for m in range(2):
                assert lhs[m] + mid[m] == rhs[m]


def test_a_linear_connection_refers_to_itself_nowhere():
    # its one summand's connection is itself, computed on each read: a stored
    # self-reference would make every connection a cycle only the GC frees
    rng = random.Random(17)
    nab = random_linear_connection(rng, catalog.aff1_action_line(), 2)
    nab.curvature()
    assert nab.nablas == {0: nab} and nab.nablas[0] is nab
    slots = [name for cls in type(nab).__mro__ for name in getattr(cls, "__slots__", ())]
    assert {"rank", "christoffel", "D", "_omega", "_curvature"} <= set(slots)
    for name in slots:
        value = getattr(nab, name, None)
        assert value is not nab and nab not in gc.get_referents(value), name
    assert nab not in gc.get_referents(nab)


def test_hom_connection_scalar_is_difference():
    # for line bundles, G^Hom = G' - G; equal connections induce d_A itself
    a = catalog.aff1()
    nab = scalar_aff1_connection()
    hom = induced_hom_connection(nab, nab)
    assert all(m[0][0].is_zero() for m in hom.christoffel)
    assert hom.is_flat()


def test_connection_json_source_major():
    a = catalog.aff1()
    data = {"bundle_degree": 0, "rank": 2, "christoffel": [
        {"frame": 0, "matrix": [["0", "1"], ["0", "0"]]}
    ]}
    nab = LinearConnection.from_json(data, a, 2)
    # wire matrix[alpha][beta]: nabla_{e1} s_1 = s_2, kept as the wire has it
    out = covariant(nab, 0, [Poly.one(()), Poly.zero(())])
    assert [str(c) for c in out] == ["0", "1"]
    assert nab.christoffel[0][0][1] == 1


def test_a_linear_connection_reads_its_rank_off_the_source_major_matrices():
    # an (algebroid, rank, matrices) call fails rather than being read as
    # matrices of another orientation
    a = catalog.aff1()
    with pytest.raises(TypeError):
        LinearConnection(a, 1, [[[2]]])
    nab = LinearConnection(a, [[[0, "1/2"], [0, 0]], [[0, 0], [0, 0]]])
    assert nab.rank == 2
    assert covariant(nab, 0, [Poly.one(()), Poly.zero(())]) == [Poly.zero(()),
                                                                  Poly.constant((), "1/2")]
    # entries coerce as an algebroid's do: a Poly on another chart is refused
    with pytest.raises(MismatchError, match="differ from the chart"):
        LinearConnection(a, [[[Poly.one(("x",))]], [[0]]])
    with pytest.raises(MismatchError, match="one Christoffel matrix per frame"):
        LinearConnection(a, [[[0]]])
    with pytest.raises(MismatchError, match="rank x rank"):
        LinearConnection(a, [[[0]], [[0, 0], [0, 0]]])


def test_connection_json_rank_required():
    a = catalog.aff1()
    with pytest.raises(TypeError):
        LinearConnection.from_json({"christoffel": []}, a)
    nab = LinearConnection.from_json({"christoffel": []}, a, rank=2)
    assert nab.rank == 2 and nab.is_flat()


def test_extend_restrict_connection():
    sl2 = catalog.sl2()
    borel = Subframe(3, [0, 1])
    b = sl2.restrict(borel)
    nab = LinearConnection(b, flat_borel_module())
    ext = extend_connection(sl2, borel, nab)
    assert ext.algebroid is sl2 and ext.rank == nab.rank
    back = restrict_connection(ext, borel)
    assert back.christoffel == nab.christoffel
    # default extension sets complement Christoffels to zero
    assert all(all(p.is_zero() for row in ext.christoffel[2] for p in row)
               for _ in [0])


def test_two_term_connection_block_placement():
    a = catalog.aff1()
    one = Poly.one(())
    n0 = LinearConnection.zero(a, 1)
    n1 = LinearConnection.zero(a, 1)
    D = two_term_connection(a, n0, n1, [[one]], {(0, 1): [[one]]})
    assert D.bundle.summands == ((0, 1), (1, 1))
    assert set(D.D.blocks) == {(0, 0, 1), (2, 1, 0)}
    assert D.D.total_degree == 1
    assert D.is_normalized()


def shift_connection(nabla, one_form_block):
    """nabla + B for an End-valued 1-form block {(i,): matrix}, B's matrices
    with the target index as row."""
    christoffel = []
    for i, gamma in enumerate(nabla.christoffel):
        delta = one_form_block.get((i,))
        christoffel.append(gamma if delta is None else mat_add(gamma, tuple(zip(*delta))))
    return LinearConnection(nabla.algebroid, christoffel)


def normalize(conn):
    """Absorb the grading-preserving 1-form part of D into the connections.

    The operator cal_D is unchanged; only the (nabla, D) splitting moves.
    """
    nablas = dict(conn.nablas)
    blocks = {}
    for (i, l, j), entries in conn.D.blocks.items():
        if i == 1 and l == j:
            nablas[l] = shift_connection(nablas[l], entries)
        else:
            blocks[(i, l, j)] = entries
    D = TotalForm(conn.variables, conn.algebroid.rank, conn.bundle, conn.bundle, 1, blocks)
    return ConnectionUpToHomotopy(conn.algebroid, conn.bundle, nablas, D)


def test_cuth_normalize_preserves_operator():
    rng = random.Random(17)
    a = catalog.sl2()
    E = GradedBundle([(0, 2), (1, 1)])
    for _ in range(10):
        D = random_cuth(rng, a, E)
        if D.is_normalized():
            # force a grading-preserving 1-form part, then renormalize
            shift = single_block(
                a.variables, a.rank, E, E, (1, 0, 0),
                {(0,): random_matrix(rng, 2, 2, a.variables)})
            D = ConnectionUpToHomotopy(a, E, D.nablas, D.D + shift)
        N = normalize(D)
        assert N.is_normalized()
        for z, r in E.summands:
            for alpha in range(r):
                x = basis_element(a.variables, a.rank, E, z, alpha)
                before = D.apply(x)
                after = N.apply(x)
                assert (before + after.scale(-1)).is_zero()


def test_cuth_curvature_is_square():
    rng = random.Random(19)
    a = catalog.aff1_action_line()
    E = GradedBundle([(0, 1), (1, 2)])
    for _ in range(8):
        D = random_cuth(rng, a, E)
        R = D.curvature()
        assert R.total_degree == 2
        for z, r in E.summands:
            for alpha in range(r):
                x = basis_element(a.variables, a.rank, E, z, alpha)
                lhs = D.apply(D.apply(x))
                rhs = hat(R, x)
                assert (lhs + rhs.scale(-1)).is_zero()


def test_d_end_is_graded_commutator_with_operator():
    rng = random.Random(23)
    a = catalog.aff1()
    E = GradedBundle([(0, 2), (1, 1)])
    from gradweil.randgen import random_total_form
    for _ in range(8):
        D = random_cuth(rng, a, E)
        K = random_total_form(rng, a.variables, a.rank, E,
                              rng.choice([0, 1, 2]))
        dK = D.d_end(K)
        sign = -1 if K.total_degree % 2 else 1
        for z, r in E.summands:
            for alpha in range(r):
                x = basis_element(a.variables, a.rank, E, z, alpha)
                lhs = hat(dK, x)
                rhs = D.apply(hat(K, x)) + hat(K, D.apply(x)).scale(-sign)
                assert (lhs + rhs.scale(-1)).is_zero()


def test_bianchi_first_power():
    rng = random.Random(29)
    a = catalog.sl2()
    E = GradedBundle([(0, 1), (1, 1)])
    for _ in range(6):
        D = random_cuth(rng, a, E)
        assert D.d_end(D.curvature()).is_zero()


def test_cuth_difference_matches_operators():
    rng = random.Random(31)
    a = catalog.aff1()
    E = GradedBundle([(0, 2), (1, 1)])
    for _ in range(8):
        D1 = random_cuth(rng, a, E)
        D2 = random_cuth(rng, a, E)
        diff = cuth_difference(D2, D1)
        assert diff.total_degree == 1
        for z, r in E.summands:
            for alpha in range(r):
                x = basis_element(a.variables, a.rank, E, z, alpha)
                lhs = D2.apply(x) + D1.apply(x).scale(-1)
                rhs = hat(diff, x)
                assert (lhs + rhs.scale(-1)).is_zero()


# --- the Koszul formula as the oracle for the connection differentials ----------


def koszul_linear_d(nabla, form):
    """d_nabla of a bundle-valued form by the Koszul formula on frame elements.

        (d w)(a_0..a_k) = sum_t (-1)^t nabla_{a_t} w(.. a_t ..)
                        + sum_{s<t} (-1)^{s+t} w([a_s,a_t], .. a_s .. a_t ..)

    It shares no code with the d_A table or the connection form.
    """
    A = nabla.algebroid
    k = form.degree
    coeffs = {}
    for out_idx in itertools.combinations(range(A.rank), k + 1):
        acc = [Poly.zero(A.variables) for _ in range(nabla.rank)]
        for t in range(k + 1):
            rest = out_idx[:t] + out_idx[t + 1:]
            vec = [form.get(rest, a) for a in range(form.fiber_dim)]
            if all(p.is_zero() for p in vec):
                continue
            step = covariant(nabla, out_idx[t], vec)
            if t % 2:
                step = [-p for p in step]
            acc = [a + s for a, s in zip(acc, step)]
        for s in range(k + 1):
            for t in range(s + 1, k + 1):
                rest = tuple(x for idx, x in enumerate(out_idx)
                             if idx != s and idx != t)
                sign_st = -1 if (s + t) % 2 else 1
                for m, c in enumerate(A.structure[out_idx[s]][out_idx[t]]):
                    if c.is_zero():
                        continue
                    sgn, mi = sort_with_sign((m,) + rest)
                    if sgn == 0:
                        continue
                    factor = c if sign_st * sgn == 1 else -c
                    acc = [a + factor * form.get(mi, alpha)
                           for alpha, a in enumerate(acc)]
        for beta, p in enumerate(acc):
            if not p.is_zero():
                coeffs[(out_idx, beta)] = p
    return Form(A.variables, A.rank, k + 1, nabla.rank, coeffs)


def curvature_matrix_reference(nabla, i, j):
    """R(e_i, e_j) = rho_i G_j - rho_j G_i + [G_i, G_j] - G_[e_i, e_j], target-major."""
    A = nabla.algebroid
    gi, gj = nabla.christoffel[i], nabla.christoffel[j]
    out = [[Poly.zero(A.variables) for _ in range(nabla.rank)]
           for _ in range(nabla.rank)]
    for b in range(nabla.rank):
        for a in range(nabla.rank):
            acc = A.anchor_apply(i, gj[a][b]) - A.anchor_apply(j, gi[a][b])
            for m in range(nabla.rank):
                acc = acc + gi[m][b] * gj[a][m] - gj[m][b] * gi[a][m]
            for m, c in enumerate(A.structure[i][j]):
                if not c.is_zero():
                    acc = acc - c * nabla.christoffel[m][a][b]
            out[b][a] = acc
    return tuple(tuple(row) for row in out)


def d_hom_reference(total_form, nablas):
    """d_nabla^End of a TotalForm by the Koszul formula, block by block.

    Block (i, l, j) is differentiated with the Hom connection of the pair
    (nabla^l source, nabla^j target): the frame term acts on a matrix M as
    rho(M) + G^j M - M G^l, with no graded sign.
    """
    A = next(iter(nablas.values())).algebroid
    variables = A.variables
    blocks = {}
    for (i, l, j), entries in total_form.blocks.items():
        g_src, g_dst = transposed(nablas[l].christoffel), transposed(nablas[j].christoffel)
        rows, cols = total_form.dst.rank(j), total_form.src.rank(l)

        def block_matrix(mi, _entries=entries, _rows=rows, _cols=cols):
            mat = _entries.get(mi)
            return mat if mat is not None else mat_zero(_rows, _cols, variables)

        out_entries = blocks.setdefault((i + 1, l, j), {})
        for out_idx in itertools.combinations(range(A.rank), i + 1):
            acc = [[Poly.zero(variables) for _ in range(cols)] for _ in range(rows)]
            for t in range(i + 1):
                rest = out_idx[:t] + out_idx[t + 1:]
                mat = block_matrix(rest)
                frame = out_idx[t]
                gm = mat_mul(g_dst[frame], mat)
                mg = mat_mul(mat, g_src[frame])
                for b in range(rows):
                    for a in range(cols):
                        val = A.anchor_apply(frame, mat[b][a]) + gm[b][a] - mg[b][a]
                        acc[b][a] = acc[b][a] + (-val if t % 2 else val)
            for s in range(i + 1):
                for t in range(s + 1, i + 1):
                    rest = tuple(x for idx, x in enumerate(out_idx)
                                 if idx != s and idx != t)
                    sign_st = -1 if (s + t) % 2 else 1
                    for m, c in enumerate(A.structure[out_idx[s]][out_idx[t]]):
                        if c.is_zero():
                            continue
                        sgn, mi = sort_with_sign((m,) + rest)
                        if sgn == 0:
                            continue
                        mat = block_matrix(mi)
                        factor = c if sign_st * sgn == 1 else -c
                        for b in range(rows):
                            for a in range(cols):
                                acc[b][a] = acc[b][a] + factor * mat[b][a]
            out_entries[out_idx] = acc
    return TotalForm(variables, total_form.frame_rank, total_form.src,
                     total_form.dst, total_form.total_degree + 1, blocks)


# bundles with summands of odd fiber degree, which the commutator sign sees
ODD_BUNDLES = (
    GradedBundle([(0, 1), (1, 2)]),
    GradedBundle([(-1, 1), (0, 2), (1, 1)]),
    GradedBundle([(0, 1), (1, 1), (2, 1), (3, 1)]),
)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_linear_d_matches_the_koszul_formula(name):
    a = PRESENTATIONS[name]()
    rng = random.Random(sum(map(ord, name)) + 1)
    for rank in (1, 2, 3):
        nab = random_linear_connection(rng, a, rank, max_poly_degree=2)
        for degree in range(a.rank + 1):
            for _ in range(2):
                form = random_form(rng, a.variables, a.rank, degree,
                                   fiber_dim=rank, max_poly_degree=2, density=3)
                assert nab.apply(form) == koszul_linear_d(nab, form)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_curvature_matches_the_frame_formula(name):
    a = PRESENTATIONS[name]()
    rng = random.Random(sum(map(ord, name)) + 2)
    for rank, label in ((1, 0), (2, -1), (3, 2)):
        nab = random_linear_connection(rng, a, rank, max_poly_degree=2)
        R = ConnectionUpToHomotopy(a, GradedBundle([(label, rank)]), {label: nab}).curvature()
        assert set(R.blocks) <= {(2, label, label)}
        zero = mat_zero(rank, rank, a.variables)
        for i, j in itertools.combinations(range(a.rank), 2):
            assert (R.block(2, label, label).get((i, j), zero)
                    == curvature_matrix_reference(nab, i, j))


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_d_end_is_d_a_plus_commutator_with_the_connection_form(name):
    a = PRESENTATIONS[name]()
    rng = random.Random(sum(map(ord, name)) + 3)
    nonzero = 0
    for bundle in ODD_BUNDLES:
        conn = random_cuth(rng, a, bundle)
        gamma = conn.connection_form()
        for total_degree in range(-1, 4):
            K = random_total_form(rng, a.variables, a.rank, bundle, total_degree)
            expected = d_hom_reference(K, conn.nablas)
            assert a.d_total(K) + graded_commutator(gamma, K) == expected
            nonzero += not expected.is_zero()
    assert nonzero


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_connection_form_is_the_checked_build_of_the_christoffel_matrices(name):
    # Gamma is built from the checked matrices without the checked constructor;
    # it must store what that constructor stores: no zero entry, zero matrix
    # or empty block, here with one frame direction and one summand left zero
    a = PRESENTATIONS[name]()
    rng = random.Random(sum(map(ord, name)) + 5)
    for bundle in ODD_BUNDLES:
        conn = random_cuth(rng, a, bundle, max_poly_degree=2)
        z0 = bundle.degrees()[0]
        christoffel = list(conn.nablas[z0].christoffel)
        christoffel[0] = mat_zero(len(christoffel[0]), len(christoffel[0]), a.variables)
        conn.nablas[z0] = LinearConnection(a, christoffel)
        conn.nablas[bundle.degrees()[-1]] = LinearConnection.zero(a, bundle.summands[-1][1])
        gamma = conn.connection_form()
        blocks = {(1, z, z): {(i,): m for i, m in enumerate(transposed(conn.nablas[z].christoffel))}
                  for z in bundle.degrees()}
        assert gamma == TotalForm(a.variables, a.rank, bundle, bundle, 1, blocks)
        assert (1, bundle.degrees()[-1], bundle.degrees()[-1]) not in gamma._kernel[1]
        assert all(mask != 1 for mask in gamma._kernel[1].get((1, z0, z0), {}))
        assert all(rows for entries in gamma._kernel[1].values() for rows in entries.values())


def test_connection_form_refuses_an_exponent_at_the_limit():
    # the limit is checked where an exponent enters a Poly, so no connection
    # form can hold one: its Christoffel symbol is refused as it is read
    a = tangent_line()
    x = a.variables[0]
    payload = {"rank": 1, "christoffel": [{"frame": 0, "matrix": [[f"{x}^4294967296"]]}]}
    with pytest.raises(ParseError, match=r"4294967296 .* 2\^32"):
        LinearConnection.from_json(payload, a, 1)
    with pytest.raises(MismatchError, match=r"4294967296 .* 2\^32"):
        LinearConnection(a, [[[Poly(a.variables, {(1 << 32,): 1})]]])


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_curvature_blockwise_matches_the_koszul_route(name):
    a = PRESENTATIONS[name]()
    rng = random.Random(sum(map(ord, name)) + 4)
    nonzero = 0
    for bundle in ODD_BUNDLES:
        conn = random_cuth(rng, a, bundle)
        expected = d_hom_reference(conn.D, conn.nablas) + conn.D.wedge(conn.D)
        for z in bundle.degrees():
            entries = {(i, j): curvature_matrix_reference(conn.nablas[z], i, j)
                       for i, j in itertools.combinations(range(a.rank), 2)}
            expected = expected + TotalForm(a.variables, a.rank, bundle, bundle,
                                            2, {(2, z, z): entries})
        assert conn.curvature() == expected
        nonzero += not expected.is_zero()
    assert nonzero


# --- d^End from the kernel against the operator commutator -----------------------


def d_end_reference(conn, K):
    """Unhat of [cal_D, hat(K)] = cal_D hat(K) - (-1)^|K| hat(K) cal_D.

    Squares operators on basis sections; it shares no code with
    `Algebroid.d_total` or `graded_commutator`.
    """
    sign = -1 if K.total_degree % 2 else 1

    def action(z, alpha):
        e = basis_element(conn.variables, conn.algebroid.rank, conn.bundle, z, alpha)
        first = conn.apply(hat(K, e))
        second = hat(K, conn.apply(e))
        return first - second if sign == 1 else first + second

    return unhat_from_sections(action, conn.variables, conn.algebroid.rank,
                               conn.bundle, conn.bundle, K.total_degree + 1)


D_END_BUNDLES = (
    GradedBundle([(0, 2), (1, 2), (2, 1)]),
    GradedBundle([(-1, 1), (0, 2), (1, 1)]),
)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_d_end_matches_the_operator_commutator(name):
    a = PRESENTATIONS[name]()
    rng = random.Random(sum(map(ord, name)) + 6)
    nonzero = 0
    for bundle in D_END_BUNDLES:
        conn = random_cuth(rng, a, bundle)
        for total_degree in (-1, 0, 1, 2):
            K = random_total_form(rng, a.variables, a.rank, bundle, total_degree)
            dK = conn.d_end(K)
            assert dK.total_degree == total_degree + 1
            assert dK == d_end_reference(conn, K)
            assert dK == a.d_total(K) + graded_commutator(conn.omega(), K)
            nonzero += not dK.is_zero()
    assert nonzero


def test_d_end_does_not_square_operators(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("d_end squared the operator")

    monkeypatch.setattr(ConnectionUpToHomotopy, "curvature", refuse)
    monkeypatch.setattr(ConnectionUpToHomotopy, "apply", refuse)
    rng = random.Random(71)
    a = catalog.sl2()
    conn = random_cuth(rng, a, D_END_BUNDLES[0])
    K = random_total_form(rng, a.variables, a.rank, D_END_BUNDLES[0], 1)
    conn.d_end(K)


# --- cal_D = d_A + hat(Omega) is the one operator path ---------------------------


def random_element(rng, algebroid, bundle):
    """An element of the total complex, a one-column form from R[0] of one
    total degree s, with a random t-form in E_z for every summand z with
    t = s - z a form degree; s is drawn so that at least two summands carry
    a nonzero part."""
    rank = algebroid.rank
    spans = [s for s in range(bundle.degrees()[0], bundle.degrees()[-1] + rank + 1)
             if sum(0 <= s - z <= rank for z in bundle.degrees()) >= 2]
    s = rng.choice(spans)
    while True:
        parts = [element(bundle, random_form(rng, algebroid.variables, rank, s - z, fiber_dim=r,
                                             max_poly_degree=2, density=3), z)
                 for z, r in bundle.summands if 0 <= s - z <= rank]
        if sum(not x.is_zero() for x in parts) >= 2:
            return sum(parts, TotalForm.zero(algebroid.variables, rank, LINE, bundle, s))


def cuth_apply_reference(conn, x):
    """cal_D by the Koszul formula for each summand's d_nabla plus hat(D) entrywise."""
    out = apply_part_reference(conn.D, x)
    for (t, _, z), columns in x.blocks.items():
        form = Form(x.variables, x.frame_rank, t, x.dst.rank(z),
                    {(mi, beta): poly for mi, column in columns.items()
                     for beta, (poly,) in enumerate(column)})
        out = out + element(conn.bundle, koszul_linear_d(conn.nablas[z], form), z)
    return out


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_cuth_apply_matches_the_koszul_reference_on_random_elements(name):
    a = PRESENTATIONS[name]()
    rng = random.Random(sum(map(ord, name)) + 7)
    multi_part = 0
    for bundle in ODD_BUNDLES:
        conn = random_cuth(rng, a, bundle)
        # four draws: on a rank-1 frame an image has two parts only where D
        # has a 0-form block that shifts the element's part in E_s
        for _ in range(4):
            x = random_element(rng, a, bundle)
            image = conn.apply(x)
            assert image.total_degree == x.total_degree + 1
            assert image == cuth_apply_reference(conn, x)
            multi_part += len(x.blocks) > 1 and len(image.blocks) > 1
    assert multi_part


def test_cuth_apply_makes_one_kernel_pass_per_element(monkeypatch):
    counts = {}
    rng = random.Random(89)
    a = catalog.aff1_action_line()
    conn = random_cuth(rng, a, ODD_BUNDLES[1])
    x = random_element(rng, a, conn.bundle)
    assert len(x.blocks) > 1
    conn.omega()
    _count_calls(monkeypatch, TotalForm, "_product", counts)
    image = conn.apply(x)
    assert counts == {"_product": 1}
    assert image == cuth_apply_reference(conn, x)


# (variables, frame rank) of an operand that aff1_action_line, over the chart
# (x,) with frame rank 2, cannot read
FOREIGN_FRAMES = {"another_chart": (("x", "y"), 2), "the_point": ((), 2),
                  "a_larger_frame_rank": (("x",), 3), "a_smaller_frame_rank": (("x",), 1)}


@pytest.mark.parametrize("frame", sorted(FOREIGN_FRAMES))
def test_the_operator_and_d_end_refuse_an_operand_over_another_frame(frame):
    # the packed kernel would read such an operand's monomials and
    # multi-indices against the connection's own frame: an IndexError, a
    # TypeError or a wrong image; each is refused by its shape instead
    rng = random.Random(f"foreign:{frame}")
    a = catalog.aff1_action_line()
    assert (a.variables, a.rank) == (("x",), 2)
    nab = random_linear_connection(rng, a, 2)
    conn = random_cuth(rng, a, ODD_BUNDLES[0])
    variables, rank = FOREIGN_FRAMES[frame]
    form = random_form(rng, variables, rank, 1, fiber_dim=2, density=3)
    K = random_total_form(rng, variables, rank, conn.bundle, 1)
    assert not form.is_zero() and not K.is_zero()
    for call, operand in ((nab.apply, form), (conn.apply, element(conn.bundle, form, 1)),
                          (conn.d_end, K)):
        with pytest.raises(MismatchError):
            call(operand)


def test_the_operator_refuses_an_operand_outside_its_total_complex():
    rng = random.Random(109)
    a = catalog.aff1_action_line()
    variables, rank = a.variables, a.rank
    nab = random_linear_connection(rng, a, 2)
    conn = random_cuth(rng, a, ODD_BUNDLES[0])
    outside = [
        random_total_form(rng, variables, rank, conn.bundle, 0),   # source E, not R[0]
        random_form(rng, variables, rank, 1, fiber_dim=2, density=3),   # target R^2[0]
        # target another bundle
        element(ODD_BUNDLES[1], random_form(rng, variables, rank, 1, density=3), 1),
    ]
    for operand in outside:
        assert not operand.is_zero()
        with pytest.raises(MismatchError):
            conn.apply(operand)
    with pytest.raises(MismatchError):
        nab.apply(random_form(rng, variables, rank, 1, fiber_dim=3, density=3))
    with pytest.raises(MismatchError):
        conn.d_end(random_total_form(rng, variables, rank, ODD_BUNDLES[1], 1))


def test_operator_squaring_needs_no_wedge_and_no_d_total(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the operator left the hat action")

    rng = random.Random(97)
    for a in (catalog.sl2(), catalog.aff1_action_line()):
        for bundle in ODD_BUNDLES:
            conn = random_cuth(rng, a, bundle)
            expected = curvature_formula(conn)
            with monkeypatch.context() as patched:
                patched.setattr(TotalForm, "wedge", refuse)
                patched.setattr(type(a), "d_total", refuse)
                squared = unhat_from_sections(
                    lambda z, alpha: conn.apply(conn.apply(
                        basis_element(a.variables, a.rank, bundle, z, alpha))),
                    a.variables, a.rank, bundle, bundle, 2)
            assert squared == expected
            assert not squared.is_zero()


@pytest.mark.parametrize("name", ["sl2", "fractional_point", "aff1_action_line",
                                  "fractional_chart"])
def test_batched_operator_squares_match_the_per_section_squares(name, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the curvature left the hat action")

    a = PRESENTATIONS[name]()
    rng = random.Random(sum(map(ord, name)) + 8)
    for bundle in ODD_BUNDLES:
        conn = random_cuth(rng, a, bundle)
        expected = unhat_from_sections(
            lambda z, alpha: conn.apply(conn.apply(
                basis_element(a.variables, a.rank, bundle, z, alpha))),
            a.variables, a.rank, bundle, bundle, 2)
        with monkeypatch.context() as patched:
            patched.setattr(TotalForm, "wedge", refuse)
            patched.setattr(type(a), "d_total", refuse)
            squares = conn.curvature()
        assert squares == expected
        assert not squares.is_zero()


def test_first_curvature_makes_two_kernel_passes(monkeypatch):
    # one pass of hat(Omega) over all basis sections and one over their
    # images with d_A fused, whatever the bundle's rank
    rng = random.Random(101)
    for a in (catalog.sl2(), catalog.aff1_action_line()):
        for bundle in ODD_BUNDLES + D_END_BUNDLES:
            conn = random_cuth(rng, a, bundle)
            conn.omega()
            counts = {}
            with monkeypatch.context() as patched:
                _count_calls(patched, TotalForm, "_product", counts)
                _count_calls(patched, type(a), "_d_into", counts)
                R = conn.curvature()
                assert counts == {"_product": 2, "_d_into": 1}
                assert conn.curvature() is R
                assert counts == {"_product": 2, "_d_into": 1}


def _curvature_passes(monkeypatch, conn):
    """The curvature of `conn` and the (right operand, d_a, result) of each
    kernel pass it makes."""
    passes = []
    original = TotalForm._product

    def record(self, right, right_src, trace=None, d_a=None):
        out = original(self, right, right_src, trace, d_a)
        passes.append((right, d_a, out))
        return out

    with monkeypatch.context() as patched:
        patched.setattr(TotalForm, "_product", record)
        R = conn.curvature()
    return R, passes


def _check_the_two_passes(monkeypatch, conn):
    omega = conn.omega()
    identity = TotalForm.identity(conn.variables, conn.algebroid.rank, conn.bundle)
    R, ((first, d_first, images), (second, d_second, _)) = _curvature_passes(monkeypatch,
                                                                             conn)
    # pass 1 is hat(Omega) on the basis sections and returns Omega's stored form
    assert first == identity._kernel and d_first is None
    assert images == omega._kernel
    # pass 2 is hat(Omega) on those images with d_A fused
    assert second is images and d_second is conn.algebroid
    assert R == curvature_formula(conn)
    return R


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_curvature_passes_match_omega_and_the_unfused_formula(name, monkeypatch):
    a = PRESENTATIONS[name]()
    rng = random.Random(f"passes:{name}")
    nonzero = 0
    for bundle in ODD_BUNDLES + D_END_BUNDLES:
        nonzero += not _check_the_two_passes(monkeypatch, random_cuth(rng, a, bundle)).is_zero()
    assert nonzero


@pytest.mark.parametrize("n", [2, 3, 4])
def test_linear_curvature_passes_on_charts_match_the_unfused_formula(n, monkeypatch):
    a = tangent_algebroid(Chart(("x", "y", "z", "w")[:n]))
    rng = random.Random(f"passes:TR^{n}")
    for _ in range(3):
        nab = random_linear_connection(rng, a, 2)
        conn = ConnectionUpToHomotopy(a, GradedBundle([(0, 2)]), {0: nab})
        R = _check_the_two_passes(monkeypatch, conn)
        assert nab.curvature() == R
        assert not R.is_zero()


def test_d_a_is_skipped_where_it_is_zero(monkeypatch):
    calls = []
    owner = type(catalog.sl2())

    def spy(name, original):
        def record(self, *args):
            calls.append((name, args[0]))
            return original(self, *args)
        return record

    for name in ("d", "d_total", "_d_into"):
        monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
    rng = random.Random(103)
    bundle = D_END_BUNDLES[0]
    # no anchor and no structure: no d_A call at all
    conn = random_cuth(rng, catalog.abelian(4), bundle)
    assert not conn.curvature().is_zero()
    conn.apply(random_element(rng, conn.algebroid, bundle))
    assert calls == []
    # sl2: d_A of a basis section, a constant 0-form, is never formed; the
    # curvature adds d_A once, inside its last kernel pass
    conn = random_cuth(rng, catalog.sl2(), bundle)
    assert not conn.curvature().is_zero()
    assert [name for name, _ in calls] == ["_d_into"]
    sections = TotalForm.identity((), 3, bundle)._kernel[1]   # its columns
    assert all(argument != sections for _, argument in calls)
    for z, r in bundle.summands:
        for alpha in range(r):
            conn.apply(basis_element((), 3, bundle, z, alpha))
    assert "d" not in [name for name, _ in calls]


# --- the curvature is computed, and checked, once per connection -----------------


def _count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


def _count_first_curvatures(monkeypatch, counts):
    """Count, under "curvature", the curvature calls that compute one: those
    on a connection up to homotopy that keeps none yet."""
    original = ConnectionUpToHomotopy.curvature

    def spy(self):
        if self._curvature is None:
            counts["curvature"] = counts.get("curvature", 0) + 1
        return original(self)

    monkeypatch.setattr(ConnectionUpToHomotopy, "curvature", spy)


def test_cuth_curvature_is_computed_once_per_instance(monkeypatch):
    counts = {}
    rng = random.Random(73)
    a = catalog.sl2()
    conn = random_cuth(rng, a, D_END_BUNDLES[0])
    conn.omega()
    _count_calls(monkeypatch, TotalForm, "_product", counts)
    R = conn.curvature()
    assert counts == {"_product": 2}
    assert conn.curvature() is R
    assert curvature_power(conn, 1) is R
    assert counts == {"_product": 2}
    assert curvature_power(conn, 2) == R.wedge(R)
    # a second instance with the same data computes, and checks, afresh
    twin = ConnectionUpToHomotopy(a, conn.bundle, conn.nablas, conn.D)
    counts.clear()
    assert twin.curvature() == R
    assert twin.curvature() == R
    assert counts == {"_product": 2}


def test_linear_curvature_is_computed_once_per_label(monkeypatch):
    counts = {}
    rng = random.Random(79)
    a = catalog.aff1_action_line()
    nab = random_linear_connection(rng, a, 2)
    _count_calls(monkeypatch, type(a), "_d_into", counts)
    _count_calls(monkeypatch, TotalForm, "_product", counts)
    R = nab.curvature()
    # two kernel passes, the second with d_A fused
    assert counts == {"_d_into": 1, "_product": 2}
    assert nab.curvature() is R
    assert nab.is_flat() is R.is_zero()
    assert counts == {"_d_into": 1, "_product": 2}
    # the same bundle in degree 1 is its own connection up to homotopy
    conn = ConnectionUpToHomotopy(a, GradedBundle([(1, 2)]), {1: nab})
    shifted = conn.curvature()
    assert set(shifted.blocks) == {(2, 1, 1)}
    assert conn.curvature() is shifted
    assert counts == {"_d_into": 2, "_product": 4}


def test_linear_d_and_curvature_share_one_omega(monkeypatch):
    counts = {}
    rng = random.Random(113)
    a = catalog.aff1_action_line()
    nab = random_linear_connection(rng, a, 2)
    _count_calls(monkeypatch, ConnectionUpToHomotopy, "connection_form", counts)
    forms = [random_form(rng, a.variables, a.rank, 1, fiber_dim=2, density=3)
             for _ in range(2)]
    images = [nab.apply(form) for form in forms]
    assert counts == {"connection_form": 1}
    nab.curvature()
    assert counts == {"connection_form": 1}
    assert images == [koszul_linear_d(nab, form) for form in forms]


# --- pass 1 that is not Omega names where it differs -----------------------------------


def double_the_identity(monkeypatch, summand):
    """Make `TotalForm.identity` return its block (0, summand, summand) doubled,
    built from Poly matrices through the checked constructor."""

    def doubled(cls, variables, frame_rank, bundle):
        blocks = {(0, z, z): {(): [[Poly.constant(variables, (1 + (z == summand)) * (a == b))
                                    for b in range(r)] for a in range(r)]}
                  for z, r in bundle.summands}
        return cls(variables, frame_rank, bundle, bundle, 0, blocks)

    monkeypatch.setattr(TotalForm, "identity", classmethod(doubled))


def test_curvature_disagreement_names_the_block_and_multi_index(monkeypatch):
    rng = random.Random(83)
    a = catalog.sl2()
    bundle = D_END_BUNDLES[0]
    conn = random_cuth(rng, a, bundle)
    # Omega's blocks from E_2 are (1, 2, 2) at (0,) and (2,), (2, 2, 1) and
    # (3, 2, 0); the first in sorted order is named
    double_the_identity(monkeypatch, 2)
    with pytest.raises(InternalCheckError) as caught:
        conn.curvature()
    assert str(caught.value) == (
        "curvature check failed: cal_D on the basis sections differs from Omega "
        "at block (1, 2, 2), multi-index (0,)")
