"""Forms and total forms: shuffles, wedge, the hat action, graded trace."""

import copy
import hashlib
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradweil import catalog
from gradweil.algebroid import Algebroid, Chart, tangent_algebroid
from gradweil.connections import ConnectionUpToHomotopy, LinearConnection
from gradweil.errors import MismatchError, ParseError
from gradweil.forms import (
    Form,
    GradedBundle,
    TotalForm,
    _block_kernel,
    _indices,
    _mask,
    _parity_word,
    extend_total_form,
    gtr,
    ideal_membership,
    mat_is_zero,
    mat_mul,
    render_form,
    tr,
)
from gradweil.randgen import random_cuth, random_form, random_total_form
from gradweil.ring import EXPONENT_LIMIT, FIELD, Poly, _pack, _unpack
from oracles import (LINE, basis_element, block_pass, chart_block_pass, curvature_power,
                     element, exponent_terms, extend_total_form_by_polys, graded_commutator,
                     hat, merge_sign, poly_add, poly_connection_d, poly_d, poly_scale,
                     poly_wedge, restrict_total_form, sort_with_sign, transposed)
from test_algebroid import PRESENTATIONS, fractional_chart_presentation

VS = ("x",)


# --- test-local constructions ----------------------------------------------


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def unhat_from_sections(action, variables, frame_rank, src, dst, total_degree):
    """Rebuild a TotalForm from its operator action on basis sections.

    `action(summand, alpha)` must return the one-column form obtained by
    applying the operator to the alpha-th basis section of E_summand, of
    total degree `summand`.  Evaluating on degree-0 sections involves no
    Koszul sign, so this is the exact inverse of the hat map.
    """
    zero = Poly.zero(variables)
    blocks = {}
    for l, rank_l in src.summands:
        for alpha in range(rank_l):
            image = action(l, alpha)
            assert image.src == LINE and image.dst == dst
            assert image.total_degree == total_degree + l
            for (t, _, j), columns in image.blocks.items():
                entries = blocks.setdefault((t, l, j), {})
                for mi, column in columns.items():
                    mat = entries.get(mi)
                    if mat is None:
                        mat = entries[mi] = [[zero] * rank_l for _ in range(dst.rank(j))]
                    for beta, (poly,) in enumerate(column):
                        mat[beta][alpha] = poly
    return TotalForm(variables, frame_rank, src, dst, total_degree, blocks)


def single_block(variables, frame_rank, src, dst, block, entries):
    """A TotalForm with the one block (i, l, j) of total degree i + j - l."""
    i, l, j = block
    return TotalForm(variables, frame_rank, src, dst, i + j - l, {block: entries})


def hat_roundtrip(total_form):
    """Reconstruct a TotalForm through its operator action; must be identity."""
    return unhat_from_sections(
        lambda l, alpha: hat(total_form,
                             basis_element(total_form.variables, total_form.frame_rank,
                                           total_form.src, l, alpha)),
        total_form.variables, total_form.frame_rank,
        total_form.src, total_form.dst, total_form.total_degree)


def restrict_form(form, indices):
    """Pull a Form back along the inclusion of an adapted subframe.

    Keeps only multi-indices inside `indices` and renumbers them 0..len-1.
    """
    indices = tuple(sorted(indices))
    lookup = {g: i for i, g in enumerate(indices)}
    coeffs = {}
    for (mi, a), poly in form.coeffs.items():
        if all(i in lookup for i in mi):
            coeffs[(tuple(lookup[i] for i in mi), a)] = poly
    return Form(form.variables, len(indices), form.degree, form.fiber_dim, coeffs)


def extend_form(form, indices, frame_rank):
    """Push a Form on a subframe to the full frame (zero outside the subframe).

    This is the complement-dependent extension: coefficients are reindexed
    through `indices`, everything else is zero.
    """
    indices = tuple(sorted(indices))
    if len(indices) != form.frame_rank:
        raise MismatchError("subframe size does not match the form's frame rank")
    coeffs = {}
    for (mi, a), poly in form.coeffs.items():
        coeffs[(tuple(indices[i] for i in mi), a)] = poly
    return Form(form.variables, frame_rank, form.degree, form.fiber_dim, coeffs)


def merge_indices(left, right):
    """Merge two ascending index tuples.

    Returns (sign, merged) where sign is the parity of the permutation
    sorting left+right, or (0, None) when the tuples overlap.
    """
    if set(left) & set(right):
        return 0, None
    inversions = 0
    for a in left:
        for b in right:
            if b < a:
                inversions += 1
    merged = tuple(sorted(left + right))
    return (-1 if inversions % 2 else 1), merged


def shuffles(l, s):
    """Yield ((positions_left, positions_right), sign) for all (l, s)-shuffles.

    Positions partition range(l + s); sign is the parity of the resulting
    permutation.  The textbook shuffle sum, independent of the bitmask merge.
    """
    universe = range(l + s)
    for left in itertools.combinations(universe, l):
        right = tuple(sorted(set(universe) - set(left)))
        sign = 1 - 2 * (sum(left[j] - j for j in range(l)) % 2)
        yield (left, right), sign


def permutation_sign(perm):
    sign = 1
    for a, b in itertools.combinations(range(len(perm)), 2):
        if perm[a] > perm[b]:
            sign = -sign
    return sign


def test_sort_with_sign_against_brute_parity():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(0, 5)
        perm = list(range(n))
        rng.shuffle(perm)
        sign, sorted_tuple = sort_with_sign(tuple(perm))
        assert sorted_tuple == tuple(range(n))
        assert sign == permutation_sign(perm)
    assert sort_with_sign((1, 1)) == (0, None)
    assert sort_with_sign(()) == (1, ())


def test_merge_indices_oracle():
    assert merge_indices((0, 2), (1,)) == (-1, (0, 1, 2))
    assert merge_indices((0,), (0,)) == (0, None)
    rng = random.Random(6)
    for _ in range(50):
        pool = rng.sample(range(8), rng.randint(0, 6))
        cut = rng.randint(0, len(pool))
        left = tuple(sorted(pool[:cut]))
        right = tuple(sorted(pool[cut:]))
        sign, merged = merge_indices(left, right)
        expected_sign, expected_sorted = sort_with_sign(left + right)
        assert merged == expected_sorted and sign == expected_sign


def test_shuffles_count_and_signs():
    for l, s in [(0, 0), (1, 2), (2, 2), (3, 1)]:
        out = list(shuffles(l, s))
        assert len(out) == math.comb(l + s, l)
        for (left, right), sign in out:
            assert len(left) == l and len(right) == s
            assert sorted(left + right) == list(range(l + s))
            assert sign == permutation_sign(list(left + right))


def brute_wedge(alpha, beta):
    """Independent wedge: sum over shuffles of evaluations, no index merging."""
    if alpha.fiber_dim != 1:
        raise AssertionError("oracle only handles scalar left factor")
    p, q = alpha.degree, beta.degree
    out = Form.zero(alpha.variables, alpha.frame_rank, p + q, beta.fiber_dim)
    coeffs = {}
    for mi in itertools.combinations(range(alpha.frame_rank), p + q):
        for (left, right), sign in shuffles(p, q):
            a = alpha.get(tuple(mi[i] for i in left))
            for fib in range(beta.fiber_dim):
                b = beta.get(tuple(mi[i] for i in right), fib)
                term = a * b
                if term.is_zero():
                    continue
                key = (mi, fib)
                acc = coeffs.get(key, Poly.zero(alpha.variables)) + (
                    -term if sign == -1 else term
                )
                coeffs[key] = acc
    return Form(alpha.variables, alpha.frame_rank, p + q, beta.fiber_dim, coeffs) + out


def test_wedge_matches_shuffle_sum():
    rng = random.Random(13)
    for _ in range(40):
        p, q = rng.randint(0, 3), rng.randint(0, 3)
        fib = rng.randint(1, 2)
        alpha = random_form(rng, VS, 4, p)
        beta = random_form(rng, VS, 4, q, fiber_dim=fib)
        assert alpha.wedge(beta) == brute_wedge(alpha, beta)


def test_scalar_wedge_graded_commutative_and_associative():
    rng = random.Random(21)
    for _ in range(30):
        p, q, r = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
        a = random_form(rng, VS, 4, p)
        b = random_form(rng, VS, 4, q)
        c = random_form(rng, VS, 4, r)
        sign = -1 if (p * q) % 2 else 1
        assert a.wedge(b) == b.wedge(a).scale(sign)
        assert a.wedge(b.wedge(c)) == a.wedge(b).wedge(c)


def test_wedge_with_duplicate_index_dies():
    eps1 = Form.coframe(VS, 2, 0)
    assert eps1.wedge(eps1).is_zero()


# --- the hat action -------------------------------------------------------

UNGRADED = GradedBundle([(0, 1)])
TWO_TERM = GradedBundle([(0, 1), (1, 1)])


def test_hat_worked_example():
    # K = eps1 (x) id on a trivial line bundle, omega = eps2 (x) e:
    # hat(K)(omega) = (eps1 ^ eps2) (x) e, no extra sign on an End-block
    one = Poly.one(VS)
    K = single_block(VS, 2, UNGRADED, UNGRADED, (1, 0, 0), {(0,): [[one]]})
    omega = Form(VS, 2, 1, 1, {((1,), 0): one})
    assert hat(K, omega) == Form(VS, 2, 2, 1, {((0, 1), 0): one})


def test_hat_koszul_sign_on_shifting_block():
    # a 0-form block E_0 -> E_1 anticommutes past odd-degree forms:
    # hat picks up (-1)^{(j-l) t} with j - l = 1
    one = Poly.one(VS)
    K = single_block(VS, 2, TWO_TERM, TWO_TERM, (0, 0, 1), {(): [[one]]})
    omega1 = Form(VS, 2, 1, 1, {((0,), 0): one})
    out = hat(K, element(K.src, omega1, 0))
    assert out == element(K.dst, omega1.scale(-1), 1)
    omega2 = Form(VS, 2, 2, 1, {((0, 1), 0): one})
    assert hat(K, element(K.src, omega2, 0)) == element(K.dst, omega2, 1)


def test_wedge_is_operator_composition():
    rng = random.Random(5)
    E = GradedBundle([(0, 2), (1, 1), (2, 1)])
    for _ in range(40):
        K1 = random_total_form(rng, VS, 3, E, rng.choice([-1, 0, 1, 2]))
        K2 = random_total_form(rng, VS, 3, E, rng.choice([-1, 0, 1, 2]))
        W = K1.wedge(K2)
        l = rng.choice(E.degrees())
        omega = random_form(rng, VS, 3, rng.randint(0, 2),
                            fiber_dim=E.rank(l))
        lhs = hat(W, element(W.src, omega, l))
        rhs = hat(K1, hat(K2, element(K2.src, omega, l)))
        assert (lhs + rhs.scale(-1)).is_zero()


def test_hat_roundtrip_random():
    rng = random.Random(17)
    E = GradedBundle([(0, 2), (1, 1)])
    for _ in range(20):
        K = random_total_form(rng, VS, 3, E, rng.choice([-1, 0, 1, 2]))
        assert hat_roundtrip(K) == K


def test_total_wedge_associative():
    rng = random.Random(23)
    E = GradedBundle([(0, 1), (1, 1)])
    for _ in range(20):
        K1 = random_total_form(rng, VS, 2, E, rng.choice([0, 1]))
        K2 = random_total_form(rng, VS, 2, E, rng.choice([-1, 0, 1]))
        K3 = random_total_form(rng, VS, 2, E, rng.choice([0, 1]))
        lhs = K1.wedge(K2.wedge(K3))
        rhs = K1.wedge(K2).wedge(K3)
        assert (lhs + rhs.scale(-1)).is_zero()


# --- graded trace ---------------------------------------------------------


def test_gtr_sign_per_summand():
    one = Poly.one(())
    for l in range(3):
        E = GradedBundle([(l, 2)])
        K = TotalForm.identity((), 2, E)
        value = gtr(K)
        expected = Fraction(2) if l % 2 == 0 else Fraction(-2)
        assert value.get(()) == expected
        assert tr(K).get(()) == 2


def test_graded_commutator_two_term():
    one = Poly.one(())
    K1 = single_block((), 2, TWO_TERM, TWO_TERM, (0, 0, 1), {(): [[one]]})
    K2 = single_block((), 2, TWO_TERM, TWO_TERM, (0, 1, 0), {(): [[one]]})
    # degrees +1 and -1, so [K1, K2] = K1 K2 + K2 K1 = id_E1 + id_E0
    comm = graded_commutator(K1, K2)
    assert comm.blocks == TotalForm.identity((), 2, TWO_TERM).blocks
    assert gtr(comm).is_zero()
    assert tr(comm).get(()) == 2


def test_gtr_kills_graded_commutators():
    rng = random.Random(31)
    E = GradedBundle([(0, 2), (1, 1), (2, 2)])
    for _ in range(25):
        K1 = random_total_form(rng, VS, 3, E, rng.choice([-1, 0, 1, 2]))
        K2 = random_total_form(rng, VS, 3, E, rng.choice([-1, 0, 1, 2]))
        assert gtr(graded_commutator(K1, K2)).is_zero()


# --- ideals, restriction, extension ---------------------------------------


def test_ideal_membership():
    one = Poly.one(())
    w = Form((), 3, 2, 1, {((0, 1), 0): one})
    # annihilator of span(e1): eps2 and eps3 generate; eps1^eps2 has one
    # factor outside the subframe
    assert ideal_membership(w, (0,), 1)
    assert not ideal_membership(w, (0,), 2)
    assert ideal_membership(w, (), 2)
    assert not ideal_membership(w, (0, 1), 1)
    assert ideal_membership(Form.zero((), 3, 2), (0,), 5)


def test_restrict_extend_form_roundtrip():
    rng = random.Random(41)
    for _ in range(20):
        inner = random_form(rng, VS, 2, rng.randint(0, 2), fiber_dim=2)
        ext = extend_form(inner, (0, 2), 4)
        back = restrict_form(ext, (0, 2))
        assert back == inner
        # extension never uses complement indices
        assert ideal_membership(ext, (1, 3), 0)
        assert all(set(mi) <= {0, 2} for mi in ext.multi_indices())


def test_restrict_extend_total_form_roundtrip():
    rng = random.Random(43)
    E = GradedBundle([(0, 1), (1, 2)])
    for _ in range(20):
        K = random_total_form(rng, VS, 2, E, rng.choice([0, 1]))
        ext = extend_total_form(K, (1, 2), 4)
        back = restrict_total_form(ext, (1, 2))
        assert (back + K.scale(-1)).is_zero()


def test_restriction_vanishes_exactly_in_the_annihilator_ideal():
    # the reports read ideal_membership(K, sub, 1) as "K restricts to zero on
    # the subframe sub"; the Poly restriction is its reference
    rng = random.Random(59)
    E = GradedBundle([(0, 1), (1, 2)])
    outcomes = Counter()
    for variables in ((), VS, ("x", "y")):
        for _ in range(60):
            rank = rng.randint(1, 4)
            K = random_total_form(rng, variables, rank, E, rng.choice([0, 1, 2]))
            sub = tuple(sorted(rng.sample(range(rank), rng.randint(0, rank))))
            vanishes = restrict_total_form(K, sub).is_zero()
            assert vanishes == ideal_membership(K, sub, 1)
            outcomes[vanishes] += 1
    assert min(outcomes.values()) >= 20, outcomes


@pytest.mark.parametrize("variables", [(), VS], ids=["point", "chart"])
def test_extend_total_form_renames_the_stored_bitmasks(variables):
    rng = random.Random(61)
    E = GradedBundle([(0, 1), (1, 2)])
    fractional = 0
    for _ in range(20):
        K = random_total_form(rng, variables, 3, E, rng.choice([0, 1]))
        D, view = K._kernel
        fractional += D > 1
        stored = copy.deepcopy(K._kernel)
        ext = extend_total_form(K, (4, 0, 2), 5)
        assert ext == extend_total_form_by_polys(K, (0, 2, 4), 5)
        # the same D and the very matrices K stores, under renamed bitmasks
        assert ext._kernel[0] == D
        for key, entries in view.items():
            for mask, rows in entries.items():
                new = sum(1 << (0, 2, 4)[k] for k in _indices(mask))
                assert ext._kernel[1][key][new] is rows
        # nothing the extension or arithmetic on it does writes into them
        _ = (ext.wedge(ext), ext + ext, ext.scale(3), gtr(ext))
        assert K._kernel == stored
    assert fractional


def test_extend_total_form_refuses_a_bad_subframe():
    one = Poly.one(VS)
    # two 1-forms: with the indices (1, 1) both would land on e^1
    K = Form(VS, 2, 1, 1, {((0,), 0): one, ((1,), 0): one})
    with pytest.raises(MismatchError, match="subframe size"):
        extend_total_form(K, (0, 1, 2), 4)
    for indices in ((1, 1), (0, 4), (-1, 2)):
        with pytest.raises(MismatchError, match="not distinct indices below 4"):
            extend_total_form(K, indices, 4)


def test_form_json_roundtrip():
    rng = random.Random(47)
    for _ in range(15):
        f = random_form(rng, VS, 3, rng.randint(0, 3), fiber_dim=2)
        g = Form.from_json(f.to_json(), VS, 3, fiber_dim=2)
        assert g == f


def test_total_form_json_roundtrip():
    rng = random.Random(53)
    E = GradedBundle([(0, 2), (1, 1)])
    for _ in range(15):
        K = random_total_form(rng, VS, 3, E, rng.choice([-1, 0, 1, 2]))
        L = TotalForm.from_json(K.to_json(), VS, 3, E, E)
        assert (L + K.scale(-1)).is_zero()
        assert L.to_json() == K.to_json()


def test_render_form_one_based():
    one = Poly.one(VS)
    x = Poly.variable(VS, 0)
    f = Form(VS, 3, 2, 1, {((0, 2), 0): x})
    assert render_form(f) == "x*eps1^eps3"
    assert render_form(Form.zero(VS, 3, 1)) == "0"
    vec = Form(VS, 3, 1, 2, {((1,), 1): one})
    assert render_form(vec) == "1*eps2(x)f2"


def test_degree_mismatch_rejected():
    one = Poly.one(VS)
    with pytest.raises(MismatchError):
        TotalForm(VS, 2, TWO_TERM, TWO_TERM, 1, {(0, 0, 0): {(): [[one]]}})
    # a Form's multi-indices are checked by TotalForm's constructor
    with pytest.raises(MismatchError, match=r"bad multi-index \(0, 1\) for form degree 1"):
        Form(VS, 2, 1, 1, {((0, 1), 0): one})
    with pytest.raises(MismatchError, match=r"bad multi-index \(1, 0\) for form degree 2"):
        Form(VS, 2, 2, 1, {((1, 0), 0): one})
    with pytest.raises(MismatchError, match=r"index \(2,\) out of range"):
        Form(VS, 2, 1, 1, {((2,), 0): one})
    # a block of form degree 3 over a rank-2 frame, or -1, is refused, not dropped
    with pytest.raises(MismatchError, match=r"index \(0, 1, 2\) out of range"):
        TotalForm(VS, 2, TWO_TERM, TWO_TERM, 4, {(3, 0, 1): {(0, 1, 2): [[one]]}})
    with pytest.raises(MismatchError, match="bad multi-index"):
        TotalForm(VS, 2, TWO_TERM, TWO_TERM, -2, {(-1, 1, 0): {(): [[one]]}})


@pytest.mark.parametrize("entry", [Poly.parse("x", ("x",)), Poly.zero(("x",)), Poly.one(())],
                         ids=["x", "zero", "point"])
def test_a_coefficient_over_another_chart_is_refused(entry):
    # a Poly's monomials are packed for its own variables: read on ("x", "y"),
    # the x of ("x",) would come back as y
    bundle = GradedBundle([(0, 1)])
    with pytest.raises(MismatchError, match="coefficient variables differ from the form's chart"):
        TotalForm(("x", "y"), 1, bundle, bundle, 0, {(0, 0, 0): {(): [[entry]]}})
    with pytest.raises(MismatchError, match="coefficient variables differ from the form's chart"):
        Form(("x", "y"), 1, 0, 1, {((), 0): entry})


# --- the matrix kernel against the Poly-matrix references -------------------


def wedge_reference(K, L):
    """K.wedge(L) by Poly matrices: shuffle sign times Koszul factor times mat_mul.

    The block product as it stood before the term-dict kernel; it shares
    only `merge_indices` and the Poly arithmetic with `TotalForm.wedge`.
    """
    blocks = {}
    for (i1, m1, j), entries1 in K.blocks.items():
        f1 = j - m1
        for (i2, l, m2), entries2 in L.blocks.items():
            if m2 != m1:
                continue
            koszul = -1 if (f1 * i2) % 2 else 1
            key = (i1 + i2, l, j)
            for mi1, mat1 in entries1.items():
                for mi2, mat2 in entries2.items():
                    sign, merged = merge_indices(mi1, mi2)
                    if sign == 0:
                        continue
                    prod = mat_mul(mat1, mat2)
                    if sign * koszul == -1:
                        prod = mat_neg(prod)
                    tgt = blocks.setdefault(key, {})
                    acc = tgt.get(merged)
                    tgt[merged] = prod if acc is None else mat_add(acc, prod)
    return TotalForm(K.variables, K.frame_rank, L.src, K.dst,
                     K.total_degree + L.total_degree, blocks)


def apply_part_reference(K, x):
    """hat(K) on an element x of the total complex of K's source, one Poly
    product per matrix entry for each part of x."""
    blocks = {}
    for (t, _, l), columns in x.blocks.items():
        for (i, bl, j), entries in K.blocks.items():
            if bl != l:
                continue
            koszul = -1 if ((j - l) * t) % 2 else 1
            tgt = blocks.setdefault((t + i, 0, j), {})
            for mi1, mat in entries.items():
                for mi2, column in columns.items():
                    sign, merged = merge_indices(mi1, mi2)
                    if sign == 0:
                        continue
                    out = tgt.setdefault(merged, [[Poly.zero(K.variables)]
                                                  for _ in range(K.dst.rank(j))])
                    for beta in range(K.dst.rank(j)):
                        val = Poly.zero(K.variables)
                        for a, (v,) in enumerate(column):
                            val = val + mat[beta][a] * v
                        out[beta][0] = out[beta][0] + (-val if sign * koszul == -1 else val)
    return TotalForm(K.variables, K.frame_rank, x.src, K.dst,
                     K.total_degree + x.total_degree, blocks)


# a five-variable chart, one packed field per variable, with exponents drawn
# from WIDE_EXPONENTS: small ones and ones near 2^31, whose sums in a product
# stay below EXPONENT_LIMIT, so the checked constructor takes the references
WIDE = ("x", "y", "z", "u", "v")
WIDE_EXPONENTS = (0, 1, 2, 65537, (1 << 31) - 3)


def kernel_poly(rng, variables, denominators=(1, 2, 3, 6)):
    """A Poly with non-integer coefficients, zero a quarter of the time;
    exponents 0 and 1, or from WIDE_EXPONENTS on the WIDE chart."""
    if rng.random() < 0.25:
        return Poly.zero(variables)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        if variables == WIDE:
            expo = tuple(rng.choice(WIDE_EXPONENTS) for _ in variables)
        else:
            expo = tuple(rng.randint(0, 1) for _ in variables)
        terms[expo] = Fraction(rng.randint(-4, 4), rng.choice(denominators))
    return Poly(variables, terms)


def kernel_total_form(rng, variables, frame_rank, bundle, total_degree,
                      denominators=(1, 2, 3, 6)):
    """Random blocks in every admissible slot, with zero entries and Fractions."""
    blocks = {}
    for l in bundle.degrees():
        for j in bundle.degrees():
            i = total_degree + l - j
            if not 0 <= i <= frame_rank:
                continue
            entries = {mi: [[kernel_poly(rng, variables, denominators)
                             for _ in range(bundle.rank(l))]
                            for _ in range(bundle.rank(j))]
                       for mi in itertools.combinations(range(frame_rank), i)
                       if rng.random() < 0.6}
            if entries:
                blocks[(i, l, j)] = entries
    return TotalForm(variables, frame_rank, bundle, bundle, total_degree, blocks)


def assert_nothing_zero_stored(K):
    for entries in K.blocks.values():
        assert entries
        for mat in entries.values():
            assert not mat_is_zero(mat)
            assert all(c != 0 for row in mat for p in row for c in p.terms.values())


# odd and negative summand degrees, on the point base, on TR^2 and on WIDE
KERNEL_BUNDLES = (
    GradedBundle([(0, 2), (1, 2), (2, 1)]),
    GradedBundle([(-1, 1), (0, 2), (1, 1)]),
    GradedBundle([(-2, 1), (1, 2), (3, 1)]),
)
KERNEL_BASES = ((), ("x", "y"), WIDE)


@pytest.mark.parametrize("variables", KERNEL_BASES)
def test_kernel_wedge_matches_the_reference(variables):
    rng = random.Random(59 + len(variables))
    nonzero = 0
    for bundle in KERNEL_BUNDLES:
        for _ in range(6):
            K = kernel_total_form(rng, variables, 3, bundle, rng.randint(-1, 3))
            L = kernel_total_form(rng, variables, 3, bundle, rng.randint(-1, 3))
            W = K.wedge(L)
            assert W == wedge_reference(K, L)
            assert W.total_degree == K.total_degree + L.total_degree
            assert_nothing_zero_stored(W)
            assert K.wedge(K) == wedge_reference(K, K)
            nonzero += not W.is_zero()
    assert nonzero > 6


def test_kernel_wedge_drops_cancelled_entries_and_matrices():
    # [[1, 1]] @ [[1], [-1]] cancels to a zero matrix, which is not stored
    for variables in KERNEL_BASES:
        one = Poly.one(variables)
        bundle = GradedBundle([(0, 2)])
        line = GradedBundle([(0, 1)])
        K = TotalForm(variables, 2, bundle, line, 0, {(0, 0, 0): {(): [[one, one]]}})
        L = TotalForm(variables, 2, line, bundle, 1, {(1, 0, 0): {(0,): [[one], [-one]]}})
        assert K.wedge(L).is_zero()
        # eps1 (x) M and eps2 (x) M wedge to opposite signs on eps1^eps2
        M = TotalForm(variables, 2, bundle, bundle, 1,
                      {(1, 0, 0): {(0,): [[one, one], [one, one]],
                                   (1,): [[one, one], [one, one]]}})
        assert M.wedge(M).is_zero()


@pytest.mark.parametrize("variables", KERNEL_BASES)
def test_kernel_apply_part_matches_the_reference(variables):
    rng = random.Random(61 + len(variables))
    nonzero = 0
    for bundle in KERNEL_BUNDLES:
        for _ in range(12):
            K = kernel_total_form(rng, variables, 3, bundle, rng.randint(-1, 3))
            l, t = rng.choice(bundle.degrees()), rng.randint(0, 2)
            coeffs = {(mi, a): kernel_poly(rng, variables)
                      for mi in itertools.combinations(range(3), t)
                      for a in range(bundle.rank(l)) if rng.random() < 0.7}
            form = Form(variables, 3, t, bundle.rank(l), coeffs)
            x = element(K.src, form, l)
            image = hat(K, x)
            assert image == apply_part_reference(K, x)
            assert_nothing_zero_stored(image)
            nonzero += not image.is_zero()
    assert nonzero > 12


# --- the kernel of one block pair, against the plain pair loops ---------------

_BIG = 2 ** 80
_NUMERATOR = st.integers(-_BIG, _BIG).filter(bool)
# small exponents make products of different terms meet in one key
_EXPONENT = st.one_of(st.integers(0, 2), st.integers(0, 2 ** 31 - 1))


@st.composite
def block_operands(draw):
    """(shape, width, trace, triangle, koszul, tgt, left, right): a block
    pair's shape (rows, inner, cols), each size in 1..4, square for a trace
    and all equal for a triangle, whose right operand is then the left's
    own matrices; width 0 for the point base, whose matrices are flat, or
    FIELD times 1..3 chart variables, whose matrices are sparse rows of
    packed monomials, exponents below 2^31 so that no sum of two reaches
    EXPONENT_LIMIT; masks of up to 6 frame indices, so pairs overlap;
    numerators up to 2^80 in size; an accumulator per merged mask, or none."""
    trace = draw(st.booleans())
    triangle = trace and draw(st.booleans())
    rows, inner, cols = draw(st.tuples(*[st.integers(1, 4)] * 3))
    if triangle:
        inner = cols = rows
    elif trace:
        cols = rows
    nvars = draw(st.integers(0, 3))
    width = FIELD * nvars

    def monomial():
        return _pack(tuple(draw(_EXPONENT) for _ in range(nvars)))

    def entry():
        return sorted({monomial(): draw(_NUMERATOR)
                       for _ in range(draw(st.integers(1, 2)))}.items())

    def matrix(nrows, ncols):
        if not width:
            return draw(st.lists(st.integers(-_BIG, _BIG), min_size=nrows * ncols,
                                 max_size=nrows * ncols))
        return [[(c, entry()) for c in range(ncols) if draw(st.booleans())]
                for _ in range(nrows)]

    def accumulator():
        if not width:
            return draw(st.lists(_NUMERATOR, min_size=1 if trace else rows * cols,
                                 max_size=1 if trace else rows * cols))
        cells = [0] if trace else [(r * cols + c) << width for r in range(rows)
                                   for c in range(cols)]
        return {draw(st.sampled_from(cells)) + monomial(): draw(_NUMERATOR)
                for _ in range(draw(st.integers(0, 3)))}

    def masks():
        return draw(st.lists(st.integers(0, 63), min_size=1, max_size=5, unique=True))

    left = {mask: matrix(rows, inner) for mask in masks()}
    right = [(mask, _parity_word(mask), a) for mask, a in left.items()] if triangle else [
        (mask, _parity_word(mask), matrix(inner, cols)) for mask in masks()]
    tgt = {mask: accumulator()
           for mask in draw(st.lists(st.integers(0, 63), max_size=4, unique=True))}
    return ((rows, inner, cols), width, trace, triangle, draw(st.sampled_from((1, -1, 2, -2))),
            tgt, left, right)


def _large_operands(n, trace, seed):
    rng = random.Random(seed)

    def flat(size):
        return [rng.randint(-_BIG, _BIG) for _ in range(size)]

    left = {0b011: flat(n * n), 0b100: flat(n * n)}
    right = [(mask, _parity_word(mask), flat(n * n)) for mask in (0b100, 0b1000, 0b001)]
    tgt = {0b111: flat(1 if trace else n * n)}
    return (n, n, n), 0, trace, False, -2, tgt, left, right


@settings(max_examples=300, deadline=None)
@given(block_operands())
@example(_large_operands(9, False, 9))
@example(_large_operands(16, False, 16))
@example(_large_operands(9, True, 10))
@example(_large_operands(16, True, 17))
def test_block_kernel_matches_the_pair_loop(operands):
    shape, width, trace, triangle, koszul, tgt, left, right = operands
    before = copy.deepcopy((left, right))
    if width:
        reference = chart_block_pass(tgt, koszul, left, right, shape[2], width, trace, triangle)
        # a chart kernel reads no row or inner count, a chart trace no
        # column count either, so its key names none of them
        key = (0, 0, 0 if trace else shape[2], width, trace, triangle)
    else:
        reference = block_pass(tgt, koszul, left, right, shape, trace, triangle)
        key = (*shape, 0, trace, triangle)
    misses = _block_kernel.cache_info().misses
    kernel = _block_kernel(*key)
    assert _block_kernel(*key) is kernel   # compiled once per key
    assert _block_kernel.cache_info().misses - misses <= 1
    existing = dict(tgt)
    kernel(tgt, koszul, left, right)
    assert tgt == reference
    # an existing accumulator is added into in place, a fresh one is its own
    # object, and no operand is written
    assert all(tgt[mask] is acc for mask, acc in existing.items())
    assert (left, right) == before
    operand_ids = {id(a) for a in left.values()} | {id(b) for _, _, b in right}
    assert not any(id(acc) in operand_ids for acc in tgt.values())


def _stored_lists(form):
    return {(key, mask): list(flat) for key, entries in form._kernel[1].items()
            for mask, flat in entries.items()}


def assert_point_storage(form):
    """Each stored point-base matrix is a flat list of rows * cols integers,
    not all zero, and D and the numerators have gcd 1."""
    D, view = form._kernel
    numerators = [D]
    for (_, l, j), entries in view.items():
        assert entries
        for flat in entries.values():
            assert type(flat) is list and len(flat) == form.dst.rank(j) * form.src.rank(l)
            assert all(type(n) is int for n in flat) and any(flat)
            numerators.extend(flat)
    assert math.gcd(*numerators) == 1


def test_point_base_storage_stays_flat_reduced_and_unwritten():
    # the fused passes of d^End and the curvature add d_A into accumulators
    # that the products then add into, so they are among the results
    rng = random.Random(97)
    a = catalog.solvable5()   # not unimodular: d_A of a 4-form is not zero
    nonzero = 0
    for bundle in KERNEL_BUNDLES:
        for _ in range(6):
            K = kernel_total_form(rng, (), a.rank, bundle, rng.randint(-1, 2))
            L = kernel_total_form(rng, (), a.rank, bundle, rng.randint(-1, 2))
            M = kernel_total_form(rng, (), a.rank, bundle, K.total_degree)
            conn = random_cuth(rng, a, bundle)
            omega = conn.omega()
            operands = [(X, _stored_lists(X)) for X in (K, L, M, omega)]
            results = [K.wedge(L), K.wedge(K), K.wedge_trace(L), K.wedge_trace(K, graded=True),
                       gtr(K), tr(L), a.d_total(K), K + M, K - K, M.scale(Fraction(-3, 4)),
                       conn.d_end(K), conn.curvature()]
            for result in results:
                assert_point_storage(result)
                nonzero += not result.is_zero()
            for X, stored in operands:
                assert_point_storage(X)
                assert _stored_lists(X) == stored
    assert nonzero > 40


@pytest.mark.parametrize("variables", KERNEL_BASES)
def test_kernel_wedge_is_composition_on_basis_sections(variables):
    rng = random.Random(67 + len(variables))
    for bundle in KERNEL_BUNDLES:
        for _ in range(4):
            K = kernel_total_form(rng, variables, 3, bundle, rng.randint(-1, 2))
            L = kernel_total_form(rng, variables, 3, bundle, rng.randint(-1, 2))
            W = K.wedge(L)
            for z, r in bundle.summands:
                for alpha in range(r):
                    e = basis_element(variables, 3, bundle, z, alpha)
                    assert hat(W, e) == hat(K, hat(L, e))


def trace_reference(K, graded=False):
    """tr(K), or gtr when `graded`, as Poly sums of the diagonal entries of
    the diagonal blocks, block (i, l, l) times (-1)^l when graded."""
    zero = Poly.zero(K.variables)
    coeffs = {}
    for (i, l, j), entries in K.blocks.items():
        if l != j:
            continue
        for mi, mat in entries.items():
            value = sum((mat[a][a] for a in range(len(mat))), zero)
            value = -value if graded and l % 2 else value
            coeffs[(mi, 0)] = coeffs.get((mi, 0), zero) + value
    return Form(K.variables, K.frame_rank, max(K.total_degree, 0), 1, coeffs)


@pytest.mark.parametrize("variables", KERNEL_BASES)
def test_traces_match_the_poly_reference(variables):
    rng = random.Random(131 + len(variables))
    nonzero = 0
    for bundle in KERNEL_BUNDLES:
        for _ in range(4):
            K = kernel_total_form(rng, variables, 3, bundle, rng.randint(0, 1))
            L = kernel_total_form(rng, variables, 3, bundle, rng.randint(0, 2))
            W = wedge_reference(K, L)
            for graded in (False, True):
                assert K.wedge_trace(L, graded) == trace_reference(W, graded)
            assert tr(K) == trace_reference(K) and gtr(K) == trace_reference(K, True)
            nonzero += not trace_reference(W).is_zero()
    assert nonzero >= 3


# X.wedge_trace(X) visits each unordered pair of terms once when X has even
# total degree and the trace is graded or every summand degree is even: an
# odd summand degree (the first bundle) keeps the ungraded trace on the full
# loop, and total degree 0 has the mask-0 diagonal blocks (0, z, z), whose
# pair with itself counts once
SQUARE_BUNDLES = (GradedBundle([(0, 2), (1, 2), (2, 1)]),
                  GradedBundle([(-2, 1), (0, 2), (2, 1)]))


@pytest.mark.parametrize("variables", [(), ("x", "y")], ids=["point", "chart"])
def test_trace_of_a_square_matches_the_trace_of_the_full_product(variables):
    rng = random.Random(151 + len(variables))
    nonzero = Counter()
    for bundle in SQUARE_BUNDLES:
        for total_degree in (0, 1, 2):
            for _ in range(3):
                X = kernel_total_form(rng, variables, 4, bundle, total_degree)
                square = X.wedge(X)
                for graded, trace in ((False, tr), (True, gtr)):
                    expected = trace(square)
                    assert X.wedge_trace(X, graded) == expected
                    nonzero[bundle.summands, total_degree, graded] += not expected.is_zero()
    # every case has a nonzero trace but those of an odd square where the
    # pair and its swap cancel: all but the ungraded one over an odd degree
    odd_degrees = SQUARE_BUNDLES[0]
    assert {key for key, n in nonzero.items() if n} == {
        (bundle.summands, s, graded) for bundle in SQUARE_BUNDLES for s in (0, 1, 2)
        for graded in (False, True)
        if s != 1 or (bundle == odd_degrees and not graded)}


@pytest.mark.parametrize("algebroid", [fractional_chart_presentation(),
                                       tangent_algebroid(Chart(WIDE))],
                         ids=["fractional_chart", "wide_chart"])
def test_d_total_is_d_on_every_entry(algebroid):
    # the anchor d/dx lowers an exponent: on TR^5 every image term, on the
    # fractional chart those of rho(e0) = 2/5 d/dx and rho(e3) = 1/2 d/dy
    rng = random.Random(137 + algebroid.rank)
    variables, rank = algebroid.variables, algebroid.rank
    images = lowered = 0
    for bundle in KERNEL_BUNDLES:
        for _ in range(2):
            K = kernel_total_form(rng, variables, rank, bundle, rng.randint(-1, 2))
            dK = algebroid.d_total(K)
            assert dK.total_degree == K.total_degree + 1
            assert set(dK.blocks) <= {(i + 1, l, j) for i, l, j in K.blocks}
            for (i, l, j), entries in K.blocks.items():
                for r, c in itertools.product(range(bundle.rank(j)), range(bundle.rank(l))):
                    entry = Form(variables, rank, i, 1,
                                 {(mi, 0): mat[r][c] for mi, mat in entries.items()})
                    image = {mi: p for (mi, _), p in algebroid.d(entry).coeffs.items()}
                    got = {mi: mat[r][c] for mi, mat in dK.block(i + 1, l, j).items()
                           if mat[r][c].terms}
                    assert got == image
                    images += bool(image)
                    if image:
                        low = min(sum(e) for p in entry.coeffs.values() for e in exponent_terms(p))
                        lowered += any(sum(e) < low for p in image.values()
                                       for e in exponent_terms(p))
    assert images >= 10 and lowered >= 3


# --- packed monomials ------------------------------------------------------------

exponents = st.one_of(st.integers(0, 3), st.integers(0, EXPONENT_LIMIT - 1))


@st.composite
def exponent_vectors(draw):
    """Three exponent vectors of one length, 1 to 5, below EXPONENT_LIMIT."""
    n = draw(st.integers(1, 5))
    return [tuple(draw(st.lists(exponents, min_size=n, max_size=n))) for _ in range(3)]


@settings(max_examples=300, deadline=None)
@given(exponent_vectors())
def test_packing_round_trips_keeps_order_and_adds(vectors):
    a, b, c = vectors
    n = len(a)
    assert _unpack(_pack(a), n) == a
    assert (_pack(a) < _pack(b)) == (a < b) and (_pack(a) == _pack(b)) == (a == b)
    assert _pack(a) + _pack(b) == _pack(tuple(map(sum, zip(a, b))))
    # any signed shift with a + shift >= 0, here c - a
    shift = tuple(y - x for x, y in zip(a, c))
    assert _pack(a) + _pack(shift) == _pack(c)
    assert _unpack(_pack(a) + _pack(shift), n) == c


def test_the_packed_layer_refuses_an_exponent_at_the_limit():
    # exponents enter the packed layer through Poly, whose constructor and
    # parser refuse one from 2^32 up, written in one factor or summed in a term
    with pytest.raises(MismatchError, match=r"4294967296 .* 2\^32"):
        Poly(VS, {(EXPONENT_LIMIT,): 1})
    with pytest.raises(MismatchError, match=r"2\^32"):
        Algebroid(Chart(VS), 1, [[Poly(VS, {(EXPONENT_LIMIT,): 1})]], [[[0]]])
    for text in ("x^4294967296", "x^4294967295*x", "2*x^0004294967296"):
        with pytest.raises(ParseError, match=r"4294967296 .* 2\^32"):
            Poly.parse(text, VS)
    with pytest.raises(ParseError, match=r"2\^32"):
        Algebroid(Chart(VS), 1, [["x^4294967296"]], [[[0]]])
    # below the limit a product carries past 2^32 within its field
    bundle = GradedBundle([(0, 1)])
    below = Poly.parse("x^4294967295", VS)
    assert below == Poly(VS, {(EXPONENT_LIMIT - 1,): 1})
    K = TotalForm(VS, 1, bundle, bundle, 1, {(1, 0, 0): {(0,): [[below]]}})
    image = hat(K, Form(VS, 1, 0, 1, {((), 0): below}))
    assert image.blocks == {(1, 0, 0): {(0,): ((below * below,),)}}
    assert str(image.blocks[(1, 0, 0)][(0,)][0][0]) == "x^8589934590"


# --- one denominator per operand, over denominators 3, 5, 7 and 11 -------------

# an integer operand, then operands over single odd primes and over their mix
ODD_DENOMINATORS = ((1,), (3,), (5,), (7,), (11,), (1, 3, 5, 7, 11))
# fiber ranks 1-4, with odd, even and mixed summand degrees
DENOMINATOR_BUNDLES = (
    GradedBundle([(0, 1)]),
    GradedBundle([(1, 2)]),
    GradedBundle([(0, 2), (1, 1)]),
    GradedBundle([(-1, 1), (0, 2), (1, 1)]),
)


def denominator_cuth(rng, algebroid, bundle, denominators):
    """A connection up to homotopy with Christoffel and D entries over `denominators`."""
    variables, rank = algebroid.variables, algebroid.rank
    nablas = {z: LinearConnection(algebroid, transposed([
        [[kernel_poly(rng, variables, denominators) for _ in range(r)] for _ in range(r)]
        for _ in range(rank)])) for z, r in bundle.summands}
    D = kernel_total_form(rng, variables, rank, bundle, 1, denominators)
    return ConnectionUpToHomotopy(algebroid, bundle, nablas, D)


# frame ranks 6, 4 and 5, so that tr(R^2) and, over the point, tr(R^3) can be nonzero
@pytest.mark.parametrize("algebroid", [catalog.abelian(6),
                                       tangent_algebroid(Chart(("x", "y", "z", "w"))),
                                       tangent_algebroid(Chart(WIDE))],
                         ids=["point", "chart", "wide_chart"])
def test_kernel_is_exact_over_denominators_3_5_7_and_11(algebroid):
    rng = random.Random(83 + algebroid.rank)
    variables = algebroid.variables
    primes, nonzero = set(), {"wedge": 0, "trace": 0, "apply": 0, "power trace": 0}
    for bundle in DENOMINATOR_BUNDLES:
        for _ in range(3):
            K, L = (kernel_total_form(rng, variables, 3, bundle, rng.randint(0, 1), dens)
                    for dens in rng.sample(ODD_DENOMINATORS, 2))
            W = wedge_reference(K, L)
            assert K.wedge(L) == W
            assert K.wedge_trace(L) == tr(W) and K.wedge_trace(L, graded=True) == gtr(W)
            nonzero["wedge"] += not W.is_zero()
            nonzero["trace"] += not tr(W).is_zero()
            primes |= {p for p in (3, 5, 7, 11) for M in (K, L) if M._kernel[0] % p == 0}
            # one element of total degree s whose parts, a t-form in E_z for
            # each summand with t = s - z in 0..2, are over different denominators
            spans = {s: [z for z in bundle.degrees() if 0 <= s - z <= 2] for s in range(-1, 5)}
            s = rng.choice([s for s in spans if len(spans[s]) == max(map(len, spans.values()))])
            x = TotalForm.zero(variables, 3, LINE, bundle, s)
            for z in spans[s]:
                t, r, dens = s - z, bundle.rank(z), rng.choice(ODD_DENOMINATORS)
                x = x + element(bundle, Form(variables, 3, t, r,
                                             {(mi, a): kernel_poly(rng, variables, dens)
                                              for mi in itertools.combinations(range(3), t)
                                              for a in range(r)}), z)
            expected = apply_part_reference(K, x)
            assert hat(K, x) == expected
            nonzero["apply"] += not expected.is_zero()
        # the trace-only product R^(j-1) with R against tr and gtr of R^j
        conn = denominator_cuth(rng, algebroid, bundle, rng.choice(ODD_DENOMINATORS[1:]))
        R = conn.curvature()
        for j in (2, 3):
            power = curvature_power(conn, j)
            assert curvature_power(conn, j - 1).wedge_trace(R) == tr(power)
            assert curvature_power(conn, j - 1).wedge_trace(R, graded=True) == gtr(power)
            nonzero["power trace"] += not tr(power).is_zero()
    assert primes == {3, 5, 7, 11}
    assert min(nonzero.values()) >= 3


# --- the kernel view: bitmasks, popcount signs, trusted results ---------------


def test_mask_sign_equals_merge_indices_on_every_pair_of_subsets():
    """The kernel's sign of a disjoint pair, the parity of left & the right
    mask's parity word, is the merge sign on every pair of subsets of
    range(8); so is the popcount loop it replaced."""
    subsets = [mi for k in range(9) for mi in itertools.combinations(range(8), k)]
    assert len(subsets) == 256
    for left in subsets:
        assert _indices(_mask(left)) == left
        for right in subsets:
            sign, merged = merge_indices(left, right)
            mask1, mask2 = _mask(left), _mask(right)
            assert merge_sign(mask1, mask2) == sign
            if mask1 & mask2:
                assert sign == 0
                continue
            assert (-1 if (mask1 & _parity_word(mask2)).bit_count() & 1 else 1) == sign
            assert _indices(mask1 | mask2) == merged


def sparse_total_form(rng, variables, frame_rank, bundle, total_degree):
    """Random blocks with at most four multi-indices each, at any frame rank."""
    blocks = {}
    for l in bundle.degrees():
        for j in bundle.degrees():
            i = total_degree + l - j
            if not 0 <= i <= frame_rank:
                continue
            every = list(itertools.combinations(range(frame_rank), i))
            entries = {mi: [[kernel_poly(rng, variables) for _ in range(bundle.rank(l))]
                            for _ in range(bundle.rank(j))]
                       for mi in rng.sample(every, min(len(every), rng.randint(0, 4)))}
            if entries:
                blocks[(i, l, j)] = entries
    return TotalForm(variables, frame_rank, bundle, bundle, total_degree, blocks)


def count_index_pairs(K, L, seen):
    """Tally disjoint and overlapping multi-index pairs of composable blocks."""
    for (_, m1, _), entries1 in K.blocks.items():
        for (_, _, m2), entries2 in L.blocks.items():
            if m1 == m2:
                for mi1 in entries1:
                    for mi2 in entries2:
                        seen[merge_indices(mi1, mi2)[0] != 0] += 1


@pytest.mark.parametrize("frame_rank", range(1, 9))
@pytest.mark.parametrize("variables", KERNEL_BASES)
def test_kernel_matches_the_references_at_every_frame_rank(variables, frame_rank):
    # KERNEL_BUNDLES have summands of odd and even degree, so blocks of odd
    # and even fiber degree j - l meet in every product
    rng = random.Random(1000 * frame_rank + len(variables))
    seen = {True: 0, False: 0}    # disjoint pairs, overlapping pairs
    nonzero = 0
    for bundle in KERNEL_BUNDLES:
        for _ in range(2):
            K = sparse_total_form(rng, variables, frame_rank, bundle, rng.randint(0, 2))
            L = sparse_total_form(rng, variables, frame_rank, bundle, rng.randint(0, 2))
            count_index_pairs(K, L, seen)
            W = K.wedge(L)
            assert W == wedge_reference(K, L)
            assert L.wedge(K) == wedge_reference(L, K)
            nonzero += not W.is_zero()
            l, t = rng.choice(bundle.degrees()), rng.randint(0, min(2, frame_rank))
            coeffs = {(mi, a): kernel_poly(rng, variables)
                      for mi in itertools.combinations(range(frame_rank), t)
                      for a in range(bundle.rank(l)) if rng.random() < 0.5}
            form = Form(variables, frame_rank, t, bundle.rank(l), coeffs)
            x = element(K.src, form, l)
            assert hat(K, x) == apply_part_reference(K, x)
    assert seen[True] > 0 and seen[False] > 0
    assert nonzero >= 3


def assert_trusted(result):
    """An engine-built result equals the checked constructor on its own data."""
    if isinstance(result, TotalForm):
        rebuilt = TotalForm(result.variables, result.frame_rank, result.src,
                            result.dst, result.total_degree, result.blocks)
        assert_nothing_zero_stored(result)
    else:
        rebuilt = Form(result.variables, result.frame_rank, result.degree,
                       result.fiber_dim, result.coeffs)
        assert all(not p.is_zero() for p in result.coeffs.values())
    assert result == rebuilt
    assert type(result.variables) is tuple


@pytest.mark.parametrize("algebroid", [catalog.sl2(), catalog.aff1_action_line()],
                         ids=["point", "chart"])
def test_engine_built_results_equal_their_checked_rebuild(algebroid):
    rng = random.Random(71)
    variables, rank = algebroid.variables, algebroid.rank
    bundle = KERNEL_BUNDLES[0]
    for _ in range(3):
        K = kernel_total_form(rng, variables, rank, bundle, 1)
        L = kernel_total_form(rng, variables, rank, bundle, 1)
        alpha = random_form(rng, variables, rank, 1, fiber_dim=2, density=3)
        beta = random_form(rng, variables, rank, 1, density=3)
        results = [K.wedge(L), K + L, K - L, K - K, -K, K.scale(Fraction(-2, 3)),
                   K.scale(0), algebroid.d_total(K), algebroid.d_total(K - K),
                   alpha + alpha, alpha - alpha, -alpha, alpha.scale(3), alpha.scale(0),
                   beta.wedge(alpha), beta.wedge(beta), algebroid.d(alpha),
                   algebroid.d(beta), gtr(K.wedge(L)), tr(K.wedge(L))]
        results.append(hat(K, element(K.src, alpha, 0)))
        assert any(not r.is_zero() for r in results)
        for result in results:
            assert_trusted(result)
        assert (K - K).is_zero() and not (K - K).blocks
        assert K.scale(0).is_zero() and not K.scale(0).blocks


def test_kernel_view_and_omega_are_built_once():
    rng = random.Random(73)
    algebroid = catalog.sl2()
    bundle = KERNEL_BUNDLES[0]
    cuth = random_cuth(rng, algebroid, bundle)
    section = basis_element(cuth.variables, cuth.algebroid.rank, bundle, 0, 0)
    cuth.apply(section)
    omega = cuth.omega()
    assert omega == cuth.connection_form() + cuth.D
    assert omega._kernel is not None   # apply read the kept Omega
    kernel = omega._kernel
    cuth.curvature()
    cuth.d_end(cuth.D)
    cuth.apply(section)
    assert cuth.omega() is omega and omega._kernel is kernel
    K = kernel_total_form(rng, (), 3, bundle, 1)
    L = kernel_total_form(rng, (), 3, bundle, 2)
    first, again = K.wedge(L), K.wedge(L)
    assert first == again == wedge_reference(K, L)
    assert K.wedge(K) == K.wedge(K) == wedge_reference(K, K)
    form = random_form(rng, (), 3, 1, fiber_dim=2, density=4)
    x = element(K.src, form, 0)
    assert hat(K, x) == hat(K, x) == apply_part_reference(K, x)


# --- the stored form is canonical ----------------------------------------------


@pytest.mark.parametrize("variables", KERNEL_BASES)
def test_arithmetic_comes_back_to_the_same_stored_form(variables):
    rng = random.Random(113 + len(variables))
    distinct = 0
    for bundle in DENOMINATOR_BUNDLES:
        for dens in itertools.permutations(((3,), (5,), (7,), (11,)), 2):
            K, L = (kernel_total_form(rng, variables, 3, bundle, 1, d) for d in dens)
            distinct += K._kernel[0] not in (1, L._kernel[0]) and L._kernel[0] != 1
            assert (K + L) - L == K
            assert (K + L)._kernel[0] == math.lcm(K._kernel[0], L._kernel[0])
            assert K.scale(3).scale(Fraction(1, 3)) == K
            assert K.scale(Fraction(2, 5)) == K.scale(Fraction(-4, 10)).scale(-1)
            zero = TotalForm.zero(variables, 3, bundle, bundle, 1)
            for cancelled in ((K + L) - K - L, K + K.scale(-1), K - K, K.scale(0)):
                assert cancelled.is_zero() and not cancelled.blocks
                assert cancelled._kernel == (1, {}) and cancelled == zero
    assert distinct >= 10


# the bytes that `to_json` wrote for these engine-built forms when a TotalForm
# kept its blocks as Poly matrices: (length, sha256)
ENGINE_BUILT_JSON = {
    "point": (6563, "ccf740dbd0bceb708d7a6df52a18d991d4ba9b531ac557ef866e12a7b5216b34"),
    "chart": (26060, "e92d751e09e62b8453cf41953b55e764f648be2b4a42eaeed26aaec8ff0559ed"),
}


@pytest.mark.parametrize("base, maker", [("point", catalog.sl2),
                                         ("chart", fractional_chart_presentation)])
def test_to_json_of_engine_built_forms_is_unchanged(base, maker):
    conn = random_cuth(random.Random(109), maker(), KERNEL_BUNDLES[0])
    R = conn.curvature()
    built = [R, R.wedge(R), conn.d_end(conn.D) - R.scale(Fraction(2, 3))]
    text = json.dumps([form.to_json() for form in built], sort_keys=True)
    assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == ENGINE_BUILT_JSON[base]


@pytest.mark.parametrize("variables", KERNEL_BASES)
def test_blocks_of_a_product_are_the_poly_product(variables, monkeypatch):
    # the Poly matrices wedge_reference hands to the checked constructor
    poly_blocks = []
    init = TotalForm.__init__

    def capture(self, *args):
        poly_blocks.append(args[5])
        init(self, *args)

    monkeypatch.setattr(TotalForm, "__init__", capture)
    rng = random.Random(127 + len(variables))
    for bundle in KERNEL_BUNDLES:
        for _ in range(3):
            K = kernel_total_form(rng, variables, 3, bundle, rng.randint(0, 2))
            L = kernel_total_form(rng, variables, 3, bundle, rng.randint(0, 2))
            W = K.wedge(L)
            wedge_reference(K, L)
            expected = {key: {mi: mat for mi, mat in entries.items() if not mat_is_zero(mat)}
                        for key, entries in poly_blocks.pop().items()}
            assert W.blocks == {key: entries for key, entries in expected.items() if entries}
            for (i, l, j), entries in W.blocks.items():
                for mat in entries.values():
                    assert len(mat) == bundle.rank(j)
                    assert all(len(row) == bundle.rank(l) for row in mat)
                    assert all(p.variables == variables for row in mat for p in row)


# --- d_A Y + X ^ Y in one kernel pass -----------------------------------------------


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_fused_pass_is_d_total_plus_the_wedge(name):
    # the curvature's last pass; X's denominators 4, 9 and 11
    # are not all in any algebroid's _d_den, so both scales of the joined
    # denominator are > 1 on fractional_chart (_d_den 210)
    a = PRESENTATIONS[name]()
    rng = random.Random(f"fused:{name}")
    variables, rank = a.variables, a.rank
    joined = nonzero = 0
    for bundle in KERNEL_BUNDLES:
        for _ in range(2):
            X = kernel_total_form(rng, variables, rank, bundle, 1, (1, 4, 9, 11))
            Y = kernel_total_form(rng, variables, rank, bundle, rng.randint(-1, 1))
            fused = TotalForm._unchecked(variables, rank, bundle, bundle,
                                         Y.total_degree + 1,
                                         X._product(Y._kernel, bundle, d_a=a))
            expected = a.d_total(Y) + X.wedge(Y)
            assert fused == expected
            assert_trusted(fused)
            nonzero += not expected.is_zero()
            D = math.lcm(X._kernel[0], a._d_den)
            joined += D > X._kernel[0] and D > a._d_den
    assert nonzero
    assert joined or name != "fractional_chart"


# --- a Form is the one-column TotalForm, pinned by the Poly references -----------

E3 = GradedBundle([(0, 2), (1, 1)])


def test_a_form_is_the_one_column_total_form():
    assert issubclass(Form, TotalForm)
    for name in ("__add__", "__neg__", "__sub__", "__eq__", "is_zero", "_unchecked"):
        assert name not in vars(Form), name
    rng = random.Random(139)
    algebroid = fractional_chart_presentation()
    form = random_form(rng, algebroid.variables, algebroid.rank, 2, fiber_dim=3, density=3)
    scalar = random_form(rng, algebroid.variables, algebroid.rank, 1, density=3)
    built = [form, form + form, form - form, -form, form.scale(Fraction(2, 7)),
             scalar.wedge(form), form.wedge(scalar), scalar.wedge(scalar), algebroid.d(form),
             algebroid.d_total(form), gtr(TotalForm.identity(algebroid.variables, 4, E3))]
    for result in built:
        assert isinstance(result, Form) and isinstance(result, TotalForm)
        assert result.src == GradedBundle([(0, 1)])
        assert result.dst == GradedBundle([(0, result.fiber_dim)])
        assert set(result._kernel[1]) <= {(result.degree, 0, 0)}
        assert_trusted(result)


def reference_form(rng, variables, frame_rank, degree, fiber_dim, denominators):
    """A Form with `kernel_poly` coefficients over `denominators` on about
    two thirds of its (multi-index, fiber index) slots."""
    return Form(variables, frame_rank, degree, fiber_dim,
                {(mi, a): kernel_poly(rng, variables, denominators)
                 for mi in itertools.combinations(range(frame_rank), degree)
                 for a in range(fiber_dim) if rng.random() < 0.7})


@pytest.mark.parametrize("variables", KERNEL_BASES)
def test_form_arithmetic_matches_the_poly_references(variables):
    rng = random.Random(149 + len(variables))
    nonzero = Counter()
    for _ in range(40):
        p, q, fiber = rng.choice((0, 1, 1, 2, 3)), rng.choice((0, 1, 1, 2, 3)), rng.randint(2, 3)
        dens = rng.sample(ODD_DENOMINATORS, 2)
        a, b = (reference_form(rng, variables, 4, k, 1, d) for k, d in ((p, dens[0]), (q, dens[1])))
        v, w = (reference_form(rng, variables, 4, q, fiber, d) for d in dens)
        cases = {"scalar^scalar": (a.wedge(b), poly_wedge(a, b)),
                 "vector^scalar": (v.wedge(a), poly_wedge(v, a)),
                 "scalar^vector": (a.wedge(v), poly_wedge(a, v)),
                 "+": (v + w, poly_add(v, w)),
                 "-": (v - w, poly_add(v, poly_scale(w, -1)))}
        r = Fraction(rng.choice((-4, -1, 2, 5)), rng.choice((3, 5, 7, 11)))
        cases["scale by a rational"] = (v.scale(r), poly_scale(v, r))
        for name, (got, expected) in cases.items():
            assert got == expected, name
            nonzero[name] += not expected.is_zero()
        # the swap of a scalar past a vector-valued form has an odd sign
        nonzero["odd swap"] += p * q % 2 == 1 and not cases["scalar^vector"][1].is_zero()
    assert min(nonzero.values()) >= 5, nonzero
    assert len(nonzero) == 7


@pytest.mark.parametrize("name", sorted(PRESENTATIONS) + ["wide_chart"])
def test_d_and_the_connection_d_match_the_poly_references(name):
    a = tangent_algebroid(Chart(WIDE)) if name == "wide_chart" else PRESENTATIONS[name]()
    rng = random.Random(f"poly-references:{name}")
    variables, rank = a.variables, a.rank
    nonzero = Counter()
    for degree, fiber in itertools.product(range(min(rank, 3)), (1, 2) * 3):
        form = Form.zero(variables, rank, degree, fiber)
        while form.is_zero():
            form = reference_form(rng, variables, rank, degree, fiber,
                                  rng.choice(ODD_DENOMINATORS))
        image = a.d(form)
        assert image == poly_d(a, form)
        nonzero["d"] += not image.is_zero()
        nabla = LinearConnection(a, transposed([
            [[kernel_poly(rng, variables, rng.choice(ODD_DENOMINATORS))
              for _ in range(fiber)] for _ in range(fiber)] for _ in range(rank)]))
        image = nabla.apply(form)
        assert image == poly_connection_d(nabla, form)
        nonzero["connection d"] += not image.is_zero()
    assert nonzero["connection d"] >= 3
    assert nonzero["d"] >= 1 or a.d_vanishes
