"""Forms and total forms: shuffles, wedge, the hat action, graded trace."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from gradweil import catalog
from gradweil.errors import MismatchError
from gradweil.forms import (
    Form,
    GradedBundle,
    GradedElement,
    TotalForm,
    _indices,
    _mask,
    _merge_sign,
    extend_total_form,
    graded_commutator,
    gtr,
    ideal_membership,
    mat_add,
    mat_is_zero,
    mat_mul,
    mat_neg,
    merge_indices,
    render_form,
    restrict_total_form,
    shuffles,
    sort_with_sign,
    tr,
    unhat_from_sections,
)
from gradweil.randgen import random_cuth, random_form, random_total_form
from gradweil.ring import Poly

VS = ("x",)


# --- test-local constructions ----------------------------------------------


def single_block(variables, frame_rank, src, dst, block, entries):
    """A TotalForm with the one block (i, l, j) of total degree i + j - l."""
    i, l, j = block
    return TotalForm(variables, frame_rank, src, dst, i + j - l, {block: entries})


def hat_roundtrip(total_form):
    """Reconstruct a TotalForm through its operator action; must be identity."""
    return unhat_from_sections(
        lambda l, alpha: total_form.apply(
            GradedElement.basis_section(total_form.variables,
                                        total_form.frame_rank,
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
    out = K.apply_part(omega, 0)
    assert out.parts == {(2, 0): Form(VS, 2, 2, 1, {((0, 1), 0): one})}


def test_hat_koszul_sign_on_shifting_block():
    # a 0-form block E_0 -> E_1 anticommutes past odd-degree forms:
    # hat picks up (-1)^{(j-l) t} with j - l = 1
    one = Poly.one(VS)
    K = single_block(VS, 2, TWO_TERM, TWO_TERM, (0, 0, 1), {(): [[one]]})
    omega1 = Form(VS, 2, 1, 1, {((0,), 0): one})
    out = K.apply_part(omega1, 0)
    assert out.parts == {(1, 1): omega1.scale(-1)}
    omega2 = Form(VS, 2, 2, 1, {((0, 1), 0): one})
    assert K.apply_part(omega2, 0).parts == {(2, 1): omega2}


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
        lhs = W.apply_part(omega, l)
        rhs = K1.apply(K2.apply_part(omega, l))
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
        assert value.get(()).constant_value() == expected
        assert tr(K).get(()).constant_value() == 2


def test_graded_commutator_two_term():
    one = Poly.one(())
    K1 = single_block((), 2, TWO_TERM, TWO_TERM, (0, 0, 1), {(): [[one]]})
    K2 = single_block((), 2, TWO_TERM, TWO_TERM, (0, 1, 0), {(): [[one]]})
    # degrees +1 and -1, so [K1, K2] = K1 K2 + K2 K1 = id_E1 + id_E0
    comm = graded_commutator(K1, K2)
    assert comm.blocks == TotalForm.identity((), 2, TWO_TERM).blocks
    assert gtr(comm).is_zero()
    assert tr(comm).get(()).constant_value() == 2


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
    with pytest.raises(MismatchError):
        Form(VS, 2, 1, 1, {((0, 1), 0): one})


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


def apply_part_reference(K, form, l):
    """hat(K) on an E_l-valued form, one Poly product per matrix entry."""
    out = GradedElement(K.variables, K.frame_rank, K.dst)
    t = form.degree
    for (i, bl, j), entries in K.blocks.items():
        if bl != l:
            continue
        koszul = -1 if ((j - l) * t) % 2 else 1
        coeffs = {}
        for mi1, mat in entries.items():
            for mi2 in {mi for mi, _ in form.coeffs}:
                sign, merged = merge_indices(mi1, mi2)
                if sign == 0:
                    continue
                vec = form.fiber_vector(mi2)
                for beta in range(K.dst.rank(j)):
                    val = Poly.zero(K.variables)
                    for a, v in enumerate(vec):
                        val = val + mat[beta][a] * v
                    if sign * koszul == -1:
                        val = -val
                    key = (merged, beta)
                    coeffs[key] = coeffs.get(key, Poly.zero(K.variables)) + val
        part = Form(K.variables, K.frame_rank, t + i, K.dst.rank(j), coeffs)
        out = out + GradedElement.single(K.dst, part, j)
    return out


def kernel_poly(rng, variables):
    """A Poly with non-integer coefficients, zero a quarter of the time."""
    if rng.random() < 0.25:
        return Poly.zero(variables)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        expo = tuple(rng.randint(0, 1) for _ in variables)
        terms[expo] = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 6)))
    return Poly(variables, terms)


def kernel_total_form(rng, variables, frame_rank, bundle, total_degree):
    """Random blocks in every admissible slot, with zero entries and Fractions."""
    blocks = {}
    for l in bundle.degrees():
        for j in bundle.degrees():
            i = total_degree + l - j
            if not 0 <= i <= frame_rank:
                continue
            entries = {mi: [[kernel_poly(rng, variables)
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


# odd and negative summand degrees, on the point base and on TR^2
KERNEL_BUNDLES = (
    GradedBundle([(0, 2), (1, 2), (2, 1)]),
    GradedBundle([(-1, 1), (0, 2), (1, 1)]),
    GradedBundle([(-2, 1), (1, 2), (3, 1)]),
)
KERNEL_BASES = ((), ("x", "y"))


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
            image = K.apply_part(form, l)
            assert image == apply_part_reference(K, form, l)
            for part in image.parts.values():
                assert not part.is_zero()
                assert all(not p.is_zero() for p in part.coeffs.values())
                assert all(c != 0 for p in part.coeffs.values() for c in p.terms.values())
            nonzero += not image.is_zero()
    assert nonzero > 12


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
                    e = GradedElement.basis_section(variables, 3, bundle, z, alpha)
                    assert W.apply(e) == K.apply(L.apply(e))


# --- the kernel view: bitmasks, popcount signs, trusted results ---------------


def test_mask_sign_equals_merge_indices_on_every_pair_of_subsets():
    subsets = [mi for k in range(7) for mi in itertools.combinations(range(6), k)]
    assert len(subsets) == 64
    for left in subsets:
        assert _indices(_mask(left)) == left
        for right in subsets:
            sign, merged = merge_indices(left, right)
            assert _merge_sign(_mask(left), _mask(right)) == sign
            if sign:
                assert _indices(_mask(left) | _mask(right)) == merged


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
            assert K.apply_part(form, l) == apply_part_reference(K, form, l)
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
        results += list(K.apply_part(alpha, 0).parts.values())
        assert any(not r.is_zero() for r in results)
        for result in results:
            assert_trusted(result)
        assert (K - K).is_zero() and not (K - K).blocks
        assert K.scale(0).is_zero() and not K.scale(0).blocks


def test_kernel_view_and_connection_form_are_built_once():
    rng = random.Random(73)
    algebroid = catalog.sl2()
    bundle = KERNEL_BUNDLES[0]
    cuth = random_cuth(rng, algebroid, bundle)
    assert cuth.connection_form() is cuth.connection_form()
    nabla = cuth.nablas[0]
    assert nabla.connection_form() is nabla.connection_form()
    assert nabla.connection_form(1) is nabla.connection_form(1)
    assert nabla.connection_form(1) is not nabla.connection_form()
    K = kernel_total_form(rng, (), 3, bundle, 1)
    L = kernel_total_form(rng, (), 3, bundle, 2)
    first, again = K.wedge(L), K.wedge(L)
    assert first == again == wedge_reference(K, L)
    assert K.wedge(K) == K.wedge(K) == wedge_reference(K, K)
    form = random_form(rng, (), 3, 1, fiber_dim=2, density=4)
    assert K.apply_part(form, 0) == K.apply_part(form, 0) == apply_part_reference(K, form, 0)
