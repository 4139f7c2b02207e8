"""Algebroid presentations: axioms, the differential, subframes."""

import itertools
import random
from fractions import Fraction

import pytest

from gradweil import catalog
from gradweil.algebroid import Algebroid, Chart, Subframe, tangent_algebroid
from gradweil.errors import MismatchError
from gradweil.forms import Form, GradedBundle, _indices, _mask
from gradweil.randgen import random_form, random_poly, random_total_form
from gradweil.ring import Poly, _pack, _unpack
import oracles
from oracles import exponent_terms, random_structure_perturbation, sort_with_sign

POINT = Chart(())
LINE = Chart(("x",))


@pytest.mark.parametrize(
    "name",
    [
        "sl2",
        "aff1",
        "heisenberg3",
        "aff1_plus_center",
        "two_aff1_plus_center",
        "solvable5",
        "aff1_action_line",
        "tangent_plane",
        "tangent_line",
    ],
)
def test_catalog_axioms(name):
    a = getattr(oracles if name == "tangent_line" else catalog, name)()
    report = a.check_axioms()
    assert report.antisymmetry_ok and report.anchor_ok and report.jacobi_ok
    assert report.failures == ()
    ok, fails = a.d_squared_check()
    assert ok and fails == ()


def test_broken_jacobi_detected():
    a = catalog.broken_jacobi()
    report = a.check_axioms()
    assert report.antisymmetry_ok and report.anchor_ok
    assert not report.jacobi_ok
    assert any(f.startswith("jacobi fails on triple") for f in report.failures)
    ok, fails = a.d_squared_check()
    assert not ok and fails


def test_broken_anchor_detected():
    # rho(e1) = d/dx, rho(e2) = 0, but [e1, e2] = e1 has nonzero anchor
    a = Algebroid.from_brackets(LINE, 2, [["1"], ["0"]], {(0, 1): ["1", "0"]})
    report = a.check_axioms()
    assert report.antisymmetry_ok and report.jacobi_ok
    assert not report.anchor_ok
    assert report.failures == ("anchor condition fails on pair (0,1)",)


def test_broken_antisymmetry_detected():
    # bypass from_brackets, which antisymmetrizes by construction
    zero = Poly.zero(())
    one = Poly.one(())
    c = [[[zero, zero], [one, zero]], [[one, zero], [zero, zero]]]
    a = Algebroid(POINT, 2, [[], []], c)
    report = a.check_axioms()
    assert not report.antisymmetry_ok
    assert any("antisymmetry fails" in f for f in report.failures)


def test_koszul_on_aff1():
    # [e1, e2] = e2, so d eps1 = 0 and d eps2 = -eps1 ^ eps2
    a = catalog.aff1()
    eps1 = Form.coframe((), 2, 0)
    eps2 = Form.coframe((), 2, 1)
    assert a.d(eps1).is_zero()
    assert a.d(eps2) == -eps1.wedge(eps2)


def test_anchor_pullback_of_coordinate():
    # action algebroid on the line: rho(e1) = d/dx, rho(e2) = x d/dx,
    # hence d(x) = eps1 + x eps2
    a = catalog.aff1_action_line()
    x = Poly.variable(("x",), 0)
    dx = a.d(Form.function(("x",), 2, x))
    expected = Form(("x",), 2, 1, 1, {((0,), 0): Poly.one(("x",)), ((1,), 0): x})
    assert dx == expected


def test_d_squared_iff_axioms():
    rng = random.Random(4)
    seen_broken = 0
    for _ in range(40):
        base = catalog.sl2() if rng.random() < 0.5 else catalog.aff1()
        a = random_structure_perturbation(rng, base)
        axioms_ok = a.check_axioms().jacobi_ok and a.check_axioms().antisymmetry_ok
        d2_ok, _ = a.d_squared_check()
        assert axioms_ok == d2_ok
        if not axioms_ok:
            seen_broken += 1
    assert seen_broken > 0  # perturbations must actually exercise the failing side


def test_d_is_an_antiderivation():
    rng = random.Random(9)
    a = catalog.aff1_action_line()
    for _ in range(25):
        p = rng.randint(0, 2)
        q = rng.randint(0, 2)
        alpha = random_form(rng, a.variables, a.rank, p)
        beta = random_form(rng, a.variables, a.rank, q)
        lhs = a.d(alpha.wedge(beta))
        sign = -1 if p % 2 else 1
        rhs = a.d(alpha).wedge(beta) + alpha.wedge(a.d(beta)).scale(sign)
        assert lhs == rhs


def test_section_bracket_leibniz():
    a = catalog.aff1_action_line()
    vs = a.variables
    x = Poly.variable(vs, 0)
    one, zero = Poly.one(vs), Poly.zero(vs)
    u = [one, x]
    v = [x * x, one]
    f = x + Poly.constant(vs, 2)
    fv = [f * c for c in v]
    lhs = a.section_bracket(u, fv)
    base = a.section_bracket(u, v)
    rho_u_f = sum((u[i] * a.anchor_apply(i, f) for i in range(a.rank)),
                  zero)
    rhs = [f * base[k] + rho_u_f * v[k] for k in range(a.rank)]
    assert lhs == rhs


def test_section_bracket_antisymmetric():
    a = catalog.sl2()
    one, zero = Poly.one(()), Poly.zero(())
    u = [one, zero, one]
    v = [zero, one, one]
    assert a.section_bracket(u, v) == [-c for c in a.section_bracket(v, u)]


def test_subframe_validation():
    sub = Subframe(3, [1, 0, 1])
    assert sub.indices == (0, 1)
    assert sub.rank == 2 and sub.codim == 1
    assert sub.complement() == (2,)
    with pytest.raises(MismatchError):
        Subframe(3, [3])
    with pytest.raises(MismatchError):
        Subframe(3, [-1])


def test_subalgebroid_and_restrict():
    sl2 = catalog.sl2()
    borel = Subframe(3, [0, 1])
    assert sl2.subalgebroid_failures(borel) == []
    b = sl2.restrict(borel)
    assert b.rank == 2
    # restricted bracket keeps [h, e] = 2e
    assert [str(c) for c in b.section_bracket(
        [Poly.one(()), Poly.zero(())], [Poly.zero(()), Poly.one(())])] == ["0", "2"]
    # (e, f) spans no subalgebra: [e, f] = h sticks out
    leaks = sl2.subalgebroid_failures(Subframe(3, [1, 2]))
    assert (1, 2, 0) in leaks


def test_tangent_algebroid():
    t = tangent_algebroid(Chart(("x", "y")))
    assert t.rank == 2
    assert t.check_axioms().failures == ()
    f = Poly.parse("x^2*y", ("x", "y"))
    df = t.d(Form.function(("x", "y"), 2, f))
    expected = Form(("x", "y"), 2, 1, 1, {((0,), 0): f.partial(0), ((1,), 0): f.partial(1)})
    assert df == expected
    with pytest.raises(MismatchError):
        tangent_algebroid(POINT)


def test_json_roundtrip():
    for a in (catalog.sl2(), catalog.aff1_action_line(), catalog.solvable5()):
        b = Algebroid.from_json(a.to_json())
        assert b.to_json() == a.to_json()
        assert b.structure == a.structure
        assert b.anchor == a.anchor


# --- the Koszul formula as the oracle for d ---------------------------------


def koszul_reference(algebroid, form):
    """d_A of a scalar form by the Koszul formula on frame elements.

        (d w)(a_0..a_k) = sum_t (-1)^t rho(a_t) w(.. a_t ..)
                        + sum_{s<t} (-1)^{s+t} w([a_s,a_t], .. a_s .. a_t ..)

    evaluated on every ascending multi-index of degree k + 1.  It shares no
    code with the term-by-term derivation rule of the d_A table.
    """
    k = form.degree
    coeffs = {}
    for out_idx in itertools.combinations(range(algebroid.rank), k + 1):
        acc = Poly.zero(algebroid.variables)
        for t in range(k + 1):
            rest = out_idx[:t] + out_idx[t + 1:]
            val = form.get(rest)
            if not val.is_zero():
                term = algebroid.anchor_apply(out_idx[t], val)
                acc = acc + (term if t % 2 == 0 else -term)
        for s in range(k + 1):
            for t in range(s + 1, k + 1):
                rest = tuple(x for idx, x in enumerate(out_idx)
                             if idx != s and idx != t)
                sign_st = -1 if (s + t) % 2 else 1
                for m, c in enumerate(algebroid.structure[out_idx[s]][out_idx[t]]):
                    if c.is_zero():
                        continue
                    sgn, mi = sort_with_sign((m,) + rest)
                    if sgn == 0:
                        continue
                    val = form.get(mi)
                    if val.is_zero():
                        continue
                    term = c * val
                    acc = acc + (-term if sign_st * sgn == -1 else term)
        if not acc.is_zero():
            coeffs[(out_idx, 0)] = acc
    return Form(algebroid.variables, algebroid.rank, k + 1, 1, coeffs)


def polynomial_presentation():
    """Random polynomial anchor and brackets on (x, y), rank 3.

    No axiom holds, but the derivation rule and the Koszul formula agree on
    any presentation, so this exercises polynomial structure functions,
    which no catalog algebroid has.
    """
    rng = random.Random(31)
    variables = ("x", "y")
    anchor = [[random_poly(rng, variables, 2) for _ in variables] for _ in range(3)]
    brackets = {(i, j): [random_poly(rng, variables, 2) for _ in range(3)]
                for i, j in itertools.combinations(range(3), 2)}
    return Algebroid.from_brackets(Chart(variables), 3, anchor, brackets)


def non_antisymmetric_presentation():
    """Structure data with c[0][1] != -c[1][0]; d reads only a < b."""
    one, two = Poly.one(()), Poly.constant((), 2)
    zero = Poly.zero(())
    c = [[[zero, zero], [one, two]], [[one, zero], [zero, zero]]]
    return Algebroid(POINT, 2, [[], []], c)


def fractional_point_presentation():
    """A rank-5 solvable Lie algebra whose structure constants have
    denominators 2, 3, 5, 6 and 7: [e0, e1] = e1/2, [e0, e2] = e2/3,
    [e0, e3] = 5/6 e3, [e0, e4] = 2/7 e4 and [e1, e2] = 3/5 e3."""
    brackets = {(0, 1): [0, Fraction(1, 2), 0, 0, 0], (0, 2): [0, 0, Fraction(1, 3), 0, 0],
                (0, 3): [0, 0, 0, Fraction(5, 6), 0], (0, 4): [0, 0, 0, 0, Fraction(2, 7)],
                (1, 2): [0, 0, 0, Fraction(3, 5), 0]}
    return Algebroid.from_brackets(POINT, 5, [[] for _ in range(5)], brackets)


def fractional_chart_presentation():
    """An action of sl2 on the line times a translation in y, with anchor
    denominators 2, 3, 5 and 7 and structure denominators 3 and 7.

    rho(e0) = 2/5 d/dx, rho(e1) = x/3 d/dx, rho(e2) = 5/7 x^2 d/dx and
    rho(e3) = 1/2 d/dy, so [e0, e1] = e0/3, [e0, e2] = 12/7 e1 and
    [e1, e2] = e2/3; e3 brackets to zero.
    """
    anchor = [["2/5", "0"], ["1/3*x", "0"], ["5/7*x^2", "0"], ["0", "1/2"]]
    brackets = {(0, 1): ["1/3", "0", "0", "0"], (0, 2): ["0", "12/7", "0", "0"],
                (1, 2): ["0", "0", "1/3", "0"]}
    return Algebroid.from_brackets(Chart(("x", "y")), 4, anchor, brackets)


PRESENTATIONS = {
    "abelian1": lambda: catalog.abelian(1),
    "abelian4": lambda: catalog.abelian(4),
    "aff1": catalog.aff1,
    "heisenberg3": catalog.heisenberg3,
    "sl2": catalog.sl2,
    "aff1_plus_center": catalog.aff1_plus_center,
    "two_aff1_plus_center": catalog.two_aff1_plus_center,
    "solvable5": catalog.solvable5,
    "tangent_line": oracles.tangent_line,
    "tangent_plane": catalog.tangent_plane,
    "aff1_action_line": catalog.aff1_action_line,
    "broken_jacobi": catalog.broken_jacobi,
    "tangent1": lambda: tangent_algebroid(Chart(("x",))),
    "tangent2": lambda: tangent_algebroid(Chart(("x", "y"))),
    "tangent3": lambda: tangent_algebroid(Chart(("x", "y", "z"))),
    "polynomial": polynomial_presentation,
    "non_antisymmetric": non_antisymmetric_presentation,
    "fractional_point": fractional_point_presentation,
    "fractional_chart": fractional_chart_presentation,
}


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_d_matches_the_koszul_formula(name):
    a = PRESENTATIONS[name]()
    rng = random.Random(sum(map(ord, name)))
    for degree in range(a.rank + 1):
        for density in (1, 2, 4):
            for _ in range(3):
                form = random_form(rng, a.variables, a.rank, degree,
                                   max_poly_degree=2, density=density)
                image = a.d(form)
                assert image == koszul_reference(a, form)
                assert list(image.coeffs) == sorted(image.coeffs)


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_d_acts_on_each_fiber_component_and_matrix_entry(name):
    a = PRESENTATIONS[name]()
    rng = random.Random(sum(map(ord, name)) + 5)
    bundle = GradedBundle([(0, 2), (1, 1)])
    for degree in range(a.rank + 1):
        form = random_form(rng, a.variables, a.rank, degree, fiber_dim=3,
                           max_poly_degree=2, density=4)
        image = a.d(form)
        assert image.fiber_dim == 3 and image.degree == degree + 1
        assert list(image.coeffs) == sorted(image.coeffs)
        for alpha in range(3):
            component = Form(a.variables, a.rank, degree, 1,
                             {(mi, 0): p for (mi, b), p in form.coeffs.items()
                              if b == alpha})
            expected = koszul_reference(a, component)
            assert {mi: p for (mi, b), p in image.coeffs.items() if b == alpha} \
                == {mi: p for (mi, _), p in expected.coeffs.items()}
    for total_degree in range(-1, a.rank + 1):
        K = random_total_form(rng, a.variables, a.rank, bundle, total_degree,
                              max_poly_degree=2)
        dK = a.d_total(K)
        assert dK.total_degree == total_degree + 1
        for (i, l, j), entries in K.blocks.items():
            for b in range(bundle.rank(j)):
                for c in range(bundle.rank(l)):
                    entry = Form(a.variables, a.rank, i, 1,
                                 {(mi, 0): mat[b][c] for mi, mat in entries.items()})
                    expected = koszul_reference(a, entry)
                    got = {mi: mat[b][c]
                           for mi, mat in dK.block(i + 1, l, j).items()
                           if not mat[b][c].is_zero()}
                    assert got == {mi: p for (mi, _), p in expected.coeffs.items()}
        assert set(dK.blocks) <= {(i + 1, l, j) for (i, l, j) in K.blocks}


def packed_key(key):
    """A (multi-index, exponent tuple) key as a stored form keys its terms:
    (bitmask, packed monomial)."""
    mi, expo = key
    return _mask(mi), _pack(expo)


def tuple_key(algebroid, key):
    """The inverse of `packed_key` over the algebroid's chart."""
    mask, mono = key
    return _indices(mask), _unpack(mono, len(algebroid.variables))


def tuple_column(algebroid, key):
    """`Algebroid._d_column` with (multi-index, exponent tuple) keys in and out."""
    return {tuple_key(algebroid, out): n
            for out, n in algebroid._d_column(packed_key(key)).items()}


def test_d_column_on_aff1_action_line():
    # rho(e0) = d/dx, rho(e1) = x d/dx, [e0, e1] = e0, so d e^0 = -e^0^e^1
    a = catalog.aff1_action_line()
    assert a._d_den == 1
    assert tuple_column(a, ((1,), (0,))) == {}
    assert tuple_column(a, ((1,), (1,))) == {((0, 1), (0,)): 1}
    # d(x e^0) = x e^1 ^ e^0 + x d e^0 = -2x e^0 ^ e^1
    assert tuple_column(a, ((0,), (1,))) == {((0, 1), (1,)): -2}
    # d(x^2 e^1) = 2x e^0 ^ e^1 cancels it in d of the sum, and the zero is dropped
    assert tuple_column(a, ((1,), (2,))) == {((0, 1), (1,)): 2}
    # the keys are a stored form's: bitmask 0b10 is e^1, 0b11 is e^0 ^ e^1, and
    # on one variable the packed x^a is a
    assert a._d_column((0b10, 2)) == {(0b11, 1): 2}
    x = Poly.variable(("x",), 0)
    image = a.d(Form(("x",), 2, 1, 1, {((0,), 0): x, ((1,), 0): x * x}))
    assert image.is_zero() and image._kernel == (1, {})
    assert a.d(Form.zero(("x",), 2, 1)).is_zero()


def test_d_on_a_form_reads_the_packed_table(monkeypatch):
    a = fractional_chart_presentation()
    calls = []
    for name in ("_d_into", "_d_column"):
        original = getattr(Algebroid, name)

        def spy(self, *args, _original=original, _name=name):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(Algebroid, name, spy)
    rng = random.Random(19)
    for degree in range(a.rank):
        form = random_form(rng, a.variables, a.rank, degree, fiber_dim=2,
                           max_poly_degree=2, density=3)
        image = a.d(form)
        assert calls == ["_d_into"]
        calls.clear()
        assert isinstance(image, Form) and image.fiber_dim == 2
        for alpha in range(2):
            component = Form(a.variables, a.rank, degree, 1,
                             {(mi, 0): p for (mi, b), p in form.coeffs.items() if b == alpha})
            assert {mi: p for (mi, b), p in image.coeffs.items() if b == alpha} \
                == {mi: p for (mi, _), p in koszul_reference(a, component).coeffs.items()}


@pytest.mark.parametrize("name", ["fractional_point", "fractional_chart"])
def test_fractional_presentations_are_lie_algebroids(name):
    a = PRESENTATIONS[name]()
    assert a.check_axioms().failures == ()
    assert a.d_squared_check() == (True, ())
    coefficients = itertools.chain(*a.anchor, *itertools.chain(*a.structure))
    denominators = {q.denominator for p in coefficients for q in p.terms.values()}
    assert {2, 3, 5, 7} <= denominators


@pytest.mark.parametrize("name", ["fractional_point", "fractional_chart"])
def test_d_is_served_from_the_table_on_a_second_call(name, monkeypatch):
    a = PRESENTATIONS[name]()
    rng = random.Random(sum(map(ord, name)) + 11)
    forms = [random_form(rng, a.variables, a.rank, degree, max_poly_degree=2, density=4)
             for degree in range(a.rank + 1)]
    first = [a.d(form) for form in forms]
    assert first == [koszul_reference(a, form) for form in forms]
    built = []
    original = Algebroid._d_terms

    def spy(self, mask):
        built.append(mask)
        return original(self, mask)

    monkeypatch.setattr(Algebroid, "_d_terms", spy)
    assert [a.d(form) for form in forms] == first
    assert built == []
    # a fresh instance with the same data builds its own table, to the same d
    fresh = PRESENTATIONS[name]()
    assert [fresh.d(form) for form in forms] == first
    assert sorted(built) == sorted({_mask(mi) for form in forms for mi, _ in form.coeffs})


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_d_column_matches_the_koszul_formula_on_every_monomial(name):
    """`_d_column` of every monomial form x^a e^J with |a| <= 2, against the
    Koszul formula times `_d_den`: the columns of the exactness and
    cohomology systems pinned to an oracle that shares no code with the d_A
    table, which `_d_into` reads too."""
    a = PRESENTATIONS[name]()
    exponents = [expo for expo in itertools.product(range(3), repeat=len(a.variables))
                 if sum(expo) <= 2]
    for degree in range(a.rank + 1):
        for mi in itertools.combinations(range(a.rank), degree):
            for expo in exponents:
                monomial = Form(a.variables, a.rank, degree, 1,
                                {(mi, 0): Poly(a.variables, {expo: Fraction(1)})})
                expected = {(out, e): val * a._d_den
                            for (out, _), poly in koszul_reference(a, monomial).coeffs.items()
                            for e, val in exponent_terms(poly).items()}
                assert tuple_column(a, (mi, expo)) == expected, (mi, expo)
