"""Exact polynomial arithmetic: ring axioms, parsing, differentiation."""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradweil.ring import FIELD, ParseError, Poly
from oracles import exponent_terms

VARS = ("x", "y")


def poly_strategy(variables=VARS, max_terms=5, max_exp=3):
    coeff = st.fractions(
        min_value=-10, max_value=10, max_denominator=6
    )
    exps = st.tuples(*[st.integers(0, max_exp)] * len(variables))
    term = st.tuples(exps, coeff)
    return st.lists(term, max_size=max_terms).map(
        lambda ts: sum(
            (
                Poly(variables, {e: c})
                for e, c in ts
            ),
            Poly.zero(variables),
        )
    )


polys = poly_strategy()


def test_constructors():
    z = Poly.zero(VARS)
    assert z.is_zero() and z.is_constant() and z == 0
    one = Poly.one(VARS)
    assert one.is_constant() and one == 1
    c = Poly.constant(VARS, Fraction(-7, 3))
    assert c == Fraction(-7, 3) and exponent_terms(c) == {(0, 0): Fraction(-7, 3)}
    x = Poly.variable(VARS, 0)
    assert not x.is_constant()
    assert str(x) == "x"


def test_arithmetic_small():
    x = Poly.variable(VARS, 0)
    y = Poly.variable(VARS, 1)
    p = x * x - y * Fraction(1, 2)
    assert str(p) == "x^2 - 1/2*y"
    assert p - p == Poly.zero(VARS)
    assert (p + p) == p * 2
    assert (x + y) * (x - y) == x * x - y * y


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    zero = Poly.zero(VARS)
    one = Poly.one(VARS)
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == p
    assert p * one == p
    assert p + (-p) == zero


@given(polys)
@settings(max_examples=60, deadline=None)
def test_parse_roundtrip(p):
    assert Poly.parse(str(p), VARS) == p


@given(polys, polys)
@settings(max_examples=40, deadline=None)
def test_partial_leibniz(p, q):
    for i in range(len(VARS)):
        assert (p * q).partial(i) == p.partial(i) * q + p * q.partial(i)


def test_partial_values():
    p = Poly.parse("3*x^2*y - 1/2*y + 4", VARS)
    assert str(p.partial(0)) == "6*x*y"
    assert str(p.partial(1)) == "3*x^2 - 1/2"
    assert p.partial(0).partial(1) == p.partial(1).partial(0)


@pytest.mark.parametrize(
    "text", ["", "x +", "x^-2", "2x", "x*", "z", "x**2", "1/0", "x*3/0",
             "3 4", "1 2/3", "\u0661"]
)
def test_parse_failures(text):
    with pytest.raises(ParseError):
        Poly.parse(text, VARS)


def test_parse_fraction_coefficients():
    p = Poly.parse("-5/3*x + 1/6", VARS)
    assert exponent_terms(p) == {(1, 0): Fraction(-5, 3), (0, 0): Fraction(1, 6)}


def test_leading_zeros_do_not_count_toward_a_limit():
    # neither the exponent limit nor the interpreter's limit on integer digits
    zeros = "0" * 5000
    assert Poly.parse(f"{zeros}3/{zeros}2*x^{zeros}4294967295", VARS) == Poly(
        VARS, {(4294967295, 0): Fraction(3, 2)})


def test_variable_mismatch():
    p = Poly.variable(("x",), 0)
    q = Poly.variable(("t",), 0)
    with pytest.raises(Exception):
        p + q


# --- cancellation: no zero coefficient is ever stored ------------------------

POINT = ()
point_polys = poly_strategy(variables=POINT)


def assert_clean(p):
    assert all(c != 0 for c in p.terms.values())
    assert all(0 <= m < 1 << FIELD * len(p.variables) for m in p.terms)


def test_sum_cancels_to_zero_on_both_bases():
    for variables in (POINT, VARS):
        p = Poly.constant(variables, Fraction(5, 6))
        q = Poly.constant(variables, Fraction(-5, 6))
        assert (p + q).terms == {}
        assert (p - p).terms == {}
        assert (p + Fraction(-5, 6)).terms == {}
    x = Poly.variable(VARS, 0)
    s = (x + Fraction(1, 3)) + (x * -2 + Fraction(-1, 3))
    assert exponent_terms(s) == {(1, 0): Fraction(-1)}


def test_product_cancels_to_zero_on_both_bases():
    for variables in (POINT, VARS):
        c = Poly.constant(variables, Fraction(-7, 4))
        zero = Poly.zero(variables)
        assert (c * zero).terms == {} and (zero * c).terms == {}
        assert (c * 0).terms == {}
        assert exponent_terms(c * Fraction(-4, 7)) == {(0,) * len(variables): Fraction(1)}
    x, y = Poly.variable(VARS, 0), Poly.variable(VARS, 1)
    # the x*y terms cancel inside one product
    p = (x + y * Fraction(1, 2)) * (x - y * Fraction(1, 2))
    assert exponent_terms(p) == {(2, 0): Fraction(1), (0, 2): Fraction(-1, 4)}


@given(point_polys, point_polys)
@settings(max_examples=60, deadline=None)
def test_point_base_arithmetic_is_rational_arithmetic(p, q):
    a, b = exponent_terms(p).get((), 0), exponent_terms(q).get((), 0)
    for result, value in ((p + q, a + b), (p - q, a - b), (p * q, a * b)):
        assert_clean(result)
        assert result == value
        assert exponent_terms(result) == ({(): value} if value else {})


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_arithmetic_stores_no_zero_coefficient(p, q):
    for result in (p + q, p - q, p * q, p * (-q), (p + q) * (p - q)):
        assert_clean(result)


# --- the packed Poly against sympy's sparse polynomials ----------------------

# small exponents and ones near 2^31, whose sums in a product reach past 2^32
# within a field, so that a carry into the next field or a wrong unpack shows
WIDE = ("x", "y", "z", "u", "v")
WIDE_EXPONENTS = (0, 1, 2, 65537, (1 << 31) - 3)


@st.composite
def wide_poly_pairs(draw):
    """Variables (1 to 5 of WIDE) and two {exponent tuple: coefficient} dicts."""
    variables = WIDE[:draw(st.integers(1, 5))]
    term = st.tuples(st.tuples(*[st.sampled_from(WIDE_EXPONENTS)] * len(variables)),
                     st.fractions(min_value=-10, max_value=10, max_denominator=6))
    return (variables, *(dict(draw(st.lists(term, max_size=4))) for _ in range(2)))


@given(wide_poly_pairs())
@example((WIDE[:2], {(1, 2): 1, (2, 1): -1, (65537, 0): 3}, {(0, 65537): Fraction(1, 2)}))
@settings(max_examples=150, deadline=None)
def test_packed_polys_agree_with_sympy(case):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.rings import ring

    variables, a, b = case
    R, *gens = ring(",".join(variables), sympy.QQ)

    def reference(terms):
        return R.from_dict({e: sympy.QQ(c.numerator, c.denominator) for e, c in terms.items()})

    def agrees(p, ref):
        return exponent_terms(p) == {e: Fraction(int(c.numerator), int(c.denominator))
                                     for e, c in dict(ref).items()}

    def read(text):
        symbols = {name: sympy.Symbol(name) for name in variables}
        return R.from_expr(sympy.sympify(text.replace("^", "**"), locals=symbols))

    p, q = Poly(variables, a), Poly(variables, b)
    rp, rq = reference(a), reference(b)
    assert agrees(p, rp) and agrees(q, rq)
    assert agrees(p + q, rp + rq) and agrees(p - q, rp - rq) and agrees(p * q, rp * rq)
    # three factors: a field can pass 2^32, and must not carry into the next
    assert agrees(p * q * p, rp * rq * rp)
    for index, gen in enumerate(gens):
        assert agrees(p.partial(index), rp.diff(gen))
    assert (p == q) == (rp == rq) and (p * q == q * p)
    for poly, ref in ((p, rp), (p * q, rp * rq)):
        text = str(poly)
        assert read(text) == ref and Poly.parse(text, variables) == poly
        # terms print by total degree, then exponents, descending
        monomials = [next(iter(dict(read(term)))) for term in re.split(r" [+-] ", text)
                     if not poly.is_zero()]
        assert monomials == sorted(monomials, key=lambda e: (sum(e), e), reverse=True)
