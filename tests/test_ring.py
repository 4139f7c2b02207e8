"""Exact polynomial arithmetic: ring axioms, parsing, differentiation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradweil.ring import ParseError, Poly

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
    assert z.is_zero() and z.is_constant() and z.constant_value() == 0
    one = Poly.one(VARS)
    assert one.is_constant() and one.constant_value() == 1
    c = Poly.constant(VARS, Fraction(-7, 3))
    assert c.constant_value() == Fraction(-7, 3)
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


def test_total_degree():
    assert Poly.zero(VARS).total_degree() == 0
    assert Poly.parse("x^2*y + y", VARS).total_degree() == 3


@pytest.mark.parametrize(
    "text", ["", "x +", "x^-2", "2x", "x*", "z", "x**2", "1/0", "x*3/0"]
)
def test_parse_failures(text):
    with pytest.raises(ParseError):
        Poly.parse(text, VARS)


def test_parse_fraction_coefficients():
    p = Poly.parse("-5/3*x + 1/6", VARS)
    assert p.terms[(1, 0)] == Fraction(-5, 3)
    assert p.terms[(0, 0)] == Fraction(1, 6)


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
    assert all(len(e) == len(p.variables) for e in p.terms)


def test_sum_cancels_to_zero_on_both_bases():
    for variables in (POINT, VARS):
        p = Poly.constant(variables, Fraction(5, 6))
        q = Poly.constant(variables, Fraction(-5, 6))
        assert (p + q).terms == {}
        assert (p - p).terms == {}
        assert (p + Fraction(-5, 6)).terms == {}
    x = Poly.variable(VARS, 0)
    s = (x + Fraction(1, 3)) + (Fraction(-1, 3) - x * 2)
    assert s.terms == {(1, 0): Fraction(-1)}


def test_product_cancels_to_zero_on_both_bases():
    for variables in (POINT, VARS):
        c = Poly.constant(variables, Fraction(-7, 4))
        zero = Poly.zero(variables)
        assert (c * zero).terms == {} and (zero * c).terms == {}
        assert (c * 0).terms == {}
        assert (c * Fraction(-4, 7)).terms == {(0,) * len(variables): Fraction(1)}
    x, y = Poly.variable(VARS, 0), Poly.variable(VARS, 1)
    # the x*y terms cancel inside one product
    p = (x + y * Fraction(1, 2)) * (x - y * Fraction(1, 2))
    assert p.terms == {(2, 0): Fraction(1), (0, 2): Fraction(-1, 4)}


@given(point_polys, point_polys)
@settings(max_examples=60, deadline=None)
def test_point_base_arithmetic_is_rational_arithmetic(p, q):
    a, b = p.constant_value(), q.constant_value()
    for result, value in ((p + q, a + b), (p - q, a - b), (p * q, a * b)):
        assert_clean(result)
        assert result.constant_value() == value
        assert result.terms == ({(): value} if value else {})


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_arithmetic_stores_no_zero_coefficient(p, q):
    for result in (p + q, p - q, p * q, p * (-q), (p + q) * (p - q)):
        assert_clean(result)
