"""Exact polynomial arithmetic: ring axioms, parsing, differentiation."""

import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradweil.errors import MismatchError
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


# --- a bare literal: one match, the grammar's values and errors ---------------

DIGITS = st.integers(1, 60).flatmap(
    lambda n: st.text("0123456789", min_size=n, max_size=n))


@given(sign=st.sampled_from(["", "-"]), num=DIGITS, den=st.none() | DIGITS,
       variables=st.sampled_from([POINT, ("x", "y", "z")]))
@example(sign="-", num="0", den=None, variables=POINT)
@example(sign="", num="007", den="0012", variables=("x", "y", "z"))
@example(sign="-", num="000", den="5", variables=POINT)
@example(sign="-", num="3", den="000", variables=POINT)
@settings(max_examples=150, deadline=None)
def test_a_bare_literal_parses_to_its_constant(sign, num, den, variables):
    text = sign + num + ("" if den is None else f"/{den}")
    if den is not None and not int(den):
        with pytest.raises(ParseError) as err:
            Poly.parse(text, variables)
        assert str(err.value) == f"zero denominator in {text!r}"
        return
    value = Fraction(-int(num) if sign else int(num), int(den or 1))
    parsed = Poly.parse(text, variables)
    assert_clean(parsed)
    assert parsed.variables == variables
    assert parsed == Poly.constant(variables, value)
    assert all(type(c) is Fraction for c in parsed.terms.values())
    # the grammar reads the same terms
    assert parsed.terms == Poly._parse_terms(text, variables).terms


@pytest.mark.parametrize("variables", [POINT, ("x", "y", "z")])
def test_a_bare_literal_keeps_the_grammars_error_messages(variables):
    with pytest.raises(ParseError, match=re.escape("zero denominator in '1/0'")):
        Poly.parse("1/0", variables)
    digits = "7" * 5000
    for text in (digits, f"-{digits}", f"1/{digits}"):
        shown = repr(text)
        message = (f"a number of 5000 digits in {shown[:30]}...{shown[-30:]} is longer than "
                   f"the {sys.get_int_max_str_digits()} digits this interpreter converts")
        for parse in (Poly.parse, Poly._parse_terms):
            with pytest.raises(ParseError) as err:
                parse(text, variables)
            assert str(err.value) == message


def _loop_sum(p, q):
    """The terms of p + q by the full merge, with no operand returned."""
    terms = dict(p.terms)
    for mono, coeff in q.terms.items():
        terms[mono] = terms.get(mono, 0) + coeff
    return {mono: coeff for mono, coeff in terms.items() if coeff}


def _loop_product(p, q):
    """The terms of p * q by the full double loop."""
    terms = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            terms[m1 + m2] = terms.get(m1 + m2, 0) + c1 * c2
    return {mono: coeff for mono, coeff in terms.items() if coeff}


@given(polys)
@example(Poly.variable(VARS, 0) * Fraction(-3, 2) + 1)
@settings(max_examples=60, deadline=None)
def test_a_zero_operand_gives_the_full_loops_sum_and_product(p):
    zero = Poly.zero(VARS)
    for left, right in ((p, zero), (zero, p), (zero, zero)):
        for result, terms in ((left + right, _loop_sum(left, right)),
                              (left - right, _loop_sum(left, -right)),
                              (left * right, _loop_product(left, right))):
            assert result.variables == VARS and result.terms == terms
    assert (-zero).terms == {} and (p * 0).terms == {} and (0 * p).terms == {}
    with pytest.raises(MismatchError):
        p + Poly.zero(("t",))
    with pytest.raises(MismatchError):
        Poly.zero(("t",)) * p


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
