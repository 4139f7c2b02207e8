"""Exact sparse multivariate polynomials over the rationals.

Coefficients are `fractions.Fraction` (exported here as `Rational`); a
polynomial is a dict from exponent tuples to nonzero coefficients.  All
arithmetic is exact, and printing/parsing round-trips through a small
canonical grammar: terms joined by `+`/`-`, each term

    coeff * var1^e1 * var2^e2 * ...

with an integer or `p/q` coefficient, unit exponents omitted, and a bare
coefficient for constant terms.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add

from .errors import MismatchError, ParseError

Rational = Fraction

_COEFF_RE = re.compile(r"([0-9]+)(?:/([0-9]+))?")
VARIABLE_NAME = re.compile(r"[A-Za-z_]\w*", re.ASCII)   # what a Chart accepts
_VAR_RE = re.compile(rf"({VARIABLE_NAME.pattern})(?:\^([0-9]+))?")
_SPLIT_WORD_RE = re.compile(r"\w[ \t]+\w")
_TERM_SPLIT_RE = re.compile(r"[+-]?[^+-]+")


class Poly:
    """A polynomial in a fixed ordered list of chart variables.

    `variables` is shared by every polynomial on a chart; an empty tuple is
    the point base, where a Poly is just a rational constant.  `terms` maps
    exponent tuples (one entry per variable) to nonzero Fractions.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        clean = {}
        if terms:
            nvars = len(self.variables)
            for expo, coeff in terms.items():
                expo = tuple(int(e) for e in expo)
                if len(expo) != nvars or any(e < 0 for e in expo):
                    raise MismatchError(
                        f"exponent tuple {expo} does not fit {nvars} variables")
                coeff = Fraction(coeff)
                if coeff:
                    acc = clean.get(expo)
                    coeff = coeff if acc is None else acc + coeff
                    if coeff:
                        clean[expo] = coeff
                    elif expo in clean:
                        del clean[expo]
        self.terms = clean

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def _unchecked(cls, variables, terms):
        """A Poly on terms that are already clean: fitting exponents, nonzero
        Fraction coefficients, and `variables` already a tuple.  No checks."""
        out = cls.__new__(cls)
        out.variables = variables
        out.terms = terms
        return out

    @classmethod
    def zero(cls, variables):
        return cls(variables)

    @classmethod
    def constant(cls, variables, value):
        value = Fraction(value)
        variables = tuple(variables)
        if not value:
            return cls(variables)
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def one(cls, variables):
        return cls.constant(variables, 1)

    @classmethod
    def variable(cls, variables, index):
        variables = tuple(variables)
        expo = [0] * len(variables)
        expo[index] = 1
        return cls(variables, {tuple(expo): Fraction(1)})

    @classmethod
    def parse(cls, text, variables):
        """Parse the canonical grammar; raises ParseError on bad input."""
        variables = tuple(variables)
        if _SPLIT_WORD_RE.search(text):
            raise ParseError(f"whitespace inside a number or name in {text!r}")
        compact = text.replace(" ", "").replace("\t", "")
        if not compact:
            raise ParseError("empty polynomial string")
        chunks = _TERM_SPLIT_RE.findall(compact)
        if "".join(chunks) != compact:
            raise ParseError(f"cannot tokenize polynomial {text!r}")
        terms: dict[tuple[int, ...], Fraction] = {}
        for chunk in chunks:
            sign = Fraction(1)
            body = chunk
            if body[0] in "+-":
                if body[0] == "-":
                    sign = Fraction(-1)
                body = body[1:]
            if not body:
                raise ParseError(f"dangling sign in {text!r}")
            coeff = sign
            expo = [0] * len(variables)
            for factor in body.split("*"):
                m = _COEFF_RE.fullmatch(factor)
                if m:
                    num, den = int(m.group(1)), int(m.group(2) or 1)
                    if not den:
                        raise ParseError(f"zero denominator in {text!r}")
                    coeff *= Fraction(num, den)
                    continue
                m = _VAR_RE.fullmatch(factor)
                if m:
                    name, power = m.group(1), m.group(2)
                    try:
                        idx = variables.index(name)
                    except ValueError:
                        raise ParseError(
                            f"unknown variable {name!r} in {text!r}; "
                            f"chart has {list(variables)}") from None
                    expo[idx] += int(power) if power else 1
                    continue
                raise ParseError(f"bad factor {factor!r} in {text!r}")
            key = tuple(expo)
            acc = terms.get(key, Fraction(0)) + coeff
            if acc:
                terms[key] = acc
            elif key in terms:
                del terms[key]
        return cls(variables, terms)

    # ------------------------------------------------------------------
    # predicates

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise MismatchError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self):
        """Max total degree of any term; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.variables != self.variables:
                raise MismatchError(
                    f"variable lists differ: {self.variables} vs {other.variables}")
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(self.variables, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            acc = terms.get(expo)
            if acc is None:
                terms[expo] = coeff
                continue
            acc += coeff
            if acc:
                terms[expo] = acc
            else:
                del terms[expo]
        return Poly._unchecked(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._unchecked(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(map(add, e1, e2))
                acc = terms.get(expo)
                if acc is None:
                    terms[expo] = c1 * c2
                    continue
                acc += c1 * c2
                if acc:
                    terms[expo] = acc
                else:
                    del terms[expo]
        return Poly._unchecked(self.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise MismatchError("polynomial powers must be nonnegative integers")
        result = Poly.one(self.variables)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def partial(self, index):
        """Partial derivative with respect to variables[index]."""
        if not 0 <= index < len(self.variables):
            raise MismatchError(f"no variable with index {index}")
        terms = {}
        for expo, coeff in self.terms.items():
            e = expo[index]
            if e:
                lowered = list(expo)
                lowered[index] = e - 1
                terms[tuple(lowered)] = coeff * e
        return Poly(self.variables, terms)

    # ------------------------------------------------------------------
    # comparison / printing

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.variables, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def sorted_terms(self):
        """Terms in canonical order: total degree, then exponents, descending."""
        return sorted(self.terms.items(),
                      key=lambda item: (sum(item[0]), item[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for expo, coeff in self.sorted_terms():
            factors = []
            num = abs(coeff)
            monomial = [
                (f"{name}^{e}" if e > 1 else name)
                for name, e in zip(self.variables, expo) if e
            ]
            if num != 1 or not monomial:
                factors.append(str(num))
            factors.extend(monomial)
            body = "*".join(factors)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"{'+' if coeff > 0 else '-'} {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"Poly({list(self.variables)!r}, {str(self)!r})"
