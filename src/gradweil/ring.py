"""Exact sparse multivariate polynomials over the rationals.

Coefficients are `fractions.Fraction` (exported here as `Rational`); a
polynomial is a dict from packed monomials to nonzero coefficients, keyed
as everything behind `Poly` (stored forms, the kernel, the d_A table) keys
them.  A packed monomial is one integer with a FIELD-bit field per
exponent, the first variable in the highest field (0 on the point base),
so integer order is exponent-tuple order and a product of monomials is one
integer addition.  Only this module packs and unpacks exponent tuples
(`_pack`, `_unpack`) and checks exponents: every exponent enters through
`Poly`'s constructor or `parse` below EXPONENT_LIMIT (2^32), and every
later monomial is a sum of fewer than 2^32 of them, so no field carries
into the next.

All arithmetic is exact, and printing/parsing round-trips through a small
canonical grammar: terms joined by `+`/`-`, each term

    coeff * var1^e1 * var2^e2 * ...

with an integer or `p/q` coefficient, unit exponents omitted, and a bare
coefficient for constant terms.  A decimal literal longer than the
interpreter's limit on integer digits is refused with ParseError, leading
zeros not counted; an exponent of more than ten digits is at or above 2^32.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import cache

from .errors import MismatchError, ParseError

Rational = Fraction

FIELD = 64                    # bits per variable in a packed monomial
# exponents entering a Poly stay below this, so a sum of up to 2^32 of them,
# as chains of products and d_A build, never carries into the next field
EXPONENT_LIMIT = 1 << 32
_FIELD_MASK = (1 << FIELD) - 1
_LIMIT_DIGITS = len(str(EXPONENT_LIMIT))   # a longer exponent is at or above it

_COEFF_RE = re.compile(r"([0-9]+)(?:/([0-9]+))?")
VARIABLE_NAME = re.compile(r"[A-Za-z_]\w*", re.ASCII)   # what a Chart accepts
_VAR_RE = re.compile(rf"({VARIABLE_NAME.pattern})(?:\^([0-9]+))?")
_SPLIT_WORD_RE = re.compile(r"\w[ \t]+\w")
_TERM_SPLIT_RE = re.compile(r"[+-]?[^+-]+")


def _pack(expo):
    """The packed monomial of an exponent tuple, the first variable in the
    highest field; a signed shift packs the same way, and pack(a) +
    pack(shift) == pack(a + shift) wherever a + shift >= 0."""
    out = 0
    for e in expo:
        out = (out << FIELD) + e
    return out


def _unpack(mono, nvars):
    """The exponent tuple of a packed monomial in `nvars` variables."""
    return tuple((mono >> s) & _FIELD_MASK for s in range(FIELD * (nvars - 1), -1, -FIELD))


def _total_degree(mono):
    """The total degree of a packed monomial: the sum of its fields."""
    degree = 0
    while mono:
        degree += mono & _FIELD_MASK
        mono >>= FIELD
    return degree


@cache   # one entry per chart's variable tuple
def _layout(variables):
    """({name: bit offset of its field}, the bits of each field from 2^32 up)."""
    top = FIELD * (len(variables) - 1)
    return ({name: top - FIELD * i for i, name in enumerate(variables)},
            _pack((_FIELD_MASK ^ (EXPONENT_LIMIT - 1),) * len(variables)))


def _shown(text, keep=30):
    """`text` for an error line, its middle left out past 2 * keep characters."""
    return text if len(text) <= 2 * keep else f"{text[:keep]}...{text[-keep:]}"


def _too_large(exponent, where):
    return (f"exponent {_shown(str(exponent))} in {_shown(where)} is at or above the "
            "limit 2^32 of a packed monomial")


def _integer(digits, text):
    """A decimal literal of `text`, leading zeros dropped; ParseError past the
    interpreter's limit on integer digits."""
    digits = digits.lstrip("0") or "0"
    try:
        return int(digits)
    except ValueError:   # the interpreter's limit on integer digits
        raise ParseError(f"a number of {len(digits)} digits in {_shown(repr(text))} is "
                         f"longer than the {sys.get_int_max_str_digits()} digits this "
                         "interpreter converts") from None


class Poly:
    """A polynomial in a fixed ordered list of chart variables.

    `variables` is shared by every polynomial on a chart; an empty tuple is
    the point base, where a Poly is just a rational constant.  `terms` maps
    packed monomials to nonzero Fractions.  A Poly is a value: nothing
    writes into its `terms` after construction, so one Poly may sit in many
    places at once.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        """A Poly from {exponent tuple: coefficient}, one exponent per
        variable, each an integer from 0 below EXPONENT_LIMIT."""
        self.variables, clean = tuple(variables), {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != len(self.variables) or any(e < 0 for e in expo):
                raise MismatchError(
                    f"exponent tuple {expo} does not fit {len(self.variables)} variables")
            if max(expo, default=0) >= EXPONENT_LIMIT:
                raise MismatchError(_too_large(max(expo), f"the term of {expo}"))
            mono, coeff = _pack(expo), Fraction(coeff)
            clean[mono] = clean[mono] + coeff if mono in clean else coeff
        self.terms = {mono: coeff for mono, coeff in clean.items() if coeff}

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def _unchecked(cls, variables, terms):
        """A Poly on terms that are already clean: packed monomials of
        fields below 2^FIELD, nonzero Fraction coefficients, and `variables`
        already a tuple.  No checks."""
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
        return cls._unchecked(tuple(variables), {0: value} if value else {})

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
        """Parse the canonical grammar; raises ParseError on bad input,
        including an exponent at or above EXPONENT_LIMIT."""
        variables = tuple(variables)
        if _SPLIT_WORD_RE.search(text):
            raise ParseError(f"whitespace inside a number or name in {text!r}")
        compact = text.replace(" ", "").replace("\t", "")
        if not compact:
            raise ParseError("empty polynomial string")
        chunks = _TERM_SPLIT_RE.findall(compact)
        if "".join(chunks) != compact:
            raise ParseError(f"cannot tokenize polynomial {text!r}")
        offsets, high = _layout(variables)
        terms: dict[int, Fraction] = {}
        for chunk in chunks:
            coeff, mono = Fraction(-1 if chunk[0] == "-" else 1), 0
            body = chunk[1:] if chunk[0] in "+-" else chunk
            if not body:
                raise ParseError(f"dangling sign in {text!r}")
            for factor in body.split("*"):
                m = _COEFF_RE.fullmatch(factor)
                if m:
                    num, den = _integer(m.group(1), text), _integer(m.group(2) or "1", text)
                    if not den:
                        raise ParseError(f"zero denominator in {text!r}")
                    coeff *= Fraction(num, den)
                    continue
                m = _VAR_RE.fullmatch(factor)
                if m:
                    name, power = m.group(1), m.group(2)
                    offset = offsets.get(name)
                    if offset is None:
                        raise ParseError(
                            f"unknown variable {name!r} in {text!r}; "
                            f"chart has {list(variables)}")
                    if power:
                        power = power.lstrip("0") or "0"
                        if len(power) > _LIMIT_DIGITS:
                            raise ParseError(_too_large(power, repr(text)))
                        mono += int(power) << offset
                    else:
                        mono += 1 << offset
                    continue
                raise ParseError(f"bad factor {factor!r} in {text!r}")
            # each exponent is below 10^10 < 2^34, so no field of the sum
            # overflows short of 2^30 factors, and one from 2^32 up sets `high`
            if mono & high:
                raise ParseError(_too_large(max(_unpack(mono, len(variables))), repr(text)))
            acc = terms.get(mono, 0) + coeff
            if acc:
                terms[mono] = acc
            elif mono in terms:
                del terms[mono]
        return cls._unchecked(variables, terms)

    # ------------------------------------------------------------------
    # predicates

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not any(self.terms)

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
        for mono, coeff in other.terms.items():
            acc = terms.get(mono)
            if acc is None:
                terms[mono] = coeff
            elif acc := acc + coeff:
                terms[mono] = acc
            else:
                del terms[mono]
        return Poly._unchecked(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._unchecked(self.variables, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms: dict[int, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = m1 + m2
                acc = terms.get(mono)
                if acc is None:
                    terms[mono] = c1 * c2
                elif acc := acc + c1 * c2:
                    terms[mono] = acc
                else:
                    del terms[mono]
        return Poly._unchecked(self.variables, terms)

    __rmul__ = __mul__

    def partial(self, index):
        """Partial derivative with respect to variables[index]."""
        if not 0 <= index < len(self.variables):
            raise MismatchError(f"no variable with index {index}")
        offset = FIELD * (len(self.variables) - 1 - index)
        unit, terms = 1 << offset, {}
        for mono, coeff in self.terms.items():
            e = (mono >> offset) & _FIELD_MASK
            if e:
                terms[mono - unit] = coeff * e
        return Poly._unchecked(self.variables, terms)

    # ------------------------------------------------------------------
    # comparison / printing

    def __eq__(self, other):
        if not isinstance(other, Poly):   # Poly first: isinstance on Fraction is an ABC check
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Poly.constant(self.variables, other)
        return self.variables == other.variables and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        nvars, pieces = len(self.variables), []
        # terms by total degree, then exponents (the packed order), descending
        for expo, coeff in sorted(((_unpack(m, nvars), c) for m, c in self.terms.items()),
                                  key=lambda item: (sum(item[0]), item[0]), reverse=True):
            factors = []
            num = abs(coeff)
            monomial = [
                (f"{name}^{e}" if e > 1 else name)
                for name, e in zip(self.variables, expo) if e
            ]
            if num != 1 or not monomial:
                try:
                    factors.append(str(num))
                except ValueError:   # the interpreter's limit on integer digits
                    raise MismatchError(
                        f"a coefficient has more than the {sys.get_int_max_str_digits()} "
                        "digits this interpreter converts to a string "
                        "(sys.get_int_max_str_digits())") from None
            factors.extend(monomial)
            body = "*".join(factors)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"{'+' if coeff > 0 else '-'} {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"Poly({list(self.variables)!r}, {str(self)!r})"
