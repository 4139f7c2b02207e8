"""Anchored frame presentations of Lie algebroids over polynomial charts.

An algebroid is presented by a chart (ordered variable list; empty list is
a point base), a frame rank r, an anchor matrix (row i = the coefficients
of the vector field rho(e_i) in the coordinate frame), and structure
functions: structure[i][j][k] is the e_k-coefficient of [e_i, e_j].

The axiom checker reports antisymmetry, the anchor/bracket compatibility
rho([e_i,e_j]) = [rho(e_i), rho(e_j)], and the Jacobi identity with its
anchor-derivative terms.  The differential d_A acts on scalar forms term by
term through the derivation rule

    d(c x^a e^J) = sum_{i not in J} rho(e_i)(c x^a) e^i ^ e^J + c x^a d(e^J),
    d e^k        = -sum_{a<b} c_ab^k e^a ^ e^b,

where d(e^J) expands by the Leibniz rule.  This agrees with the Koszul
formula evaluated on frame elements; the tests keep that formula as the
oracle for `Algebroid.d`.  Every anchor and structure coefficient is a
numerator over one common denominator, and an algebroid keeps, per
multi-index J it has differentiated, the terms of d(x^a e^J): target
multi-index, anchor variable (or none), exponent shift and signed
numerator, the ones that cancel dropped.  This table is the only code that
applies the anchor and structure functions to forms, in integers: each
image term is an integer multiply-add.  `d_sparse` reads it for a scalar
form in Fractions, once per fiber component in `d`, and `_d_column` for
one monomial form in integer numerators over `_d_den`: the column images
of the exactness system.  `_d_into` adds a multiple of d_A of every entry
of a stored TotalForm (see `forms`) into the accumulators of a kernel
pass, which is how the last pass of both curvature routes, and the one
pass of a connection's operator, add d_A;
`_d_stored`, behind `d_total`, is that on accumulators of its own.  Both
read the same terms from `_d_packed`, keyed by bitmask: target bitmask,
the bit offset of the anchor variable's field, and the exponent shift
packed, so an anchor's shift lowers one field by 1 and is added only where
that field is positive.  So that the packed shifts
hold, an algebroid refuses at construction an anchor or structure exponent
at or above `forms.EXPONENT_LIMIT` (MismatchError).  The transpose of the
table, `d_sparse_sources`, reads the anchor and coframe terms backwards: it
lists the monomial forms whose image can reach a given term, which is how
the exactness solve grows only the part of its system that a form touches.
The tables fill on first use and live on the instance; a multi-index with
no image stores one shared empty tuple.  `d_vanishes` says there is no
anchor and no structure, so d_A is zero.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import MismatchError
from .forms import (
    _FIELD_MASK,
    FIELD,
    Form,
    TotalForm,
    _canonical,
    _cells,
    _check_exponents,
    _indices,
    _mask,
    _pack,
    _width,
)
from .ring import VARIABLE_NAME, Poly

_add = operator.add
_NO_TERMS = ()   # the d_A table entry of a multi-index with no image


@dataclass(frozen=True)
class Chart:
    """An ordered list of distinct variable names; empty means a point."""

    variables: tuple

    def __init__(self, variables):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise MismatchError(f"repeated chart variables: {variables}")
        for name in variables:   # Poly.parse reads exactly these names back
            if not (isinstance(name, str) and VARIABLE_NAME.fullmatch(name)):
                raise MismatchError(f"chart variable {name!r} is not an ASCII name "
                                    "(a letter or _, then letters, digits or _)")
        object.__setattr__(self, "variables", variables)

    @property
    def dim(self):
        return len(self.variables)

    def poly(self, text):
        return Poly.parse(text, self.variables)

    def zero(self):
        return Poly.zero(self.variables)

    def one(self):
        return Poly.one(self.variables)

    def var(self, index):
        return Poly.variable(self.variables, index)


@dataclass(frozen=True)
class Subframe:
    """A sorted subset of frame indices spanning a subbundle in adapted frames."""

    frame_rank: int
    indices: tuple

    def __init__(self, frame_rank, indices):
        indices = tuple(sorted(set(int(i) for i in indices)))
        if indices and (indices[0] < 0 or indices[-1] >= frame_rank):
            raise MismatchError(f"subframe indices {indices} out of range")
        object.__setattr__(self, "frame_rank", int(frame_rank))
        object.__setattr__(self, "indices", indices)

    @property
    def rank(self):
        return len(self.indices)

    @property
    def codim(self):
        return self.frame_rank - len(self.indices)

    def complement(self):
        inside = set(self.indices)
        return tuple(i for i in range(self.frame_rank) if i not in inside)


@dataclass
class AxiomReport:
    antisymmetry_ok: bool
    anchor_ok: bool
    jacobi_ok: bool
    failures: tuple = field(default_factory=tuple)


class Algebroid:
    """A frame presentation; construction validates shapes, not axioms."""

    __slots__ = ("chart", "rank", "anchor", "structure", "_anchor_terms",
                 "_d_coframe", "_anchored", "_d_den", "_d_table", "_d_packed",
                 "d_vanishes")

    def __init__(self, chart, rank, anchor, structure):
        if not isinstance(chart, Chart):
            chart = Chart(chart)
        self.chart = chart
        self.rank = int(rank)
        if self.rank < 1:
            raise MismatchError("frame rank must be positive")
        variables = chart.variables
        anchor = tuple(tuple(self._as_poly(p, variables) for p in row) for row in anchor)
        if len(anchor) != self.rank or any(len(row) != chart.dim for row in anchor):
            raise MismatchError(
                f"anchor must be {self.rank} x {chart.dim}, got "
                f"{len(anchor)} x {[len(r) for r in anchor]}")
        self.anchor = anchor
        structure = tuple(
            tuple(tuple(self._as_poly(p, variables) for p in vec) for vec in row)
            for row in structure)
        if (len(structure) != self.rank
                or any(len(row) != self.rank for row in structure)
                or any(len(vec) != self.rank for row in structure for vec in row)):
            raise MismatchError("structure functions must form an r x r x r array")
        self.structure = structure
        if chart.dim:   # the exponent shifts of the d_A table are packed (see `forms`)
            _check_exponents(itertools.chain(*anchor, *itertools.chain(*structure)))
        # the data the d_A table is built from, fixed with the presentation:
        # per frame index i the terms (m, shift, a) of rho(e_i) = sum a
        # x^beta d/dx_m, with shift = beta - unit(m); per k the terms
        # ((a, b), beta, -c) of d e^k, one for each term c x^beta of c_ab^k
        # with a < b
        self._anchor_terms = tuple(
            tuple((m, tuple(e - (v == m) for v, e in enumerate(expo)), a)
                  for m, p in enumerate(row) for expo, a in p.terms.items())
            for row in anchor)
        self._d_coframe = tuple(
            tuple(((a, b), expo, -c)
                  for a in range(self.rank) for b in range(a + 1, self.rank)
                  for expo, c in structure[a][b][k].terms.items())
            for k in range(self.rank))
        # the integer d_A table: the frame indices with a nonzero anchor, the
        # common denominator of every coefficient above, and per multi-index
        # the terms `_d_terms` builds on first use
        self._anchored = tuple(i for i, row in enumerate(self._anchor_terms) if row)
        # no anchor and no structure: d_A is zero on every form
        self.d_vanishes = not self._anchored and not any(self._d_coframe)
        self._d_den = lcm(*{q.denominator for row in self._anchor_terms for _, _, q in row},
                          *{q.denominator for row in self._d_coframe for _, _, q in row})
        self._d_table = {}
        self._d_packed = {}

    @staticmethod
    def _as_poly(p, variables):
        if isinstance(p, Poly):
            if p.variables != variables:
                raise MismatchError("polynomial variables differ from the chart")
            return p
        if isinstance(p, str):
            return Poly.parse(p, variables)
        return Poly.constant(variables, p)

    @classmethod
    def from_brackets(cls, chart, rank, anchor, brackets):
        """Build from bracket data {(i, j): coefficient list} for i < j.

        Unlisted pairs are zero; the (j, i) entries are filled by
        antisymmetry, so presentations built this way always pass the
        antisymmetry check.
        """
        if not isinstance(chart, Chart):
            chart = Chart(chart)
        zero = chart.zero()
        structure = [[[zero for _ in range(rank)] for _ in range(rank)]
                     for _ in range(rank)]
        for (i, j), coeffs in brackets.items():
            if i == j:
                raise MismatchError(f"diagonal bracket ({i},{i}) must be omitted")
            if not 0 <= i < rank or not 0 <= j < rank:
                raise MismatchError(f"bracket pair ({i},{j}) out of range")
            vec = [cls._as_poly(c, chart.variables) for c in coeffs]
            if len(vec) != rank:
                raise MismatchError(f"bracket ({i},{j}) needs {rank} coefficients")
            structure[i][j] = [structure[i][j][k] + vec[k] for k in range(rank)]
            structure[j][i] = [structure[j][i][k] - vec[k] for k in range(rank)]
        return cls(chart, rank, anchor, structure)

    # -- basic calculus -----------------------------------------------------

    @property
    def variables(self):
        return self.chart.variables

    def bracket_vector(self, i, j):
        """Coefficients of [e_i, e_j] over the frame."""
        return list(self.structure[i][j])

    def anchor_apply(self, i, poly):
        """The derivation rho(e_i) applied to a chart function."""
        out = Poly.zero(self.variables)
        for m, coeff in enumerate(self.anchor[i]):
            if not coeff.is_zero():
                out = out + coeff * poly.partial(m)
        return out

    def section_anchor_apply(self, section, poly):
        """rho(u) f for a section u given by frame components."""
        out = Poly.zero(self.variables)
        for i, u_i in enumerate(section):
            if not u_i.is_zero():
                out = out + u_i * self.anchor_apply(i, poly)
        return out

    def vector_field_bracket(self, x, y):
        """Coordinate bracket of two vector fields given by component lists."""
        n = self.chart.dim
        out = []
        for m in range(n):
            acc = Poly.zero(self.variables)
            for p in range(n):
                acc = acc + x[p] * y[m].partial(p) - y[p] * x[m].partial(p)
            out.append(acc)
        return out

    def section_bracket(self, u, v):
        """Full Leibniz bracket of sections given by frame component lists."""
        zero = Poly.zero(self.variables)
        out = [zero for _ in range(self.rank)]
        for i, u_i in enumerate(u):
            if u_i.is_zero():
                continue
            for j, v_j in enumerate(v):
                if v_j.is_zero():
                    continue
                coeff = u_i * v_j
                for k, c in enumerate(self.structure[i][j]):
                    if not c.is_zero():
                        out[k] = out[k] + coeff * c
        for k in range(self.rank):
            out[k] = out[k] + self.section_anchor_apply(u, v[k]) \
                            - self.section_anchor_apply(v, u[k])
        return out

    # -- axioms ---------------------------------------------------------------

    def check_axioms(self):
        """Antisymmetry, anchor compatibility, Jacobi; returns an AxiomReport."""
        failures = []
        anti_ok = True
        for i in range(self.rank):
            for j in range(i, self.rank):
                for k in range(self.rank):
                    lhs = self.structure[i][j][k]
                    rhs = -self.structure[j][i][k]
                    if lhs != rhs:
                        anti_ok = False
                        failures.append(f"antisymmetry fails at c[{k}][{i}][{j}]")
        anchor_ok = True
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                lhs = [Poly.zero(self.variables) for _ in range(self.chart.dim)]
                for k, c in enumerate(self.structure[i][j]):
                    if not c.is_zero():
                        for m in range(self.chart.dim):
                            lhs[m] = lhs[m] + c * self.anchor[k][m]
                rhs = self.vector_field_bracket(self.anchor[i], self.anchor[j])
                if lhs != rhs:
                    anchor_ok = False
                    failures.append(f"anchor condition fails on pair ({i},{j})")
        jacobi_ok = True
        basis = [[Poly.constant(self.variables, 1 if a == b else 0)
                  for b in range(self.rank)] for a in range(self.rank)]
        for i, j, k in itertools.combinations(range(self.rank), 3):
            jacobiator = [Poly.zero(self.variables) for _ in range(self.rank)]
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                inner = self.section_bracket(basis[b], basis[c])
                term = self.section_bracket(basis[a], inner)
                jacobiator = [x + y for x, y in zip(jacobiator, term)]
            if any(not p.is_zero() for p in jacobiator):
                jacobi_ok = False
                failures.append(f"jacobi fails on triple ({i},{j},{k})")
        return AxiomReport(anti_ok, anchor_ok, jacobi_ok, tuple(failures))

    # -- differential -----------------------------------------------------------

    def d_sparse(self, terms):
        """d_A on a scalar form given as {(multi-index, exponent): Fraction}.

        Each key is an ascending frame multi-index J and a monomial exponent
        over the chart; the value is the coefficient of x^exponent e^J.  The
        image comes back in the same shape, without zero coefficients.
        """
        D = lcm(*{c.denominator for c in terms.values()})
        acc = {}
        for (mi, expo), c in terms.items():
            self._d_add(acc, mi, expo, c.numerator * (D // c.denominator))
        D *= self._d_den
        return {key: Fraction(val, D) for key, val in acc.items() if val}

    def _d_column(self, key):
        """d_A of one monomial form x^a e^J, key (J, a), as {(multi-index,
        exponent): numerator} over `_d_den` without zeros: the `d_sparse`
        image of {key: 1} times `_d_den`."""
        acc = {}
        self._d_add(acc, *key, 1)
        return {out: n for out, n in acc.items() if n}

    def _d_add(self, acc, mi, expo, n):
        """acc += n times d(x^expo e^mi), numerators over `_d_den` keyed by
        (multi-index, exponent), read from `_d_table`; cancelled terms stay
        in `acc` as zeros."""
        terms = self._d_table.get(mi)
        if terms is None:
            terms = self._d_table[mi] = self._d_terms(mi)
        get = acc.get
        for target, m, shift, num in terms:
            if m is None:
                val = n * num
            else:
                e = expo[m]
                if not e:
                    continue
                val = n * e * num
            key = (target, tuple(map(_add, expo, shift)))
            acc[key] = get(key, 0) + val

    def _d_terms(self, mi):
        """The `_d_table` entry of a multi-index J: the terms (target, m,
        shift, numerator) of d(x^a e^J) over `_d_den`.

        An anchor term, m a variable index, stands for a[m] * numerator *
        x^(a + shift) e^target; a coframe term, m None, for numerator *
        x^(a + shift) e^target.  Terms with one target, m and shift are
        summed, and the ones that cancel are left out.
        """
        den = self._d_den
        acc = {}
        # rho(e_i)(x^a) e^i ^ e^J: moving e^i to its place in J passes the
        # pos indices of J below i
        for i in self._anchored:
            pos = bisect_left(mi, i)
            if pos < len(mi) and mi[pos] == i:
                continue
            merged = mi[:pos] + (i,) + mi[pos:]
            for m, shift, a in self._anchor_terms[i]:
                num = a.numerator * (den // a.denominator)
                key = (merged, m, shift)
                acc[key] = acc.get(key, 0) + (-num if pos % 2 else num)
        # x^a d(e^J): e^{j_t} at place t becomes the 2-form d e^{j_t}, which
        # commutes to the front and then sorts into the rest of J
        for t, j in enumerate(mi):
            coframe = self._d_coframe[j]
            if not coframe:
                continue
            rest = mi[:t] + mi[t + 1:]
            for (a, b), beta, s in coframe:
                if a in rest or b in rest:
                    continue
                flips = t + sum(1 for x in rest if x < a) + sum(1 for x in rest if x < b)
                num = s.numerator * (den // s.denominator)
                key = (tuple(sorted(rest + (a, b))), None, beta)
                acc[key] = acc.get(key, 0) + (-num if flips % 2 else num)
        return tuple((target, m, shift, num)
                     for (target, m, shift), num in acc.items() if num) or _NO_TERMS

    def d_sparse_sources(self, key, bound):
        """The transpose of `d_sparse`: columns whose image can hold a row.

        For a row key (M, b) lists every column key (J, a), a >= 0 with
        |a| <= bound, whose `d_sparse` image can have a term at (M, b),
        read off `_anchor_terms` and `_d_coframe`, which the d_A table is
        built from, backwards.  Columns
        whose contributions cancel may be listed; none is left out.
        """
        mi, expo = key
        out = set()
        for t, i in enumerate(mi):
            rest = mi[:t] + mi[t + 1:]
            for m, shift, _ in self._anchor_terms[i]:
                source = tuple(e - s for e, s in zip(expo, shift))
                if source[m] >= 1 and min(source) >= 0 and sum(source) <= bound:
                    out.add((rest, source))
        for p, q in itertools.combinations(mi, 2):
            rest = tuple(x for x in mi if x != p and x != q)
            for j in range(self.rank):
                if j in rest:
                    continue
                for pair, beta, _ in self._d_coframe[j]:
                    if pair != (p, q):
                        continue
                    source = tuple(e - s for e, s in zip(expo, beta))
                    if min(source, default=0) >= 0 and sum(source) <= bound:
                        out.add((tuple(sorted(rest + (j,))), source))
        return out

    def d(self, form):
        """d_A on each fiber component of a Form, by the rule of `d_sparse`.

        The image is packed back into a Form with its (multi-index, fiber)
        keys in ascending order.  The Koszul formula on frame elements is
        kept in the tests as the oracle this must match.
        """
        if form.frame_rank != self.rank or form.variables != self.variables:
            raise MismatchError("form does not live over this algebroid's frame")
        components = {}
        for (mi, alpha), poly in form.coeffs.items():
            components.setdefault(alpha, {}).update({(mi, e): v for e, v in poly.terms.items()})
        coeffs = {}
        for alpha, terms in components.items():
            for (mi, expo), val in self.d_sparse(terms).items():
                coeffs.setdefault((mi, alpha), {})[expo] = val
        return Form._unchecked(self.variables, self.rank, form.degree + 1, form.fiber_dim,
                               {key: Poly._unchecked(self.variables, dict(sorted(terms.items())))
                                for key, terms in sorted(coeffs.items())})

    def d_total(self, total_form):
        """d_A on every matrix entry of a TotalForm.

        Block (i, l, j) goes to block (i + 1, l, j), so the total degree
        rises by one; no sign enters, the entries are scalar forms.  With
        the connection form Gamma this gives d_nabla^End K = d_A K +
        [Gamma, K] and R_nabla = d_A Gamma + Gamma ^ Gamma.
        """
        if (total_form.frame_rank != self.rank
                or total_form.variables != self.variables):
            raise MismatchError("total form does not live over this algebroid's frame")
        return TotalForm._unchecked(self.variables, self.rank, total_form.src,
                                    total_form.dst, total_form.total_degree + 1,
                                    self._d_stored(total_form._kernel, total_form.src))

    def _d_stored(self, kernel, src):
        """d_A on every entry of a stored total form (D, view) from the bundle
        `src` (see `forms`), over D * `_d_den`, in lowest terms."""
        cells: dict = {}
        self._d_into(kernel[1], src, 1, cells)
        return _canonical(kernel[0] * self._d_den, cells, _width(self.variables))

    def _d_into(self, view, src, scale, cells):
        """Add `scale` times d_A of every entry of a stored view from the
        bundle `src` into the kernel accumulators `cells` (see `forms`),
        numerators over `_d_den` times the view's denominator: block (i, l,
        j) into the slot (i + 1, l, j), read from `_d_packed`."""
        width, packed = _width(self.variables), self._d_packed
        for (i, l, j), entries in view.items():
            cols, slot = src.rank(l), None
            for mask, rows in entries.items():
                terms = packed.get(mask)
                if terms is None:
                    terms = packed[mask] = self._packed_terms(mask)
                if terms and slot is None:
                    slot = cells.setdefault((i + 1, l, j), (len(rows), cols, {}))
                for target, m, shift, num in terms:
                    num *= scale
                    acc = slot[2].get(target)
                    if acc is None:
                        acc = slot[2][target] = _cells(len(rows), cols, width)
                    if not width:   # no anchor on a point: m is None
                        for out, row in zip(acc, rows):
                            for c, n in row:
                                out[c] += n * num
                        continue
                    get = acc.get
                    for r, row in enumerate(rows):
                        base = r * cols
                        for c, entry in row:
                            cell = ((base + c) << width) + shift
                            for expo, n in entry:
                                if m is not None:
                                    e = (expo >> m) & _FIELD_MASK
                                    if not e:
                                        continue
                                    n *= e
                                expo += cell
                                acc[expo] = get(expo, 0) + n * num

    def _packed_terms(self, mask):
        """The `_d_packed` entry of a bitmask J: the `_d_table` terms of J,
        each (target bitmask, bit offset of the anchor variable's field or
        None, packed exponent shift, numerator).  An anchor shift lowers one
        exponent by 1; it is added only where that exponent is positive."""
        mi = _indices(mask)
        terms = self._d_table.get(mi)
        if terms is None:
            terms = self._d_table[mi] = self._d_terms(mi)
        top = FIELD * (len(self.variables) - 1)
        return tuple((_mask(target), None if m is None else top - FIELD * m, _pack(shift), num)
                     for target, m, shift, num in terms) or _NO_TERMS

    def coframe(self, index):
        return Form.coframe(self.variables, self.rank, index)

    def function_form(self, poly):
        return Form.function(self.variables, self.rank, poly)

    def d_squared_check(self):
        """d_A^2 on every chart coordinate and coframe generator.

        Returns (ok, failures); over a valid algebroid this is a theorem,
        so a failure here flags broken structure data.
        """
        failures = []
        for m in range(self.chart.dim):
            w = self.function_form(self.chart.var(m))
            if not self.d(self.d(w)).is_zero():
                failures.append(f"d^2 x_{m} != 0")
        for i in range(self.rank):
            if not self.d(self.d(self.coframe(i))).is_zero():
                failures.append(f"d^2 eps_{i} != 0")
        return not failures, tuple(failures)

    # -- subframes --------------------------------------------------------------

    def subalgebroid_failures(self, subframe):
        """Bracket-closure violations of a subframe: list of (i, j, k) triples."""
        inside = set(subframe.indices)
        bad = []
        for i in subframe.indices:
            for j in subframe.indices:
                for k in range(self.rank):
                    if k not in inside and not self.structure[i][j][k].is_zero():
                        bad.append((i, j, k))
        return bad

    def restrict(self, subframe):
        """The algebroid structure induced on a bracket-closed subframe."""
        bad = self.subalgebroid_failures(subframe)
        if bad:
            i, j, k = bad[0]
            raise MismatchError(
                f"subframe is not bracket closed: [e_{i}, e_{j}] has an "
                f"e_{k} component outside the subframe")
        idx = subframe.indices
        anchor = tuple(self.anchor[i] for i in idx)
        structure = tuple(
            tuple(tuple(self.structure[i][j][k] for k in idx) for j in idx)
            for i in idx)
        return Algebroid(self.chart, len(idx), anchor, structure)

    # -- io -----------------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Algebroid)
                and self.chart == other.chart
                and self.rank == other.rank
                and self.anchor == other.anchor
                and self.structure == other.structure)

    def __repr__(self):
        return f"Algebroid(rank={self.rank}, chart={list(self.variables)})"

    def to_json(self):
        brackets = []
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                vec = self.structure[i][j]
                if any(not p.is_zero() for p in vec):
                    brackets.append({"i": i, "j": j,
                                     "coeffs": [str(p) for p in vec]})
        return {
            "chart": {"vars": list(self.variables)},
            "rank": self.rank,
            "anchor": [[str(p) for p in row] for row in self.anchor],
            "brackets": brackets,
        }

    @classmethod
    def from_json(cls, data):
        chart = Chart(data["chart"]["vars"])
        rank = data["rank"]
        anchor = [[Poly.parse(p, chart.variables) for p in row]
                  for row in data["anchor"]]
        brackets = {}
        for entry in data.get("brackets", []):
            key = (entry["i"], entry["j"])
            if key in brackets or (key[1], key[0]) in brackets:
                raise MismatchError(f"duplicate bracket pair {key}")
            brackets[key] = [Poly.parse(c, chart.variables)
                             for c in entry["coeffs"]]
        return cls.from_brackets(chart, rank, anchor, brackets)


def tangent_algebroid(chart):
    """TM of a chart: identity anchor, vanishing brackets on coordinate fields."""
    if not isinstance(chart, Chart):
        chart = Chart(chart)
    n = chart.dim
    if n == 0:
        raise MismatchError("the tangent algebroid of a point is empty; "
                            "use a positive-dimensional chart")
    anchor = tuple(
        tuple(chart.one() if i == m else chart.zero() for m in range(n))
        for i in range(n))
    zero = chart.zero()
    structure = tuple(tuple(tuple(zero for _ in range(n)) for _ in range(n))
                      for _ in range(n))
    return Algebroid(chart, n, anchor, structure)
