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
numerator over one common denominator, and an algebroid keeps one d_A
table, keyed like a stored form (see `forms`): per bitmask J it has
differentiated, the terms of d(x^a e^J), each a target bitmask, the bit
offset of the anchor variable's field (or None for a coframe term), a
packed exponent shift and a signed numerator, the ones that cancel
dropped.  An anchor's shift lowers one field by 1 and is added only where
that field is positive.  This table is the only code that applies the
anchor and structure functions to forms, in integers: each image term is
an integer multiply-add.  `_d_into` adds a multiple of d_A of every entry
of a stored TotalForm into the accumulators of a kernel pass, which is how
the curvature's last pass, the one pass of a connection's operator and
d^End add d_A; `d_total` is that pass on accumulators of its own, and `d`
is `d_total` on a Form, the one-column TotalForm.  `_d_column` reads the
same entries for one monomial form x^a e^J, keyed (bitmask, packed
monomial), in integer numerators over `_d_den`: the columns of the
exactness ansatz and of the cohomology differential.  Its transpose,
`d_sparse_sources`, reads the anchor and coframe terms backwards, packed
(`_source_table`, filled on first use beside the d_A table): it lists the
monomial forms whose image can reach a given term, which is how the
exactness solve grows only the part of its system that a form touches.
The anchor and structure coefficients are Polys, whose terms are keyed by
packed monomials (see `ring`, which alone checks that exponents stay below
2^32), so the table's shifts are those keys, an anchor term's less the unit
of its variable's field, with no packing here.  The table fills on first
use and lives on the instance; a bitmask with no image stores one shared
empty tuple.  `d_vanishes` says there is no anchor and no structure, so
d_A is zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import lcm

from .errors import MismatchError
from .forms import Form, _canonical, _indices, _width
from .ring import _FIELD_MASK, FIELD, VARIABLE_NAME, Poly, _total_degree

_NO_TERMS = ()   # the d_A table entry of a bitmask with no image


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
                 "_d_coframe", "_anchored", "_d_den", "_d_table", "_sources",
                 "d_vanishes", "_degree")

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
        # the data the d_A table is built from, fixed with the presentation,
        # each beta a packed monomial, the key of a Poly's term: per frame
        # index i the terms (off, beta, a) of rho(e_i) = sum a x^beta d/dx_m,
        # off the bit offset of x_m's field; per k the terms ((a, b), beta,
        # -c) of d e^k, one for each term c x^beta of c_ab^k with a < b
        offsets = [FIELD * (chart.dim - 1 - m) for m in range(chart.dim)]
        self._anchor_terms = tuple(
            tuple((off, beta, a) for off, p in zip(offsets, row) for beta, a in p.terms.items())
            for row in anchor)
        self._d_coframe = tuple(
            tuple(((a, b), beta, -c)
                  for a in range(self.rank) for b in range(a + 1, self.rank)
                  for beta, c in structure[a][b][k].terms.items())
            for k in range(self.rank))
        # the highest total degree of an anchor or structure coefficient
        self._degree = max((_total_degree(beta) for terms in (self._anchor_terms, self._d_coframe)
                            for row in terms for _, beta, _ in row), default=0)
        # the integer d_A table: the frame indices with a nonzero anchor, the
        # common denominator of every coefficient above, and per bitmask the
        # terms `_d_terms` builds on first use
        self._anchored = tuple(i for i, row in enumerate(self._anchor_terms) if row)
        # no anchor and no structure: d_A is zero on every form
        self.d_vanishes = not self._anchored and not any(self._d_coframe)
        self._d_den = lcm(*{q.denominator for row in self._anchor_terms for _, _, q in row},
                          *{q.denominator for row in self._d_coframe for _, _, q in row})
        self._d_table = {}
        self._sources = None   # the table of `d_sparse_sources`, built on first use

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

    def _d_column(self, key):
        """d_A of one monomial form x^a e^J, keyed (bitmask of J, packed
        x^a) as stored forms are, as {(bitmask, packed monomial): numerator}
        over `_d_den` without zeros: a column of the exactness ansatz or of
        the cohomology differential."""
        mask, mono = key
        terms = self._d_table.get(mask)
        if terms is None:
            terms = self._d_table[mask] = self._d_terms(mask)
        acc = {}
        for target, off, shift, num in terms:
            if off is not None:
                e = (mono >> off) & _FIELD_MASK
                if not e:
                    continue
                num *= e
            out = (target, mono + shift)
            acc[out] = acc.get(out, 0) + num
        return {out: n for out, n in acc.items() if n}

    def _d_terms(self, mask):
        """The d_A table entry of a bitmask J: the terms (target bitmask,
        field offset, packed shift, numerator) of d(x^a e^J) over `_d_den`.

        An anchor term, `off` the bit offset of its variable's field, stands
        for a_m * numerator * x^(a + shift) e^target, a_m the exponent in
        that field; its shift lowers that field by 1, so it is added only
        where a_m > 0.  A coframe term, `off` None, stands for numerator *
        x^(a + shift) e^target.  Terms with one target, offset and shift are
        summed, and the ones that cancel are left out.
        """
        den, acc = self._d_den, {}
        # rho(e_i)(x^a) e^i ^ e^J: e^i passes the indices of J below i
        for i in self._anchored:
            bit = 1 << i
            if mask & bit:
                continue
            sign = -1 if (mask & (bit - 1)).bit_count() & 1 else 1
            for off, beta, a in self._anchor_terms[i]:
                key = (mask | bit, off, beta - (1 << off))
                acc[key] = acc.get(key, 0) + sign * a.numerator * (den // a.denominator)
        # x^a d(e^J): e^j at place t becomes the 2-form d e^j, which commutes
        # to the front, passing t indices, and then sorts into the rest of J
        for t, j in enumerate(_indices(mask)):
            rest = mask ^ (1 << j)
            for (a, b), beta, s in self._d_coframe[j]:
                pair = (1 << a) | (1 << b)
                if rest & pair:
                    continue
                flips = t + (rest & ((1 << a) - 1)).bit_count() \
                    + (rest & ((1 << b) - 1)).bit_count()
                key = (rest | pair, None, beta)
                num = s.numerator * (den // s.denominator)
                acc[key] = acc.get(key, 0) + (-num if flips & 1 else num)
        return tuple((target, off, shift, num)
                     for (target, off, shift), num in acc.items() if num) or _NO_TERMS

    def _source_table(self):
        """The table `d_sparse_sources` reads, from `_anchor_terms` and
        `_d_coframe`, packed: (G, anchor, coframe) with G the guard bit at
        the top of every field of a packed monomial; anchor lists, per
        anchored frame index i, the bit of i and the terms (packed beta,
        packed unit(m), |beta|) of rho(e_i) = sum a x^beta d/dx_m; coframe
        maps the bitmask of a pair a < b to the terms (bit of k, packed
        beta, |beta|) of the d e^k with a term c x^beta in c_ab^k."""
        guard = sum(1 << FIELD * v + FIELD - 1 for v in range(len(self.variables)))
        anchor = tuple((1 << i, tuple((beta, 1 << off, _total_degree(beta))
                                      for off, beta, _ in self._anchor_terms[i]))
                       for i in self._anchored)
        coframe = {}
        for k, row in enumerate(self._d_coframe):
            for (a, b), beta, _ in row:
                coframe.setdefault((1 << a) | (1 << b), []).append((1 << k, beta,
                                                                    _total_degree(beta)))
        self._sources = guard, anchor, coframe
        return self._sources

    def d_sparse_sources(self, key, bound):
        """The transpose of `_d_column`: columns whose image can hold a row.

        For a row key (bitmask of M, packed b) lists every column key
        (bitmask of J, packed a), a >= 0 with |a| <= bound, whose
        `_d_column` image can have a term at that row, read off the
        anchor and coframe terms the d_A table is built from, backwards
        (`_source_table`).  Columns whose contributions cancel may be
        listed; none is left out.

        A source is b - beta, plus unit(m) for an anchor term, and it exists
        where b >= beta in every field: with the guard bit G on top of each
        field, ((b | G) - beta) & G == G, as no field borrows from the next
        while exponents stay below 2^32.  |b| is b mod 2^FIELD - 1, the sum
        of its fields.  Nothing is unpacked or packed per source.
        """
        mask, mono = key
        guard, anchor, coframe = self._sources or self._source_table()
        high, low, out = mono | guard, mono % _FIELD_MASK - bound, set()
        # an anchor source has degree |b| - |beta| + 1, a coframe one |b| - |beta|
        for bit, terms in anchor:
            if mask & bit:
                for beta, unit, degree in terms:
                    if degree > low and (high - beta) & guard == guard:
                        out.add((mask ^ bit, mono - beta + unit))
        for pair, terms in coframe.items():
            if mask & pair == pair:
                rest = mask ^ pair
                for bit, beta, degree in terms:
                    if not rest & bit and degree >= low and (high - beta) & guard == guard:
                        out.add((rest | bit, mono - beta))
        return out

    def d(self, form):
        """d_A on a Form, a Form of one degree more: `d_total` on its one
        column.  The Koszul formula on frame elements is kept in the tests
        as the oracle this must match."""
        return self.d_total(form)

    def d_total(self, total_form):
        """d_A on every matrix entry of a TotalForm.

        Block (i, l, j) goes to block (i + 1, l, j), so the total degree
        rises by one; no sign enters, the entries are scalar forms.  With
        the connection form Gamma this gives d_nabla^End K = d_A K +
        [Gamma, K] and R_nabla = d_A Gamma + Gamma ^ Gamma.  The image is
        of the input's class, so a Form goes to a Form.
        """
        if (total_form.frame_rank != self.rank
                or total_form.variables != self.variables):
            raise MismatchError("total form does not live over this algebroid's frame")
        (D, view), cells = total_form._kernel, {}
        self._d_into(view, total_form.src, 1, cells)
        return type(total_form)._unchecked(self.variables, self.rank, total_form.src,
                                           total_form.dst, total_form.total_degree + 1,
                                           _canonical(D * self._d_den, cells,
                                                      _width(self.variables)))

    def _d_into(self, view, src, scale, cells):
        """Add `scale` times d_A of every entry of a stored view from the
        bundle `src` into the kernel accumulators `cells` (see `forms`),
        numerators over `_d_den` times the view's denominator: block (i, l,
        j) into the slot (i + 1, l, j), read from `_d_table`."""
        width, table = _width(self.variables), self._d_table
        for (i, l, j), entries in view.items():
            cols, slot = src.rank(l), None
            for mask, rows in entries.items():
                terms = table.get(mask)
                if terms is None:
                    terms = table[mask] = self._d_terms(mask)
                if terms and slot is None:
                    slot = cells.setdefault((i + 1, l, j), (len(rows), cols, {}))
                for target, m, shift, num in terms:
                    num *= scale
                    acc = slot[2].get(target)
                    if not width:   # no anchor on a point: m is None; rows are flat
                        if acc is None:
                            slot[2][target] = [n * num for n in rows]
                        else:
                            for c, n in enumerate(rows):
                                acc[c] += n * num
                        continue
                    if acc is None:
                        acc = slot[2][target] = {}
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

    def d_squared_check(self):
        """d_A^2 on every chart coordinate and coframe generator.

        Returns (ok, failures); over a valid algebroid this is a theorem,
        so a failure here flags broken structure data.
        """
        failures = []
        for m in range(self.chart.dim):
            x_m = Form.function(self.variables, self.rank, self.chart.var(m))
            if not self.d(self.d(x_m)).is_zero():
                failures.append(f"d^2 x_{m} != 0")
        for i in range(self.rank):
            if not self.d(self.d(Form.coframe(self.variables, self.rank, i))).is_zero():
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
