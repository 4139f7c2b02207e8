"""Frame-level exterior forms with values in graded vector bundles.

Everything is expressed over a fixed frame e_1..e_r of an anchored bundle
and a polynomial chart base.  A `TotalForm` is a block matrix of
Hom-valued forms: block (i, l, j) lives in Omega^i(A, Hom(E_l, F_j)) and
all blocks share the total degree s = i + j - l.  An element of the total
complex of a graded bundle E is the one-column TotalForm from R[0] to E, a
Hom(R[0], E)-valued cochain: its t-form with values in E_z is the block
(t, 0, z), and hat(K) acts on it as the product K ^ x.  A `Form` of degree
k with values in R^d is the case E = R^d[0], its k-form the block
(k, 0, 0), so forms, elements and total forms share one storage, one sum
and one product.

Sign conventions (load-bearing, do not change casually):

* wedge of scalar coefficients on ascending indices I, J: sign is the
  parity of the merge inversion count of (I, J);
* the operator `hat(K)` of a block (i, l, j) acting on an E_l-valued
  t-form is (-1)^((j-l)*t) times the plain shuffle action.  The Koszul
  factor is what makes the graded trace kill graded commutators; dropping
  it breaks that identity for blocks of odd fiber degree;
* composing hatted operators corresponds to the block wedge with an extra
  (-1)^(f1*i2) where f1 is the fiber degree of the left block and i2 the
  form degree of the right one.  A Form's fiber degree is 0, so a product
  of Forms carries the merge sign alone, and a scalar left of a
  vector-valued Form swaps past it with (-1)^(pq).

A `TotalForm` is stored in integers, as `_kernel` = (D, view): one
denominator D in lowest terms and, per block, the sparse integer rows of
each multi-index, keyed by its bitmask (bit k for frame index k).  A row
lists the (column, entry) pairs of its nonzero entries in column order; an
entry is a numerator over D, an integer on the point base and ascending
(packed monomial, numerator) pairs on a chart.  A packed monomial is the
key of a Poly's terms (see `ring`): one integer with a FIELD-bit field per
exponent, the first variable in the highest field, so integer order is
exponent-tuple order and a product of monomials is one integer addition.
An entry is a Poly's sorted terms over D and back, with no monomial
repacked; `ring` alone checks that exponents stay below 2^32, so no chain
of products a task builds carries into the next field.  Nothing zero is
stored, so equality compares stored forms.  Polys appear only at the
boundary: the checked constructors (so `from_json`) read Polys, and
`blocks` and a Form's `coeffs` (each built on first read) and `to_json`
are built from the integers; the Polys built from one form share one Poly
per value on the point base, so no code writes into a Poly's terms (a test
of the package source checks it).

`wedge` and `wedge_trace` are one kernel pass, `_product`, which adds
integers over D_left * D_right and stores the result in lowest terms; `+`,
`-`, `scale` and `Algebroid.d_total` work on the stored form too.  Given an
algebroid, `_product` is the fused pass d_A Y + hat(X) o hat(Y) of the
curvature's last pass, of the connection's operator and of d^End: d_A of the
right operand goes into the same accumulators before the one `_canonical`,
over the joined denominator D_right * lcm(D_left, d_A's denominator).  The
pass runs over pairs of multi-index bitmasks: an overlapping pair is
skipped by `m1 & m2`, and so is a block pair whose form degrees exceed the
frame rank.  The merge sign of a disjoint pair is one popcount: each right
bitmask gets, once per pass, its parity word (`_parity_word`, the XOR over
its bits b of the bits above b), and the sign is -1 exactly when `m1 &
word` has odd popcount.  On the point base the pair loop itself does the
integer row x matrix product into rows of integer cells, or sums the
diagonal of the product into one integer for a trace, with no call per
pair; on a chart each output matrix is one flat dict keyed by ((row * cols
+ col) << width) + monomial, which `_accumulate` (or `_trace`) fills and
`_canonical` sorts once and splits back into rows; it divides out the gcd
of D and all numerators before it builds a row.  The trace of a product
(`wedge_trace`, behind `tr` and `gtr`) forms only the diagonal entries of
the diagonal blocks, summed into 1 x 1 matrices: a stored scalar Form.  A
trace of X ^ X, the right operand being the left's own stored form, is
symmetric when X has even total degree s and the trace is graded or every
summand degree is even.  A pair and its swap, with f1 the left block's
fiber degree and i1 = s - f1, i2 = s + f1 the form degrees, differ in sign
by (-1)^(i1 i2) = (-1)^(s + f1) from the merge sign, not at all from the
Koszul factors (f1 i2 - f1 i1 = 2 f1^2) and by (-1)^f1 from a graded
trace's sign, so by (-1)^s graded and (-1)^(s + f1) ungraded.  That pass
visits each unordered pair once and doubles it: block pairs with key1 <=
key2, and within one block mask pairs in triangular order; the block of
form degree 0 has the one mask 0, whose pair with itself counts once.  Of
the Poly-matrix helpers,
`mat_zero`, `mat_identity` and `mat_is_zero` serve the package; no package
code multiplies Poly matrices, and `mat_mul` stays public only for
`perfbench/test_perfbench.py`, which patches it through `connections`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain
from math import gcd, lcm

from .errors import MismatchError, ParseError
from .ring import FIELD, Poly

# ----------------------------------------------------------------------
# multi-index utilities


@cache
def _mask(indices):
    """The bitmask of a multi-index: bit k is set when k is in it."""
    return sum(1 << k for k in indices)


@cache
def _indices(mask):
    """The ascending multi-index of a bitmask, lowest bit first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _parity_word(mask):
    """The parity word of a multi-index bitmask: the XOR over its bits b of
    the bits above b.  For a bitmask `left` disjoint from `mask`, the sign
    of the permutation that sorts the indices of `left` followed by those of
    `mask` is -1 exactly when (left & word).bit_count() is odd: each index
    b of `mask` passes the indices of `left` above it."""
    word = 0
    while mask:
        low = mask & -mask
        word ^= -(low << 1)
        mask ^= low
    return word


# ----------------------------------------------------------------------
# small Poly matrices (rows = target fiber index, cols = source fiber index)


def mat_zero(rows, cols, variables):
    z = Poly.zero(variables)
    return tuple(tuple(z for _ in range(cols)) for _ in range(rows))


def mat_identity(n, variables):
    one = Poly.one(variables)
    zero = Poly.zero(variables)
    return tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )


def mat_mul(a, b):
    inner = len(b)
    if a and len(a[0]) != inner:
        raise MismatchError(
            f"matrix shapes do not compose: {len(a)}x{len(a[0])} @ "
            f"{inner}x{len(b[0]) if b else 0}")
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        new_row = []
        for c in range(cols):
            acc = None
            for k in range(inner):
                piece = row[k] * b[k][c]
                acc = piece if acc is None else acc + piece
            new_row.append(acc)
        out.append(tuple(new_row))
    return tuple(out)


def mat_is_zero(a):
    return all(x.is_zero() for row in a for x in row)


# ----------------------------------------------------------------------
# the stored form of a TotalForm and the integer kernel on it

def _from_polys(blocks, width):
    """The stored form of nonzero {key: {multi-index: rows}}, each row the
    (column, Poly) pairs of its nonzero entries, with monomials `width` bits
    wide (0 on the point base); D is the lcm of denominators."""
    D = lcm(*{q.denominator for entries in blocks.values() for rows in entries.values()
              for row in rows for _, p in row for q in p.terms.values()})

    def entry(p):
        if not width:
            q = p.terms[0]
            return q.numerator * (D // q.denominator)
        return [(m, q.numerator * (D // q.denominator)) for m, q in sorted(p.terms.items())]

    return D, {key: {_mask(mi): [[(c, entry(p)) for c, p in row] for row in rows]
                     for mi, rows in entries.items()}
               for key, entries in blocks.items()}


def _polys(variables, D):
    """The function from an entry over D, or any (packed monomial, numerator)
    pairs on a chart, to its Poly; on the point base one Poly per distinct
    numerator, shared through a dict that lives as long as the function."""
    if variables:
        return lambda pairs: Poly._unchecked(
            variables, {m: Fraction(n, D) for m, n in pairs if n})
    polys = {}

    def poly(n):
        out = polys.get(n)
        if out is None:
            out = polys[n] = Poly._unchecked(variables, {0: Fraction(n, D)} if n else {})
        return out

    return poly


def _width(variables):
    """The bit width of a packed monomial over `variables`, 0 on the point base."""
    return FIELD * len(variables)


def _cells(rows, cols, width):
    """The zero accumulator of one `rows` x `cols` output matrix: rows of
    integer cells on the point base (`width` 0), one flat dict on a chart."""
    return [[0] * cols for _ in range(rows)] if not width else {}


def _accumulate(acc, sign, left, right, cols, width):
    """acc += sign * (left @ right) for sparse chart rows `left` and `right`
    into a flat accumulator: the term x^e1 * x^e2 of cell (r, c) adds into
    the key ((r * cols + c) << width) + e1 + e2, so a product of two terms
    is an integer multiply and two adds."""
    get = acc.get
    for r, row in enumerate(left):
        base = r * cols
        for k, lterms in row:
            for c, rterms in right[k]:
                cell = (base + c) << width
                for e1, n1 in lterms:
                    n1 *= sign
                    e1 += cell
                    for e2, n2 in rterms:
                        e = e1 + e2
                        acc[e] = get(e, 0) + n1 * n2


def _trace(cell, sign, left, right):
    """cell += sign * tr(left @ right) for sparse chart rows, forming only
    the diagonal entries; `cell` is {packed monomial: numerator}."""
    get = cell.get
    for r, row in enumerate(left):
        for k, lterms in row:
            for c, rterms in right[k]:
                if c == r:
                    for e1, n1 in lterms:
                        n1 *= sign
                        for e2, n2 in rterms:
                            e = e1 + e2
                            cell[e] = get(e, 0) + n1 * n2


def _canonical(D, cells, width):
    """The stored form of cells over D, {key: (rows, cols, {mask: acc})}
    with accumulators as `_cells` makes them: rows keep their nonzero entries, zero
    matrices and empty blocks are dropped, and D and every numerator are
    divided by their gcd, which zero cells leave as it is.  One pass: the
    gcd of D and every accumulated numerator comes first, and each row is
    built once, already divided by it.  A chart accumulator is sorted once:
    its keys come in (row, column, monomial) order and split back into
    rows."""
    g = D
    for _, _, tgt in cells.values():
        for acc in tgt.values():
            if g == 1:
                break
            g = gcd(g, *acc.values()) if width else gcd(g, *chain.from_iterable(acc))
    view, low = {}, (1 << width) - 1
    for key, (nrows, cols, tgt) in cells.items():
        entries = {}
        for mask, acc in tgt.items():
            if not width:
                rows = ([[(c, n) for c, n in enumerate(row) if n] for row in acc] if g == 1
                        else [[(c, n // g) for c, n in enumerate(row) if n] for row in acc])
            else:
                rows, last = [[] for _ in range(nrows)], -1
                for k in sorted(acc):
                    n = acc[k]
                    if n:
                        cell = k >> width
                        if cell != last:
                            last, pairs = cell, []
                            rows[cell // cols].append((cell % cols, pairs))
                        pairs.append((k & low, n // g))
            if any(rows):
                entries[mask] = rows
        if entries:
            view[key] = entries
    return D // g, view   # an empty view leaves g == D, and D // g == 1


def _combine(terms, src, width):
    """The stored form of the sum of factor * form over the (factor, (D,
    view)) pairs `terms`, forms from the bundle `src` with monomials `width`
    bits wide, over the lcm of the D's, which need not be in lowest terms."""
    D = lcm(*(d for _, (d, _) in terms))
    cells: dict = {}
    for factor, (d, view) in terms:
        scale = factor * (D // d)
        for key, entries in view.items():
            cols, slot = src.rank(key[1]), cells.get(key)
            for mask, rows in entries.items():
                if slot is None:
                    slot = cells[key] = (len(rows), cols, {})
                acc = slot[2].get(mask)
                if acc is None:
                    acc = slot[2][mask] = _cells(len(rows), cols, width)
                if not width:
                    for out, row in zip(acc, rows):
                        for c, n in row:
                            out[c] += scale * n
                    continue
                get = acc.get
                for r, row in enumerate(rows):
                    base = r * cols
                    for c, entry in row:
                        cell = (base + c) << width
                        for e, n in entry:
                            e += cell
                            acc[e] = get(e, 0) + scale * n
    return _canonical(D, cells, width)


# ----------------------------------------------------------------------


class GradedBundle:
    """A finite direct sum of constant-rank summands indexed by integer degree."""

    __slots__ = ("summands",)

    def __init__(self, summands):
        summands = tuple(sorted((int(z), int(r)) for z, r in summands))
        degrees = [z for z, _ in summands]
        if len(set(degrees)) != len(degrees):
            raise MismatchError(f"repeated summand degrees in {summands}")
        if any(r < 1 for _, r in summands):
            raise MismatchError(f"summand ranks must be positive: {summands}")
        if not summands:
            raise MismatchError("a graded bundle needs at least one summand")
        self.summands = summands

    def degrees(self):
        return tuple(z for z, _ in self.summands)

    def rank(self, degree):
        for z, r in self.summands:
            if z == degree:
                return r
        return 0

    def __eq__(self, other):
        return isinstance(other, GradedBundle) and self.summands == other.summands

    def __hash__(self):
        return hash(self.summands)

    def __repr__(self):
        inner = " + ".join(f"R^{r}[{z}]" for z, r in self.summands)
        return f"GradedBundle({inner})"

    def to_json(self):
        return {"summands": [{"degree": z, "rank": r} for z, r in self.summands]}

    @classmethod
    def from_json(cls, data):
        return cls([(s["degree"], s["rank"]) for s in data["summands"]])


# ----------------------------------------------------------------------


class TotalForm:
    """Block matrix of Hom-valued forms of a fixed total degree.

    blocks[(i, l, j)] maps ascending multi-indices of length i to matrices
    of shape (dst.rank(j), src.rank(l)); i + j - l equals total_degree for
    every block.  The form is stored in integers (`_kernel`, see the module
    docstring); `blocks` is built from them on first read.
    """

    __slots__ = ("variables", "frame_rank", "src", "dst", "total_degree", "_kernel",
                 "_blocks")

    def __init__(self, variables, frame_rank, src, dst, total_degree, blocks=None):
        self.variables = tuple(variables)
        self.frame_rank = int(frame_rank)
        self.src = src
        self.dst = dst
        self.total_degree = int(total_degree)
        clean = {}
        if blocks:
            for (i, l, j), entries in blocks.items():
                if i + j - l != self.total_degree:
                    raise MismatchError(
                        f"block ({i},{l},{j}) violates total degree {self.total_degree}")
                rows, cols = dst.rank(j), src.rank(l)
                if rows == 0 or cols == 0:
                    raise MismatchError(f"block ({i},{l},{j}) references a missing summand")
                block_clean = {}
                for mi, mat in entries.items():
                    mi = tuple(mi)
                    if len(mi) != i or list(mi) != sorted(set(mi)):
                        raise MismatchError(f"bad multi-index {mi} for form degree {i}")
                    if mi and (mi[0] < 0 or mi[-1] >= self.frame_rank):
                        raise MismatchError(f"index {mi} out of range")
                    if len(mat) != rows or any(len(r) != cols for r in mat):
                        raise MismatchError(f"matrix shape mismatch in block ({i},{l},{j})")
                    if not mat_is_zero(mat):
                        block_clean[mi] = [[(c, p) for c, p in enumerate(row) if p.terms]
                                           for row in mat]
                if block_clean:
                    clean[(i, l, j)] = block_clean
        self._kernel = _from_polys(clean, _width(self.variables))
        self._blocks = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def _unchecked(cls, variables, frame_rank, src, dst, total_degree, kernel):
        """A TotalForm on an engine-built stored form (D, view), in lowest
        terms with nothing zero stored; nothing is checked."""
        out = cls.__new__(cls)
        out.variables, out.frame_rank = variables, frame_rank
        out.src, out.dst, out.total_degree = src, dst, total_degree
        out._kernel, out._blocks = kernel, None
        return out

    @classmethod
    def _from_rows(cls, variables, frame_rank, src, dst, total_degree, blocks):
        """A TotalForm on engine-built sparse Poly rows {(i, l, j): {multi-index:
        rows}}, each row the (column, Poly) pairs of its nonzero entries, with
        no zero matrix and no empty block; only exponents are checked."""
        return cls._unchecked(variables, frame_rank, src, dst, total_degree,
                              _from_polys(blocks, _width(variables)))

    def _same_shape(self, kernel):
        """A form of this one's class and shape on the stored form `kernel`."""
        return type(self)._unchecked(self.variables, self.frame_rank, self.src, self.dst,
                                     self.total_degree, kernel)

    @classmethod
    def zero(cls, variables, frame_rank, src, dst, total_degree):
        return cls(variables, frame_rank, src, dst, total_degree)

    @classmethod
    def identity(cls, variables, frame_rank, bundle):
        variables = tuple(variables)
        one = [(0, 1)] if variables else 1   # 1 over D = 1; 0 is the packed x^0
        return cls._unchecked(variables, int(frame_rank), bundle, bundle, 0, (1, {
            (0, z, z): {0: [[(a, one)] for a in range(r)]} for z, r in bundle.summands}))

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        return not self._kernel[1]

    @property
    def blocks(self):
        """{(i, l, j): {multi-index: Poly matrix}}, built on first read."""
        if self._blocks is None:
            poly, zero = _polys(self.variables, self._kernel[0]), Poly.zero(self.variables)

            def line(row, cols):
                row = dict(row)
                return tuple(poly(row[c]) if c in row else zero for c in range(cols))

            self._blocks = {(i, l, j): {_indices(mask): tuple(line(row, self.src.rank(l))
                                                              for row in rows)
                                        for mask, rows in entries.items()}
                            for (i, l, j), entries in self._kernel[1].items()}
        return self._blocks

    def block(self, i, l, j):
        return self.blocks.get((i, l, j), {})

    def block_matrix(self, block, mi):
        mat = self.block(*block).get(tuple(mi))
        return mat_zero(self.dst.rank(block[2]), self.src.rank(block[1]),
                        self.variables) if mat is None else mat

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        return self._plus(1, other)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self._plus(-1, other)

    def _plus(self, factor, other):
        """self + factor * other, in one pass over both stored forms; self
        itself when other is zero."""
        if not isinstance(other, TotalForm):
            return NotImplemented
        if (self.variables, self.frame_rank, self.src, self.dst, self.total_degree) != (
                other.variables, other.frame_rank, other.src, other.dst, other.total_degree):
            raise MismatchError("total form shapes differ")
        if other.is_zero():
            return self
        return self._same_shape(_combine([(1, self._kernel), (factor, other._kernel)],
                                         self.src, _width(self.variables)))

    def scale(self, scalar):
        """Multiply by a rational number or a Poly; a non-constant Poly f is
        the product with the 0-form f times the identity of src."""
        if isinstance(scalar, Poly) and not scalar.is_constant():
            right = _from_polys({(0, z, z): {(): [[(a, scalar)] for a in range(r)]}
                                 for z, r in self.src.summands}, _width(self.variables))
            return self._same_shape(self._product(right, self.src))
        if isinstance(scalar, Poly):
            scalar = scalar.constant_value()
        scalar = Fraction(scalar)
        D, view = self._kernel
        return self._same_shape(_combine([(scalar.numerator, (D * scalar.denominator, view))],
                                         self.src, _width(self.variables)))

    def _product(self, right, right_src, trace=None, d_a=None):
        """The one kernel pass of hat(self) o hat(right), for a stored form
        `right` with blocks (i2, l, m) and source bundle `right_src`.

        Returns the stored form of the product, blocks (i1 + i2, l, j), in
        lowest terms.  The sign of a pair is the merge sign times the Koszul
        factor (-1)^(f1 i2), f1 the fiber degree of the left block.  With
        `trace` not None only the diagonal entries of the diagonal blocks
        l == j are formed, times (-1)^l when `trace` is true, and summed
        into 1 x 1 matrices: the result is the stored block (i1 + i2, 0, 0)
        of a scalar Form; a trace of X ^ X that the module docstring shows
        symmetric takes each unordered pair once, doubled.  With an
        algebroid `d_a` whose d_A is not zero, and self End-valued on the
        target of `right`, d_A of `right` is added into the same
        accumulators (`Algebroid._d_into`): d_A Y + hat(self) o hat(Y) in
        one pass, over D_right * lcm(D_left, _d_den), the product's terms
        scaled by lcm / D_left and d_A's by lcm / _d_den.
        """
        D1, left = self._kernel
        D2, right_view = right
        width, diagonal = _width(self.variables), trace is not None
        cells: dict = {}
        scale = 1
        if d_a is not None and not d_a.d_vanishes:
            D = lcm(D1, d_a._d_den)
            d_a._d_into(right_view, right_src, D // d_a._d_den, cells)
            scale, D1 = D // D1, D
        # a trace of X ^ X with X of even total degree, graded or over even
        # summand degrees only, takes the same term from a pair and from its
        # swap (see the module docstring): each unordered pair once, doubled
        halve = (diagonal and right is self._kernel and self.total_degree % 2 == 0
                 and (trace or all(z % 2 == 0 for z in self.src.degrees())))
        # per right block, once it is used: (mask, parity word, rows) of each
        # multi-index; the merge sign of a disjoint pair is the parity of mask1 & word
        words: dict = {}
        for key1, entries1 in left.items():
            i1, m1, j = key1
            f1, nrows = j - m1, self.dst.rank(j)
            for key2, rights in right_view.items():
                i2, l, m2 = key2
                if (m2 != m1 or (diagonal and l != j) or i1 + i2 > self.frame_rank
                        or (halve and key2 < key1)):
                    continue
                entries2 = words.get(key2)
                if entries2 is None:
                    entries2 = words[key2] = [(mask, _parity_word(mask), rows)
                                              for mask, rows in rights.items()]
                koszul = -scale if (f1 * i2 + (l if trace else 0)) % 2 else scale
                # a pair and its swap at once; the mask-0 block with itself
                # once; within any other block, mask pairs in triangular order
                if halve and (key2 != key1 or i1 > 0):
                    koszul *= 2
                triangle = halve and key2 == key1 and i1 > 0
                cols = right_src.rank(l)
                tgt = cells.setdefault((i1 + i2, 0, 0) if diagonal else (i1 + i2, l, j),
                                       (1, 1, {}) if diagonal else (nrows, cols, {}))[2]
                for p, (mask1, lrows) in enumerate(entries1.items()):
                    for mask2, word, rrows in (entries2[p + 1:] if triangle else entries2):
                        if mask1 & mask2:
                            continue
                        merged = mask1 | mask2
                        sign = -koszul if (mask1 & word).bit_count() & 1 else koszul
                        if width:
                            acc = tgt.get(merged)
                            if acc is None:
                                acc = tgt[merged] = {}
                            if diagonal:
                                _trace(acc, sign, lrows, rrows)
                            else:
                                _accumulate(acc, sign, lrows, rrows, cols, width)
                        elif diagonal:
                            cell = 0
                            for r, row in enumerate(lrows):
                                for k, n1 in row:
                                    for c, n2 in rrows[k]:
                                        if c == r:
                                            cell += n1 * n2
                            tgt[merged] = tgt.get(merged, 0) + sign * cell
                        else:
                            acc = tgt.get(merged)
                            if acc is None:
                                acc = tgt[merged] = [[0] * cols for _ in range(nrows)]
                            for out, row in zip(acc, lrows):
                                for k, n1 in row:
                                    n1 *= sign
                                    for c, n2 in rrows[k]:
                                        out[c] += n1 * n2
        if diagonal and not width:   # a cell is the 1 x 1 accumulator [[cell]]
            for _, _, tgt in cells.values():
                for mask, cell in tgt.items():
                    tgt[mask] = [[cell]]
        return _canonical(D1 * D2, cells, width)

    def _check_composable(self, other):
        if not isinstance(other, TotalForm):
            raise MismatchError("the operand is not a TotalForm")
        if self.src != other.dst:
            raise MismatchError(f"blocks do not compose: the operand's target {other.dst} "
                                f"is not the source {self.src}")
        if self.variables != other.variables or self.frame_rank != other.frame_rank:
            raise MismatchError("total forms live over different frames")

    def wedge(self, other):
        """Composition product: hat(self.wedge(other)) == hat(self) o hat(other).

        Blockwise it is the shuffle wedge of form parts with matrix
        composition, times the Koszul factor (-1)^(f1 * i2) with f1 the
        fiber degree of the left block and i2 the form degree of the right.
        """
        self._check_composable(other)
        return TotalForm._unchecked(self.variables, self.frame_rank, other.src, self.dst,
                                    self.total_degree + other.total_degree,
                                    self._product(other._kernel, other.src))

    def wedge_trace(self, other, graded=False):
        """tr(self.wedge(other)), or gtr when `graded`, a scalar Form, in one
        kernel pass that forms only the diagonal entries of the diagonal
        blocks."""
        self._check_composable(other)
        if other.src != self.dst:
            raise MismatchError("a trace needs an endomorphism-valued product")
        return Form._unchecked(self.variables, self.frame_rank, _LINE, _LINE,
                               max(self.total_degree + other.total_degree, 0),
                               self._product(other._kernel, other.src, trace=graded))

    # -- comparison / io ----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, TotalForm)
                and self.variables == other.variables
                and self.frame_rank == other.frame_rank
                and self.src == other.src
                and self.dst == other.dst
                and self.total_degree == other.total_degree
                and self._kernel == other._kernel)

    def __repr__(self):
        return f"TotalForm(s={self.total_degree}, blocks={sorted(self._kernel[1])})"

    def to_json(self):
        return {"total_degree": self.total_degree, "terms": [
            {"block": list(key), "index": list(mi), "row": r, "col": c, "coeff": str(poly)}
            for key, entries in sorted(self.blocks.items())
            for mi, mat in sorted(entries.items())
            for r, row in enumerate(mat) for c, poly in enumerate(row) if poly.terms]}

    @classmethod
    def from_json(cls, data, variables, frame_rank, src, dst):
        blocks: dict = {}
        seen = set()
        for term in data.get("terms", []):
            i, l, j = term["block"]
            if not 0 <= i <= frame_rank:
                raise ParseError(f"block {[i, l, j]} has form degree {i}, outside "
                                 f"0..{frame_rank}")
            mi = tuple(term["index"])
            entries = blocks.setdefault((i, l, j), {})
            mat = entries.get(mi)
            if mat is None:
                mat = [[Poly.zero(variables) for _ in range(src.rank(l))]
                       for _ in range(dst.rank(j))]
                entries[mi] = mat
            row, col = term["row"], term["col"]
            if row >= dst.rank(j) or col >= src.rank(l):
                raise ParseError(f"term ({row}, {col}) of block {[i, l, j]} is out of "
                                 f"range for a {dst.rank(j)} x {src.rank(l)} block")
            if (i, l, j, mi, row, col) in seen:
                raise ParseError(f"term ({row}, {col}) of block {[i, l, j]} at index "
                                 f"{list(mi)} is given twice")
            seen.add((i, l, j, mi, row, col))
            mat[row][col] = Poly.parse(term["coeff"], variables)
        return cls(variables, frame_rank, src, dst, data["total_degree"], blocks)


@cache
def _fiber(rank):
    """R^rank[0], the target of a Form of fiber dimension `rank`."""
    return GradedBundle([(0, rank)])


_LINE = _fiber(1)   # R[0], the source of every Form


class Form(TotalForm):
    """A degree-k form over the frame with values in a fixed rank-d fiber.

    It is the one-column TotalForm from R[0] to R^d[0]: the k-form is the
    block (k, 0, 0), one d x 1 matrix per multi-index, kept in the same
    stored integers, so `+`, `-`, `scale`, `==`, `is_zero` and d_A are the
    kernel's.  `coeffs[(multi_index, fiber_index)]`, built on first read
    as `blocks` is, lists the nonzero coefficients as Polys in sorted
    order.  Scalar forms have fiber_dim 1 and fiber index 0.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, variables, frame_rank, degree, fiber_dim, coeffs=None):
        variables, frame_rank = tuple(variables), int(frame_rank)
        degree, fiber_dim = int(degree), int(fiber_dim)
        if degree < 0 or fiber_dim < 1:
            raise MismatchError("degree must be >= 0 and fiber_dim >= 1")
        entries = {}
        for (mi, alpha), poly in (coeffs or {}).items():
            mi = tuple(mi)
            if len(mi) != degree:
                raise MismatchError(f"index {mi} has wrong length for degree {degree}")
            if list(mi) != sorted(set(mi)):
                raise MismatchError(f"index {mi} is not strictly ascending")
            if mi and (mi[0] < 0 or mi[-1] >= frame_rank):
                raise MismatchError(f"index {mi} out of range for rank {frame_rank}")
            if not 0 <= alpha < fiber_dim:
                raise MismatchError(f"fiber index {alpha} out of range")
            if not isinstance(poly, Poly):
                poly = Poly.constant(variables, poly)
            if poly.variables != variables:
                raise MismatchError("coefficient variables differ from the form's chart")
            rows = entries.get(mi)
            if rows is None:
                rows = entries[mi] = [[] for _ in range(fiber_dim)]
            if rows[alpha]:   # the key given twice, as a list and as a tuple
                poly = poly + rows[alpha].pop()[1]
            if poly.terms:
                rows[alpha].append((0, poly))
        entries = {mi: rows for mi, rows in entries.items() if any(rows)}
        self.variables, self.frame_rank, self.total_degree = variables, frame_rank, degree
        self.src, self.dst, self._blocks = _LINE, _fiber(fiber_dim), None
        self._kernel = (_from_polys({(degree, 0, 0): entries}, _width(variables))
                        if entries else (1, {}))

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, variables, frame_rank, degree, fiber_dim=1):
        return cls(variables, frame_rank, degree, fiber_dim)

    @classmethod
    def coframe(cls, variables, frame_rank, index):
        """The scalar 1-form dual to frame element e_index."""
        return cls(variables, frame_rank, 1, 1,
                   {((index,), 0): Poly.one(variables)})

    @classmethod
    def function(cls, variables, frame_rank, poly):
        """A 0-form (scalar function)."""
        if not isinstance(poly, Poly):
            poly = Poly.constant(variables, poly)
        return cls(variables, frame_rank, 0, 1, {((), 0): poly})

    @classmethod
    def _from_terms(cls, variables, frame_rank, degree, terms):
        """A scalar Form on engine-built terms {(bitmask, packed monomial):
        value}, each value a nonzero int or Fraction, bitmasks of `degree`
        bits in range, fields below 2^FIELD: stored with no Poly
        and no check."""
        D, entries = lcm(*{q.denominator for q in terms.values()}), {}
        for (mask, mono), q in sorted(terms.items()):
            n = q.numerator * (D // q.denominator)
            if variables:
                entries.setdefault(mask, [[(0, [])]])[0][0][1].append((mono, n))
            else:
                entries[mask] = [[(0, n)]]
        return cls._unchecked(variables, frame_rank, _LINE, _LINE, degree,
                              (D, {(degree, 0, 0): entries} if entries else {}))

    def _numerators(self):
        """The terms {(bitmask, packed monomial): numerator} of a scalar
        Form, integers over its stored D, read off its stored form."""
        return {(mask, m): n
                for entries in self._kernel[1].values() for mask, rows in entries.items()
                for m, n in (rows[0][0][1] if self.variables else [(0, rows[0][0][1])])}

    def _terms(self):
        """The terms {(bitmask, packed monomial): Fraction} of a scalar Form:
        the inverse of `_from_terms`."""
        D = self._kernel[0]
        return {key: Fraction(n, D) for key, n in self._numerators().items()}

    # -- structure ------------------------------------------------------

    @property
    def degree(self):
        return self.total_degree

    @property
    def fiber_dim(self):
        return self.dst.summands[0][1]

    @property
    def coeffs(self):
        """{(multi-index, fiber index): Poly}, the nonzero coefficients in
        sorted order, built on first read."""
        coeffs = getattr(self, "_coeffs", None)
        if coeffs is None:
            poly = _polys(self.variables, self._kernel[0])
            coeffs = self._coeffs = dict(sorted(
                ((_indices(mask), alpha), poly(row[0][1])) for entries in self._kernel[1].values()
                for mask, rows in entries.items() for alpha, row in enumerate(rows) if row))
        return coeffs

    def get(self, mi, alpha=0):
        return self.coeffs.get((tuple(mi), alpha), Poly.zero(self.variables))

    def multi_indices(self):
        return sorted(_indices(mask) for entries in self._kernel[1].values() for mask in entries)

    # -- arithmetic -------------------------------------------------------

    def wedge(self, other):
        """Wedge product; at least one factor must be scalar (fiber_dim 1).

        The kernel's composition product, with the vector-valued factor on
        the left: a scalar p-form left of a vector-valued q-form swaps past
        it by graded commutativity, alpha ^ beta = (-1)^(pq) beta ^ alpha.
        """
        if not isinstance(other, Form):
            raise MismatchError("wedge expects a Form")
        if self.variables != other.variables or self.frame_rank != other.frame_rank:
            raise MismatchError("wedge factors live over different frames")
        if self.fiber_dim != 1 and other.fiber_dim != 1:
            raise MismatchError("wedge of two vector-valued forms is undefined")
        left, right = (other, self) if other.fiber_dim > 1 else (self, other)
        kernel = left._product(right._kernel, _LINE)
        if left is other and self.degree * other.degree % 2:
            kernel = _combine([(-1, kernel)], _LINE, _width(self.variables))
        return Form._unchecked(self.variables, self.frame_rank, _LINE, left.dst,
                               self.degree + other.degree, kernel)

    # -- io ---------------------------------------------------------------

    def __repr__(self):
        return f"Form(deg={self.degree}, fiber={self.fiber_dim}, {render_form(self)!r})"

    def to_json(self):
        terms = [{"index": list(mi), "fiber": a, "coeff": str(poly)}
                 for (mi, a), poly in self.coeffs.items()]
        return {"degree": self.degree, "terms": terms}

    @classmethod
    def from_json(cls, data, variables, frame_rank, fiber_dim=1):
        coeffs = {}
        for term in data.get("terms", []):
            key = (tuple(term["index"]), term.get("fiber", 0))
            if key in coeffs:
                raise ParseError(f"form term at index {list(key[0])}, fiber {key[1]} "
                                 "is given twice")
            coeffs[key] = Poly.parse(term["coeff"], variables)
        return cls(variables, frame_rank, data["degree"], fiber_dim, coeffs)


def render_form(form):
    """Human-readable rendering; frame indices are displayed 1-based."""
    if form.is_zero():
        return "0"
    pieces = []
    for (mi, alpha) in sorted(form.coeffs):
        poly = form.coeffs[(mi, alpha)]
        wedge = "^".join(f"eps{i + 1}" for i in mi) if mi else "1"
        body = f"({poly})*{wedge}" if len(poly.terms) > 1 or mi == () else f"{poly}*{wedge}"
        if form.fiber_dim > 1:
            body += f"(x)f{alpha + 1}"
        pieces.append(body)
    return " + ".join(pieces)



# ----------------------------------------------------------------------
# derived operations


def gtr(total_form):
    """Graded trace: (-1)^l tr on each diagonal block; returns a scalar Form."""
    return total_form.wedge_trace(TotalForm.identity(
        total_form.variables, total_form.frame_rank, total_form.src), graded=True)


def tr(total_form):
    """Plain fiberwise trace (no degree signs); scalar Form output."""
    return total_form.wedge_trace(TotalForm.identity(
        total_form.variables, total_form.frame_rank, total_form.src))


# ----------------------------------------------------------------------
# annihilator ideals and adapted-frame restriction


def ideal_membership(form, indices, p):
    """Whether every term of `form` has at least p indices outside `indices`.

    That is membership in the p-th power of the annihilator ideal of the
    subbundle spanned by the listed frame elements.
    """
    inside = set(indices)
    return all(sum(i not in inside for i in _indices(mask)) >= p
               for entries in form._kernel[1].values() for mask in entries)


def restrict_total_form(total_form, indices):
    indices = tuple(sorted(indices))
    lookup = {g: i for i, g in enumerate(indices)}
    blocks: dict = {}
    for key, entries in total_form.blocks.items():
        kept = {}
        for mi, mat in entries.items():
            if all(i in lookup for i in mi):
                kept[tuple(lookup[i] for i in mi)] = mat
        if kept:
            blocks[key] = kept
    return TotalForm(total_form.variables, len(indices), total_form.src,
                     total_form.dst, total_form.total_degree, blocks)


def extend_total_form(total_form, indices, frame_rank):
    indices = tuple(sorted(indices))
    if len(indices) != total_form.frame_rank:
        raise MismatchError("subframe size does not match the form's frame rank")
    blocks: dict = {}
    for key, entries in total_form.blocks.items():
        blocks[key] = {tuple(indices[i] for i in mi): mat
                       for mi, mat in entries.items()}
    return TotalForm(total_form.variables, frame_rank, total_form.src,
                     total_form.dst, total_form.total_degree, blocks)
