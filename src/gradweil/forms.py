"""Frame-level exterior forms with values in graded vector bundles.

Everything is expressed over a fixed frame e_1..e_r of an anchored bundle
and a polynomial chart base.  A `Form` of degree k stores coefficients on
strictly ascending multi-indices, so the shuffle-sum wedge product reduces
to a merge with an inversion-count sign.  A `TotalForm` is a block matrix
of Hom-valued forms: block (i, l, j) lives in Omega^i(A, Hom(E_l, F_j))
and all blocks share the total degree s = i + j - l.

Sign conventions (load-bearing, do not change casually):

* wedge of scalar coefficients on ascending indices I, J: sign is the
  parity of the merge inversion count of (I, J);
* the operator `hat(K)` of a block (i, l, j) acting on an E_l-valued
  t-form is (-1)^((j-l)*t) times the plain shuffle action.  The Koszul
  factor is what makes the graded trace kill graded commutators; dropping
  it breaks that identity for blocks of odd fiber degree;
* composing hatted operators corresponds to the block wedge with an extra
  (-1)^(f1*i2) where f1 is the fiber degree of the left block and i2 the
  form degree of the right one.

A `TotalForm` is stored in integers, as `_kernel` = (D, view): one
denominator D in lowest terms and, per block, the sparse integer rows of
each multi-index, keyed by its bitmask (bit k for frame index k).  A row
lists the (column, entry) pairs of its nonzero entries in column order; an
entry is a numerator over D, an integer on the point base and ascending
(packed monomial, numerator) pairs on a chart.  A packed monomial is one
integer with a FIELD-bit field per exponent, the first variable in the
highest field, so integer order is exponent-tuple order and a product of
monomials is one integer addition.  An exponent enters the packed layer
only below EXPONENT_LIMIT (2^32; `_from_polys` and the algebroid's packed
d_A shifts refuse larger ones with MismatchError), so no chain of products
a task builds carries into the next field.  Nothing zero is stored, so
equality compares stored forms.  Polys and exponent tuples appear only at
the boundary: the checked constructor (so `from_json`) reads Poly
matrices, and `blocks` (built on first read), `to_json` and the Forms of
`wedge_trace` and `apply` are built from the integers; the Polys built from
one form share one Poly per value on the point base, so no code writes into
a Poly's terms (a test of the package source checks it).

`wedge`, `wedge_trace` and `apply` are one kernel pass, `_product`, which
adds integers over D_left * D_right and stores the result in lowest terms;
`+`, `-`, `scale` and `Algebroid.d_total` work on the stored form too.
Given an algebroid, `_product` is the fused pass d_A Y + hat(X) o hat(Y)
of the curvature routes and of the connection's operator (`_apply` with an
algebroid): d_A of the right operand goes into the same
accumulators before the one `_canonical`, over the joined denominator
D_right * lcm(D_left, d_A's denominator).  On the point base each output
matrix is rows of integer cells; on a chart it is one flat dict keyed by
((row * cols + col) << width) + monomial, which `_canonical` sorts once
and splits back into rows.  N elements are one Hom(R^N[0], E)-valued
operand, element n as column n and its part (t, z) in block (t, 0, z), so
`_apply` is one pass over all their parts.  The trace of a product
(`wedge_trace`, behind `tr` and `gtr`) forms only the diagonal entries of
the diagonal blocks.  Overlapping indices are skipped by `m1 & m2` and the
merge sign is a parity of popcounts (`_merge_sign`), for `Form.wedge` too.
Of the Poly-matrix helpers, `mat_zero`, `mat_identity` and `mat_is_zero`
serve the package; no package code multiplies Poly matrices, and `mat_mul`
stays public only for `perfbench/test_perfbench.py`, which patches it
through `connections`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .errors import MismatchError, ParseError
from .ring import Poly

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


def _merge_sign(left, right):
    """The sign of the permutation that sorts the indices of `left` followed
    by those of `right`, as bitmasks, or 0 when they overlap: each bit `low`
    of `right` passes the bits of `left` above it, left & -low."""
    if left & right:
        return 0
    inversions = 0
    while right:
        low = right & -right
        inversions += (left & -low).bit_count()
        right ^= low
    return -1 if inversions & 1 else 1


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

FIELD = 64                    # bits per variable in a packed monomial
# exponents entering the packed layer stay below this, so a sum of up to 2^32
# of them, as chains of products and d_A build, never carries into the next field
EXPONENT_LIMIT = 1 << 32
_FIELD_MASK = (1 << FIELD) - 1


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


def _check_exponents(polys):
    """Refuse (MismatchError) a term of the Polys `polys` whose exponent the
    packed layer cannot hold: one at or above EXPONENT_LIMIT."""
    for p in polys:
        for expo in p.terms:
            if max(expo, default=0) >= EXPONENT_LIMIT:
                raise MismatchError(f"exponent {max(expo)} in {p} is at or above the "
                                    f"limit 2^{EXPONENT_LIMIT.bit_length() - 1} of a "
                                    "packed monomial")


def _from_polys(blocks, width):
    """The stored form of nonzero {key: {multi-index: rows}}, each row the
    (column, Poly) pairs of its nonzero entries, with monomials `width` bits
    wide (0 on the point base); D is the lcm of denominators."""
    D = lcm(*{q.denominator for entries in blocks.values() for rows in entries.values()
              for row in rows for _, p in row for q in p.terms.values()})

    def entry(p):
        if not width:
            q = p.terms[()]
            return q.numerator * (D // q.denominator)
        _check_exponents((p,))
        return sorted((_pack(e), q.numerator * (D // q.denominator)) for e, q in p.terms.items())

    return D, {key: {_mask(mi): [[(c, entry(p)) for c, p in row] for row in rows]
                     for mi, rows in entries.items()}
               for key, entries in blocks.items()}


def _polys(variables, D):
    """The function from an entry over D, or any (packed monomial, numerator)
    pairs on a chart, to its Poly; on the point base one Poly per distinct
    numerator, shared through a dict that lives as long as the function."""
    if variables:
        nvars = len(variables)
        return lambda pairs: Poly._unchecked(
            variables, {_unpack(m, nvars): Fraction(n, D) for m, n in pairs if n})
    polys = {}

    def poly(n):
        out = polys.get(n)
        if out is None:
            out = polys[n] = Poly._unchecked(variables, {(): Fraction(n, D)} if n else {})
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
    """acc += sign * (left @ right) for sparse rows `left` and `right`.  On a
    chart the term x^e1 * x^e2 of cell (r, c) adds into the flat key
    ((r * cols + c) << width) + e1 + e2, so a product of two terms is an
    integer multiply and two adds."""
    if not width:
        for out, row in zip(acc, left):
            for k, n1 in row:
                n1 *= sign
                for c, n2 in right[k]:
                    out[c] += n1 * n2
        return
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


def _trace(cell, sign, left, right, width):
    """cell + sign * tr(left @ right), forming only the diagonal entries; on a
    chart `cell` is {packed monomial: numerator}."""
    for r, row in enumerate(left):
        for k, lterms in row:
            for c, rterms in right[k]:
                if c == r and not width:
                    cell += sign * lterms * rterms
                elif c == r:
                    for e1, n1 in lterms:
                        n1 *= sign
                        for e2, n2 in rterms:
                            e = e1 + e2
                            cell[e] = cell.get(e, 0) + n1 * n2
    return cell


def _canonical(D, cells, width):
    """The stored form of cells over D, {key: (rows, cols, {mask: acc})}
    with accumulators from `_cells`: rows keep their nonzero entries, zero
    matrices and empty blocks are dropped, and D and every numerator are
    divided by their gcd.  A chart accumulator is sorted once: its keys come
    in (row, column, monomial) order and split back into rows."""
    view, g, low = {}, D, (1 << width) - 1
    for key, (nrows, cols, tgt) in cells.items():
        entries = {}
        for mask, acc in tgt.items():
            if not width:
                rows = [[pair for pair in enumerate(row) if pair[1]] for row in acc]
            else:
                rows, last = [[] for _ in range(nrows)], -1
                for k in sorted(acc):
                    n = acc[k]
                    if n:
                        cell = k >> width
                        if cell != last:
                            last, pairs = cell, []
                            rows[cell // cols].append((cell % cols, pairs))
                        pairs.append((k & low, n))
            if any(rows):
                entries[mask] = rows
                if g > 1:   # zeros in a chart accumulator leave the gcd as it is
                    g = gcd(g, *(acc.values() if width else
                                 (n for row in rows for _, n in row)))
        if entries:
            view[key] = entries
    if g > 1:   # an empty view keeps g == D, and D // g == 1
        view = {key: {mask: [[(c, [(e, m // g) for e, m in n] if width else n // g)
                              for c, n in row] for row in rows]
                      for mask, rows in entries.items()}
                for key, entries in view.items()}
    return D // g, view


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


class Form:
    """A degree-k form over the frame with values in a fixed rank-d fiber.

    Coefficients live in `coeffs[(multi_index, fiber_index)]` with strictly
    ascending multi-indices; zero coefficients are never stored, so equality
    is structural.  Scalar forms have fiber_dim 1 and fiber index 0.
    """

    __slots__ = ("variables", "frame_rank", "degree", "fiber_dim", "coeffs")

    def __init__(self, variables, frame_rank, degree, fiber_dim, coeffs=None):
        self.variables = tuple(variables)
        self.frame_rank = int(frame_rank)
        self.degree = int(degree)
        self.fiber_dim = int(fiber_dim)
        if self.degree < 0 or self.fiber_dim < 1:
            raise MismatchError("degree must be >= 0 and fiber_dim >= 1")
        clean = {}
        if coeffs:
            for (mi, alpha), poly in coeffs.items():
                mi = tuple(mi)
                if len(mi) != self.degree:
                    raise MismatchError(f"index {mi} has wrong length for degree {self.degree}")
                if list(mi) != sorted(set(mi)):
                    raise MismatchError(f"index {mi} is not strictly ascending")
                if mi and (mi[0] < 0 or mi[-1] >= self.frame_rank):
                    raise MismatchError(f"index {mi} out of range for rank {self.frame_rank}")
                if not 0 <= alpha < self.fiber_dim:
                    raise MismatchError(f"fiber index {alpha} out of range")
                if not isinstance(poly, Poly):
                    poly = Poly.constant(self.variables, poly)
                if poly.variables != self.variables:
                    raise MismatchError("coefficient variables differ from the form's chart")
                if not poly.is_zero():
                    key = (mi, alpha)
                    acc = clean.get(key)
                    poly = poly if acc is None else acc + poly
                    if poly.is_zero():
                        clean.pop(key, None)
                    else:
                        clean[key] = poly
        self.coeffs = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def _unchecked(cls, variables, frame_rank, degree, fiber_dim, coeffs):
        """A Form on engine-built coefficients (valid keys, Poly values on the
        `variables` tuple): zero ones are dropped, nothing is checked."""
        out = cls.__new__(cls)
        out.variables, out.frame_rank = variables, frame_rank
        out.degree, out.fiber_dim = degree, fiber_dim
        out.coeffs = {key: poly for key, poly in coeffs.items() if poly.terms}
        return out

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

    # -- structure ------------------------------------------------------

    def _check_same_shape(self, other):
        if (self.variables, self.frame_rank, self.degree, self.fiber_dim) != (
                other.variables, other.frame_rank, other.degree, other.fiber_dim):
            raise MismatchError("form shapes differ")

    def is_zero(self):
        return not self.coeffs

    def get(self, mi, alpha=0):
        return self.coeffs.get((tuple(mi), alpha), Poly.zero(self.variables))

    def multi_indices(self):
        return sorted({mi for mi, _ in self.coeffs})

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        self._check_same_shape(other)
        coeffs = dict(self.coeffs)
        for key, poly in other.coeffs.items():
            acc = coeffs.get(key)
            coeffs[key] = poly if acc is None else acc + poly
        return Form._unchecked(self.variables, self.frame_rank, self.degree,
                               self.fiber_dim, coeffs)

    def __neg__(self):
        return Form._unchecked(self.variables, self.frame_rank, self.degree,
                               self.fiber_dim,
                               {k: -p for k, p in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def scale(self, scalar):
        """Multiply by a Poly or rational scalar."""
        if not isinstance(scalar, Poly):
            scalar = Poly.constant(self.variables, scalar)
        return Form._unchecked(self.variables, self.frame_rank, self.degree,
                               self.fiber_dim,
                               {k: scalar * p for k, p in self.coeffs.items()})

    def wedge(self, other):
        """Wedge product; at least one factor must be scalar (fiber_dim 1).

        The scalar factor's coefficients multiply the other factor's fiber
        values; index merging carries the shuffle sign.
        """
        if not isinstance(other, Form):
            raise MismatchError("wedge expects a Form")
        if self.variables != other.variables or self.frame_rank != other.frame_rank:
            raise MismatchError("wedge factors live over different frames")
        if self.fiber_dim != 1 and other.fiber_dim != 1:
            raise MismatchError("wedge of two vector-valued forms is undefined")
        right = [(_mask(mi), a, p) for (mi, a), p in other.coeffs.items()]
        coeffs = {}
        for (mi1, a1), p1 in self.coeffs.items():
            mask1 = _mask(mi1)
            for mask2, a2, p2 in right:
                sign = _merge_sign(mask1, mask2)
                if sign == 0:
                    continue
                prod = p1 * p2 if sign == 1 else -(p1 * p2)
                key = (_indices(mask1 | mask2), a1 if self.fiber_dim > 1 else a2)
                acc = coeffs.get(key)
                coeffs[key] = prod if acc is None else acc + prod
        return Form._unchecked(self.variables, self.frame_rank,
                               self.degree + other.degree,
                               max(self.fiber_dim, other.fiber_dim), coeffs)

    # -- comparison / io --------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Form)
                and self.variables == other.variables
                and self.frame_rank == other.frame_rank
                and self.degree == other.degree
                and self.fiber_dim == other.fiber_dim
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"Form(deg={self.degree}, fiber={self.fiber_dim}, {render_form(self)!r})"

    def to_json(self):
        terms = [
            {"index": list(mi), "fiber": a, "coeff": str(self.coeffs[(mi, a)])}
            for (mi, a) in sorted(self.coeffs)
        ]
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


class GradedElement:
    """An element of the total complex: Forms labelled by (form degree, summand)."""

    __slots__ = ("variables", "frame_rank", "bundle", "parts")

    def __init__(self, variables, frame_rank, bundle, parts=None):
        self.variables = tuple(variables)
        self.frame_rank = int(frame_rank)
        self.bundle = bundle
        self.parts = {}
        if parts:
            for (t, z), form in parts.items():
                self.accumulate(t, z, form)

    def accumulate(self, t, z, form):
        """Add a t-form valued in E_z into the part (t, z), in place."""
        if form.is_zero():
            return
        if form.degree != t or form.fiber_dim != self.bundle.rank(z):
            raise MismatchError("part shape does not match its (degree, summand) label")
        key = (t, z)
        if key in self.parts:
            acc = self.parts[key] + form
            if acc.is_zero():
                del self.parts[key]
            else:
                self.parts[key] = acc
        else:
            self.parts[key] = form

    @classmethod
    def single(cls, bundle, form, summand):
        return cls(form.variables, form.frame_rank, bundle,
                   {(form.degree, summand): form})

    def __add__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        if self.bundle != other.bundle:
            raise MismatchError("graded elements live in different bundles")
        out = GradedElement(self.variables, self.frame_rank, self.bundle,
                            dict(self.parts))
        for (t, z), form in other.parts.items():
            out.accumulate(t, z, form)
        return out

    def __neg__(self):
        return GradedElement(self.variables, self.frame_rank, self.bundle,
                             {k: -f for k, f in self.parts.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        return GradedElement(self.variables, self.frame_rank, self.bundle,
                             {k: f.scale(scalar) for k, f in self.parts.items()})

    def is_zero(self):
        return not self.parts

    def __eq__(self, other):
        return (isinstance(other, GradedElement)
                and self.bundle == other.bundle
                and self.parts == other.parts)

    def __repr__(self):
        inner = ", ".join(f"(t={t},z={z}): {render_form(f)}"
                          for (t, z), f in sorted(self.parts.items()))
        return f"GradedElement({inner})"


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
        """A TotalForm of this one's shape on the stored form `kernel`."""
        return TotalForm._unchecked(self.variables, self.frame_rank, self.src, self.dst,
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

    def _check_same_shape(self, other):
        if (self.variables, self.frame_rank, self.src, self.dst,
                self.total_degree) != (other.variables, other.frame_rank,
                                       other.src, other.dst, other.total_degree):
            raise MismatchError("total form shapes differ")

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
        self._check_same_shape(other)
        if other.is_zero():
            return self
        return self._same_shape(_combine([(1, self._kernel), (factor, other._kernel)],
                                         self.src, _width(self.variables)))

    def scale(self, scalar):
        """Multiply by a rational number (or a constant Poly)."""
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
        l == j are formed, times (-1)^l when `trace` is true, and the result
        is (D, {merged mask: cell}), each cell their sum over D.  With an
        algebroid `d_a` whose d_A is not zero, and self End-valued on the
        target of `right`, d_A of `right` is added into the same accumulators
        (`Algebroid._d_into`): d_A Y + hat(self) o hat(Y) in one pass, over
        D_right * lcm(D_left, _d_den), the product's terms scaled by lcm /
        D_left and d_A's by lcm / _d_den.
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
        for (i1, m1, j), entries1 in left.items():
            f1, rows = j - m1, self.dst.rank(j)
            for (i2, l, m2), entries2 in right_view.items():
                if m2 != m1 or (diagonal and l != j):
                    continue
                koszul = -scale if (f1 * i2 + (l if trace else 0)) % 2 else scale
                cols = right_src.rank(l)
                tgt = cells.setdefault(None if diagonal else (i1 + i2, l, j), (rows, cols, {}))[2]
                for mask1, lrows in entries1.items():
                    for mask2, rrows in entries2.items():
                        if mask1 & mask2:
                            continue
                        merged, sign = mask1 | mask2, koszul * _merge_sign(mask1, mask2)
                        if diagonal:
                            tgt[merged] = _trace(tgt.get(merged, {} if width else 0), sign,
                                                 lrows, rrows, width)
                            continue
                        acc = tgt.get(merged)
                        if acc is None:
                            acc = tgt[merged] = _cells(rows, cols, width)
                        _accumulate(acc, sign, lrows, rrows, cols, width)
        if diagonal:
            return D1 * D2, cells[None][2] if cells else {}
        return _canonical(D1 * D2, cells, width)

    def _check_composable(self, other):
        if not isinstance(other, TotalForm):
            raise MismatchError("wedge expects a TotalForm")
        if self.src != other.dst:
            raise MismatchError("blocks do not compose: src != other.dst")
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
        """tr(self.wedge(other)), or gtr when `graded`, in one kernel pass that
        forms only the diagonal entries of the diagonal blocks."""
        self._check_composable(other)
        if other.src != self.dst:
            raise MismatchError("a trace needs an endomorphism-valued product")
        D, cells = self._product(other._kernel, other.src, trace=graded)
        poly = _polys(self.variables, D)
        return Form._unchecked(self.variables, self.frame_rank,
                               max(self.total_degree + other.total_degree, 0), 1,
                               {(_indices(m), 0): poly(cell.items() if self.variables else cell)
                                for m, cell in cells.items()})

    # -- operator action -----------------------------------------------------

    def apply(self, element):
        """hat(self) on a GradedElement, in one kernel pass over all its parts."""
        if element.bundle != self.src:
            raise MismatchError("element bundle does not match the source bundle")
        return self._apply([element.parts])[0]

    def _apply(self, columns, d_a=None):
        """hat(self) on each of several elements, in one kernel pass.

        `columns` lists the parts {(t, z): E_z-valued t-form} of N elements.
        Element n is column n of a Hom(R^N[0], E)-valued form, its part
        (t, z) in the block (t, 0, z), so the product is one pass over every
        part of every element.  Returns the N images, GradedElements over dst.
        With an algebroid `d_a`, self End-valued, the pass adds d_A of every
        part into its accumulators (see `_product`): d_A x + hat(self)(x).
        """
        blocks: dict = {}
        for n, parts in enumerate(columns):
            for (t, z), form in parts.items():
                if form.variables != self.variables or form.frame_rank != self.frame_rank:
                    raise MismatchError("the input form lives over a different chart "
                                        "or frame rank than the total form")
                entries = blocks.setdefault((t, 0, z), {})
                for (mi, alpha), poly in form.coeffs.items():
                    rows = entries.get(mi)
                    if rows is None:
                        rows = entries[mi] = [[] for _ in range(form.fiber_dim)]
                    rows[alpha].append((n, poly))
        D, view = self._product(_from_polys(blocks, _width(self.variables)),
                                GradedBundle([(0, len(columns))]), d_a=d_a)
        poly = _polys(self.variables, D)
        out = [GradedElement(self.variables, self.frame_rank, self.dst) for _ in columns]
        for (s, _, j), entries in view.items():
            coeffs = [{} for _ in columns]   # part (s, j) of each image
            for mask, rows in entries.items():
                mi = _indices(mask)
                for beta, row in enumerate(rows):
                    for n, entry in row:
                        coeffs[n][(mi, beta)] = poly(entry)
            for image, part in zip(out, coeffs):
                if part:
                    image.parts[(s, j)] = Form._unchecked(self.variables, self.frame_rank, s,
                                                          self.dst.rank(j), part)
        return out

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


# ----------------------------------------------------------------------
# derived operations


def graded_commutator(k1, k2):
    """[K1, K2] = K1 ^ K2 - (-1)^(|K1| |K2|) K2 ^ K1 with total degrees."""
    sign = -1 if (k1.total_degree * k2.total_degree) % 2 else 1
    swapped = k2.wedge(k1)
    if sign == 1:
        return k1.wedge(k2) - swapped
    return k1.wedge(k2) + swapped


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
    keys = ([_indices(mask) for entries in form._kernel[1].values() for mask in entries]
            if isinstance(form, TotalForm) else [mi for mi, _ in form.coeffs])
    return all(sum(i not in inside for i in mi) >= p for mi in keys)


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
