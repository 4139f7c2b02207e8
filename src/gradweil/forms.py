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

`TotalForm.wedge`, `TotalForm.wedge_trace` and `TotalForm.apply` share one
integer kernel pass, `TotalForm._product`.  Each operand is read through a
view with one common denominator D and integer numerators over it; an
element is viewed as a Hom(R[0], E)-valued form, part (t, z) as block
(t, 0, z), so `apply` makes one pass over all its parts.  A product adds
plain integers into its cells, and each output term is Fraction(n, D_left *
D_right), built once; on the point base a cell is one integer.  The trace
of a product (`wedge_trace`, which `tr` and `gtr` run against the identity)
forms only the diagonal entries of the diagonal blocks.  A TotalForm does
not change after construction, so its view is built once, on first use:
per block, each multi-index as a bitmask (bit k for frame index k) with
its matrix as sparse rows.  Overlapping indices are skipped by `m1 & m2`
and the merge sign is a parity of popcounts (`_merge_sign`), for
`Form.wedge` too; stored keys stay ascending tuples.  Results the engine
builds itself go through `Form._unchecked` and `TotalForm._unchecked`,
which trust keys and shapes and only drop zero coefficients, zero matrices
and empty blocks.  The Poly-matrix helpers (`mat_mul`, `mat_add`, ...) stay
public for Christoffel algebra and the tests' references.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import lcm
from operator import add

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


def sort_with_sign(indices):
    """Sort an index tuple, returning (sign, sorted) or (0, None) on repeats."""
    indices = tuple(indices)
    if len(set(indices)) != len(indices):
        return 0, None
    inversions = sum(a > b for a, b in itertools.combinations(indices, 2))
    return (-1 if inversions % 2 else 1), tuple(sorted(indices))


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


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_neg(a):
    return tuple(tuple(-x for x in row) for row in a)


def mat_scale(scalar, a):
    return tuple(tuple(scalar * x for x in row) for row in a)


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
# the integer kernel of TotalForm.wedge, wedge_trace and apply


def _numerators(poly, D, point):
    """D * poly in integers: a numerator on the point base, else (exponent, numerator) pairs."""
    if point:
        return poly.terms[()].numerator * (D // poly.terms[()].denominator)
    return [(e, q.numerator * (D // q.denominator)) for e, q in poly.terms.items()]


def _view(blocks, point):
    """The kernel view of {key: {multi-index: rows}}, each row a list of the
    (column, Poly) pairs of its nonzero entries: the common denominator D of
    every coefficient, and per key the (bitmask, rows) pair of each
    multi-index, each entry as (column, `_numerators` over D)."""
    D = lcm(*{q.denominator for entries in blocks.values() for rows in entries.values()
              for row in rows for _, p in row for q in p.terms.values()})
    return D, {key: [(_mask(mi), [[(c, _numerators(p, D, point)) for c, p in row]
                                  for row in rows])
                     for mi, rows in entries.items()]
               for key, entries in blocks.items()}


def _accumulate(cells, sign, left, right, point, diagonal):
    """cells += sign * (left @ right) for sparse rows `left` and `right`.

    A cell is an integer numerator over the product of the operands'
    denominators on the point base, and {exponent: numerator} on a chart, so
    a product of two terms costs an integer multiply and add.  With
    `diagonal` only the entries c == r are formed, all into cells[r][0].
    """
    for r, row in enumerate(left):
        out = cells[r]
        for k, lterms in row:
            for c, rterms in right[k]:
                if diagonal:
                    if c != r:
                        continue
                    c = 0
                if point:
                    out[c] += sign * lterms * rterms
                    continue
                cell = out[c]
                for e1, n1 in lterms:
                    n1 *= sign
                    for e2, n2 in rterms:
                        e = tuple(map(add, e1, e2))
                        cell[e] = cell.get(e, 0) + n1 * n2


def _cell_poly(cell, variables, D):
    """The Poly of one `_accumulate` cell over D; cancelled terms are dropped."""
    if not variables:
        return Poly._unchecked(variables, {(): Fraction(cell, D)} if cell else {})
    return Poly._unchecked(variables, {e: Fraction(n, D) for e, n in cell.items() if n})


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


_LINE = GradedBundle([(0, 1)])   # the source of an element viewed as a total form


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

    @classmethod
    def section(cls, variables, frame_rank, components):
        """A 0-form with vector values (a section in the given frame)."""
        coeffs = {((), a): p for a, p in enumerate(components)}
        return cls(variables, frame_rank, 0, len(components), coeffs)

    # -- structure ------------------------------------------------------

    def _check_same_shape(self, other):
        if (self.variables, self.frame_rank, self.degree, self.fiber_dim) != (
                other.variables, other.frame_rank, other.degree, other.fiber_dim):
            raise MismatchError("form shapes differ")

    def is_zero(self):
        return not self.coeffs

    def get(self, mi, alpha=0):
        return self.coeffs.get((tuple(mi), alpha), Poly.zero(self.variables))

    def fiber_vector(self, mi):
        """Coefficient vector over the fiber at an ascending multi-index."""
        return [self.get(mi, a) for a in range(self.fiber_dim)]

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

    @classmethod
    def basis_section(cls, variables, frame_rank, bundle, summand, alpha):
        rank = bundle.rank(summand)
        comps = [Poly.one(variables) if a == alpha else Poly.zero(variables)
                 for a in range(rank)]
        form = Form.section(variables, frame_rank, comps)
        return cls.single(bundle, form, summand)

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
    every block.
    """

    __slots__ = ("variables", "frame_rank", "src", "dst", "total_degree", "blocks",
                 "_kernel")

    def __init__(self, variables, frame_rank, src, dst, total_degree, blocks=None):
        self.variables = tuple(variables)
        self.frame_rank = int(frame_rank)
        self.src = src
        self.dst = dst
        self.total_degree = int(total_degree)
        clean = {}
        if blocks:
            for (i, l, j), entries in blocks.items():
                if i < 0 or i > self.frame_rank:
                    continue
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
                        block_clean[mi] = tuple(tuple(row) for row in mat)
                if block_clean:
                    clean[(i, l, j)] = block_clean
        self.blocks = clean
        self._kernel = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def _unchecked(cls, variables, frame_rank, src, dst, total_degree, blocks):
        """A TotalForm on engine-built blocks (valid keys, tuple-of-tuple Poly
        matrices): zero matrices and empty blocks are dropped, nothing else."""
        out = cls.__new__(cls)
        out.variables, out.frame_rank = variables, frame_rank
        out.src, out.dst, out.total_degree = src, dst, total_degree
        out.blocks = {}
        for key, entries in blocks.items():
            kept = {mi: mat for mi, mat in entries.items()
                    if any(p.terms for row in mat for p in row)}
            if kept:
                out.blocks[key] = kept
        out._kernel = None
        return out

    @classmethod
    def zero(cls, variables, frame_rank, src, dst, total_degree):
        return cls(variables, frame_rank, src, dst, total_degree)

    @classmethod
    def identity(cls, variables, frame_rank, bundle):
        blocks = {}
        for z, r in bundle.summands:
            blocks[(0, z, z)] = {(): mat_identity(r, variables)}
        return cls(variables, frame_rank, bundle, bundle, 0, blocks)

    # -- structure ----------------------------------------------------------

    def _check_same_shape(self, other):
        if (self.variables, self.frame_rank, self.src, self.dst,
                self.total_degree) != (other.variables, other.frame_rank,
                                       other.src, other.dst, other.total_degree):
            raise MismatchError("total form shapes differ")

    def is_zero(self):
        return not self.blocks

    def block(self, i, l, j):
        return self.blocks.get((i, l, j), {})

    def _kernel_view(self):
        """The `_view` of the blocks, built on first use and kept in `_kernel`."""
        if self._kernel is None:
            self._kernel = _view({key: {mi: [[(c, p) for c, p in enumerate(row) if p.terms]
                                             for row in mat]
                                        for mi, mat in entries.items()}
                                  for key, entries in self.blocks.items()},
                                 not self.variables)
        return self._kernel

    def block_matrix(self, block, mi):
        i, l, j = block
        entries = self.blocks.get(block)
        mat = entries.get(tuple(mi)) if entries else None
        if mat is None:
            return mat_zero(self.dst.rank(j), self.src.rank(l), self.variables)
        return mat

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TotalForm):
            return NotImplemented
        self._check_same_shape(other)
        blocks = {k: dict(v) for k, v in self.blocks.items()}
        for key, entries in other.blocks.items():
            tgt = blocks.setdefault(key, {})
            for mi, mat in entries.items():
                acc = tgt.get(mi)
                tgt[mi] = mat if acc is None else mat_add(acc, mat)
        return TotalForm._unchecked(self.variables, self.frame_rank, self.src,
                                    self.dst, self.total_degree, blocks)

    def __neg__(self):
        blocks = {k: {mi: mat_neg(m) for mi, m in v.items()}
                  for k, v in self.blocks.items()}
        return TotalForm._unchecked(self.variables, self.frame_rank, self.src,
                                    self.dst, self.total_degree, blocks)

    def __sub__(self, other):
        if not isinstance(other, TotalForm):
            return NotImplemented
        return self + (-other)

    def scale(self, scalar):
        if not isinstance(scalar, Poly):
            scalar = Poly.constant(self.variables, scalar)
        blocks = {k: {mi: mat_scale(scalar, m) for mi, m in v.items()}
                  for k, v in self.blocks.items()}
        return TotalForm._unchecked(self.variables, self.frame_rank, self.src,
                                    self.dst, self.total_degree, blocks)

    def _product(self, right, right_src, trace=None):
        """The one kernel pass of hat(self) o hat(right), for a kernel `_view`
        `right` with blocks (i2, l, m) and source bundle `right_src`.

        Returns (D, cells): cells[(i1 + i2, l, j)][merged mask] are the rows
        of `_accumulate` cells over D, the product of the two denominators.
        The sign of a pair is the merge sign times the Koszul factor
        (-1)^(f1 i2), f1 the fiber degree of the left block.  With `trace`
        not None only the diagonal entries of the diagonal blocks l == j are
        formed, times (-1)^l when `trace` is true: cells[None][merged mask]
        holds their sum in [0][0], every row aliasing one cell.
        """
        D1, left = self._kernel_view()
        D2, right = right
        point, diagonal = not self.variables, trace is not None
        height = max(r for _, r in self.dst.summands) if diagonal else 0
        cells: dict = {}
        for (i1, m1, j), entries1 in left.items():
            f1, rows = j - m1, self.dst.rank(j)
            for (i2, l, m2), entries2 in right.items():
                if m2 != m1 or (diagonal and l != j):
                    continue
                koszul = -1 if (f1 * i2 + (l if trace else 0)) % 2 else 1
                tgt = cells.setdefault(None if diagonal else (i1 + i2, l, j), {})
                cols = right_src.rank(l)
                for mask1, lrows in entries1:
                    for mask2, rrows in entries2:
                        if mask1 & mask2:
                            continue
                        merged = mask1 | mask2
                        acc = tgt.get(merged)
                        if acc is None:
                            acc = tgt[merged] = (
                                [[0 if point else {}]] * height if diagonal
                                else [[0] * cols for _ in range(rows)] if point
                                else [[{} for _ in range(cols)] for _ in range(rows)])
                        _accumulate(acc, koszul * _merge_sign(mask1, mask2),
                                    lrows, rrows, point, diagonal)
        return D1 * D2, cells

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
        D, cells = self._product(other._kernel_view(), other.src)
        # the constructor drops zero matrices and empty blocks
        blocks = {key: {_indices(merged): tuple(tuple(_cell_poly(c, self.variables, D)
                                                      for c in row) for row in acc)
                        for merged, acc in tgt.items()} for key, tgt in cells.items()}
        return TotalForm._unchecked(self.variables, self.frame_rank, other.src,
                                    self.dst, self.total_degree + other.total_degree,
                                    blocks)

    def wedge_trace(self, other, graded=False):
        """tr(self.wedge(other)), or gtr when `graded`, in one kernel pass that
        forms only the diagonal entries of the diagonal blocks."""
        self._check_composable(other)
        if other.src != self.dst:
            raise MismatchError("a trace needs an endomorphism-valued product")
        D, cells = self._product(other._kernel_view(), other.src, trace=graded)
        return Form._unchecked(self.variables, self.frame_rank,
                               max(self.total_degree + other.total_degree, 0), 1,
                               {(_indices(m), 0): _cell_poly(acc[0][0], self.variables, D)
                                for m, acc in cells.get(None, {}).items()})

    # -- operator action -----------------------------------------------------

    def apply_part(self, form, source_degree):
        """hat(self) on an E_l-valued t-form; returns a GradedElement over dst.

        Implements the Koszul-signed shuffle action described in the module
        docstring.
        """
        if form.fiber_dim != self.src.rank(source_degree):
            raise MismatchError("form fiber does not match the source summand")
        return self._apply({(form.degree, source_degree): form})

    def apply(self, element):
        """hat(self) on a GradedElement, in one kernel pass over all its parts."""
        if element.bundle != self.src:
            raise MismatchError("element bundle does not match the source bundle")
        return self._apply(element.parts)

    def _apply(self, parts):
        """The kernel pass of `apply` on parts {(t, z): E_z-valued t-form}: the
        part (t, z) is the block (t, 0, z) of a Hom(R[0], E)-valued form."""
        blocks: dict = {}
        for (t, z), form in parts.items():
            if form.variables != self.variables or form.frame_rank != self.frame_rank:
                raise MismatchError("the input form lives over a different chart "
                                    "or frame rank than the total form")
            entries = blocks.setdefault((t, 0, z), {})
            for (mi, alpha), poly in form.coeffs.items():
                rows = entries.get(mi)
                if rows is None:
                    rows = entries[mi] = [[] for _ in range(form.fiber_dim)]
                rows[alpha].append((0, poly))
        D, cells = self._product(_view(blocks, not self.variables), _LINE)
        out = GradedElement(self.variables, self.frame_rank, self.dst)
        for (s, _, j), tgt in cells.items():
            coeffs = {(_indices(merged), beta): _cell_poly(cell, self.variables, D)
                      for merged, acc in tgt.items() for beta, (cell,) in enumerate(acc)}
            part = Form._unchecked(self.variables, self.frame_rank, s, self.dst.rank(j),
                                   coeffs)
            if part.coeffs:
                out.parts[(s, j)] = part
        return out

    # -- comparison / io ----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, TotalForm)
                and self.variables == other.variables
                and self.frame_rank == other.frame_rank
                and self.src == other.src
                and self.dst == other.dst
                and self.total_degree == other.total_degree
                and self.blocks == other.blocks)

    def __repr__(self):
        keys = sorted(self.blocks)
        return f"TotalForm(s={self.total_degree}, blocks={keys})"

    def to_json(self):
        terms = []
        for (i, l, j) in sorted(self.blocks):
            entries = self.blocks[(i, l, j)]
            for mi in sorted(entries):
                mat = entries[mi]
                for r, row in enumerate(mat):
                    for c, poly in enumerate(row):
                        if poly.is_zero():
                            continue
                        terms.append({
                            "block": [i, l, j],
                            "index": list(mi),
                            "row": r,
                            "col": c,
                            "coeff": str(poly),
                        })
        return {"total_degree": self.total_degree, "terms": terms}

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


_identity = cache(TotalForm.identity)   # kept with its kernel view, for the traces


def gtr(total_form):
    """Graded trace: (-1)^l tr on each diagonal block; returns a scalar Form."""
    return total_form.wedge_trace(_identity(
        total_form.variables, total_form.frame_rank, total_form.src), graded=True)


def tr(total_form):
    """Plain fiberwise trace (no degree signs); scalar Form output."""
    return total_form.wedge_trace(_identity(
        total_form.variables, total_form.frame_rank, total_form.src))


def unhat_from_sections(action, variables, frame_rank, src, dst, total_degree):
    """Rebuild a TotalForm from its operator action on basis sections.

    `action(summand, alpha)` must return the GradedElement obtained by
    applying the operator to the alpha-th basis section of E_summand.
    Evaluating on degree-0 sections involves no Koszul sign, so this is the
    exact inverse of the hat map.
    """
    zero = Poly.zero(variables)
    blocks: dict = {}
    for l, rank_l in src.summands:
        for alpha in range(rank_l):
            image = action(l, alpha)
            if image.bundle != dst:
                raise MismatchError("operator image lives in another bundle")
            for (t, j), form in image.parts.items():
                if t + j - l != total_degree:
                    raise MismatchError(
                        f"operator image has inconsistent degree: part (t={t}, z={j}) "
                        f"from source degree {l} under total degree {total_degree}")
                entries = blocks.setdefault((t, l, j), {})
                for (mi, beta), poly in form.coeffs.items():
                    mat = entries.get(mi)
                    if mat is None:
                        mat = entries[mi] = [[zero] * rank_l for _ in range(dst.rank(j))]
                    mat[beta][alpha] = poly   # each (t, j, mi, beta) occurs once
    # the parts of a GradedElement are valid forms, so the blocks need no check
    return TotalForm._unchecked(variables, frame_rank, src, dst, total_degree,
                                {key: {mi: tuple(map(tuple, mat)) for mi, mat in entries.items()}
                                 for key, entries in blocks.items()})


# ----------------------------------------------------------------------
# annihilator ideals and adapted-frame restriction


def ideal_membership(form, indices, p):
    """Whether every term of `form` has at least p indices outside `indices`.

    That is membership in the p-th power of the annihilator ideal of the
    subbundle spanned by the listed frame elements.
    """
    inside = set(indices)
    keys = ([mi for entries in form.blocks.values() for mi in entries]
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
