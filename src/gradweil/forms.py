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

The explicit shuffle enumeration (`shuffles`) is kept around so tests can
evaluate the textbook formula independently of the merge implementation.

`TotalForm.wedge` and `TotalForm.apply_part` share one private matrix
kernel, `_accumulate`.  Every output matrix entry is a single term dict
{exponent: (numerator, denominator)}; sign * p * q of two Poly entries is
added into it with integer arithmetic, and on the point base (no chart
variables) no exponents are added.  Each entry becomes a Poly only at the
end.  A TotalForm does not change after construction, so the kernel reads
it through a view built once, on first use: per block, each multi-index as
a bitmask (bit k for frame index k) with its matrix as sparse term rows.
Overlapping indices are skipped by `m1 & m2` and the merge sign is a parity
of popcounts (`_merge_sign`); stored keys stay ascending tuples.  Results
the engine builds itself (wedge, sums, negation, `apply_part`, d_A) go
through `Form._unchecked` and `TotalForm._unchecked`, which trust keys and
shapes and only drop zero coefficients, zero matrices and empty blocks, so
results stay structurally equal to the checked Poly-matrix product.  The
Poly-matrix helpers (`mat_mul`, `mat_add`, ...) stay public for Christoffel
algebra and the tests' references.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from operator import add

from .errors import MismatchError, ParseError
from .ring import Poly

# ----------------------------------------------------------------------
# multi-index utilities


def merge_indices(left, right):
    """Merge two ascending index tuples.

    Returns (sign, merged) where sign is the parity of the permutation
    sorting left+right, or (0, None) when the tuples overlap.
    """
    if set(left) & set(right):
        return 0, None
    inversions = 0
    for a in left:
        for b in right:
            if b < a:
                inversions += 1
    merged = tuple(sorted(left + right))
    return (-1 if inversions % 2 else 1), merged


def _mask(indices):
    """The bitmask of a multi-index: bit k is set when k is in it."""
    return sum(1 << k for k in indices)


def _indices(mask):
    """The ascending multi-index of a bitmask, lowest bit first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _merge_sign(left, right):
    """The sign of `merge_indices` on bitmasks, 0 when they overlap: each bit
    `low` of `right` passes the bits of `left` above it, left & -low."""
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


def shuffles(l, s):
    """Yield ((positions_left, positions_right), sign) for all (l, s)-shuffles.

    Positions partition range(l + s); sign is the parity of the resulting
    permutation.  Used by test oracles that spell out the shuffle sum.
    """
    universe = range(l + s)
    for left in itertools.combinations(universe, l):
        right = tuple(sorted(set(universe) - set(left)))
        sign = 1 - 2 * (sum(left[j] - j for j in range(l)) % 2)
        yield (left, right), sign


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


def mat_trace(a):
    t = None
    for i, row in enumerate(a):
        t = row[i] if t is None else t + row[i]
    return t


def mat_is_zero(a):
    return all(x.is_zero() for row in a for x in row)


# ----------------------------------------------------------------------
# the matrix kernel of TotalForm.wedge and TotalForm.apply_part


def _terms(poly):
    """The terms of a Poly as (exponent, numerator, denominator) triples."""
    return tuple((e, q.numerator, q.denominator) for e, q in poly.terms.items())


def _sparse_rows(mat):
    """The nonzero entries of a Poly matrix, row by row: (column, terms) pairs."""
    return tuple(tuple((c, _terms(p)) for c, p in enumerate(row) if p.terms)
                 for row in mat)


def _accumulate(cells, sign, left, right, point):
    """cells += sign * (left @ right) for sparse rows `left` and `right`.

    cells[r][c] maps an exponent to an unreduced (numerator, denominator)
    pair with the denominator the lcm of those added, so a product of two
    entries costs a few integer operations and no Poly or Fraction; on the
    point base every exponent is (), so no exponents are added.
    """
    for r, row in enumerate(left):
        out = cells[r]
        for k, lterms in row:
            for c, rterms in right[k]:
                cell = out[c]
                for e1, n1, d1 in lterms:
                    n1 *= sign
                    for e2, n2, d2 in rterms:
                        e = e1 if point else tuple(map(add, e1, e2))
                        n, d = n1 * n2, d1 * d2
                        acc = cell.get(e)
                        if acc is None:
                            cell[e] = (n, d)
                        elif acc[1] == d:
                            cell[e] = (acc[0] + n, d)
                        else:   # over the lcm, so denominators stay small
                            an, ad = acc
                            g = gcd(ad, d)
                            cell[e] = (an * (d // g) + n * (ad // g), ad // g * d)


def _cell_poly(cell, variables):
    """The Poly of one accumulated cell; cancelled terms are dropped."""
    return Poly._unchecked(
        variables, {e: Fraction(n, d) for e, (n, d) in cell.items() if n})


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
        fiber_dim = max(self.fiber_dim, other.fiber_dim)
        degree = self.degree + other.degree
        coeffs = {}
        for (mi1, a1), p1 in self.coeffs.items():
            for (mi2, a2), p2 in other.coeffs.items():
                sign, merged = merge_indices(mi1, mi2)
                if sign == 0:
                    continue
                alpha = a1 if self.fiber_dim > 1 else a2
                prod = p1 * p2 if sign == 1 else -(p1 * p2)
                key = (merged, alpha)
                acc = coeffs.get(key)
                coeffs[key] = prod if acc is None else acc + prod
        return Form._unchecked(self.variables, self.frame_rank, degree, fiber_dim,
                               coeffs)

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
            mi = tuple(term["index"])
            alpha = term.get("fiber", 0)
            coeffs[(mi, alpha)] = Poly.parse(term["coeff"], variables)
        return cls(variables, frame_rank, data["degree"], fiber_dim, coeffs)


def render_form(form, frame_symbol="eps", fiber_symbol="f"):
    """Human-readable rendering; frame indices are displayed 1-based."""
    if form.is_zero():
        return "0"
    pieces = []
    for (mi, alpha) in sorted(form.coeffs):
        poly = form.coeffs[(mi, alpha)]
        wedge = "^".join(f"{frame_symbol}{i + 1}" for i in mi) if mi else "1"
        body = f"({poly})*{wedge}" if len(poly.terms) > 1 or mi == () else f"{poly}*{wedge}"
        if form.fiber_dim > 1:
            body += f"(x){fiber_symbol}{alpha + 1}"
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

    def is_end(self):
        return self.src == self.dst

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
        """Per block, the (bitmask, sparse rows) pair of each multi-index,
        built on first use and kept in `_kernel`."""
        if self._kernel is None:
            self._kernel = {key: tuple((_mask(mi), _sparse_rows(mat))
                                       for mi, mat in entries.items())
                            for key, entries in self.blocks.items()}
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

    def wedge(self, other):
        """Composition product: hat(self.wedge(other)) == hat(self) o hat(other).

        Blockwise it is the shuffle wedge of form parts with matrix
        composition, times the Koszul factor (-1)^(f1 * i2) with f1 the
        fiber degree of the left block and i2 the form degree of the right.
        """
        if not isinstance(other, TotalForm):
            raise MismatchError("wedge expects a TotalForm")
        if self.src != other.dst:
            raise MismatchError("blocks do not compose: src != other.dst")
        if self.variables != other.variables or self.frame_rank != other.frame_rank:
            raise MismatchError("total forms live over different frames")
        point = not self.variables
        right_view = other._kernel_view()
        cells: dict = {}
        for (i1, m1, j), entries1 in self._kernel_view().items():
            f1 = j - m1
            rows = self.dst.rank(j)
            for (i2, l, m2), entries2 in right_view.items():
                if m2 != m1:
                    continue
                koszul = -1 if (f1 * i2) % 2 else 1
                tgt = cells.setdefault((i1 + i2, l, j), {})
                cols = other.src.rank(l)
                for mask1, left in entries1:
                    for mask2, right in entries2:
                        if mask1 & mask2:
                            continue
                        merged = mask1 | mask2
                        acc = tgt.get(merged)
                        if acc is None:
                            acc = tgt[merged] = [[{} for _ in range(cols)]
                                                 for _ in range(rows)]
                        _accumulate(acc, koszul * _merge_sign(mask1, mask2),
                                    left, right, point)
        # the constructor drops zero matrices and empty blocks
        blocks = {key: {_indices(merged): tuple(tuple(_cell_poly(c, self.variables)
                                                      for c in row) for row in acc)
                        for merged, acc in tgt.items()} for key, tgt in cells.items()}
        return TotalForm._unchecked(self.variables, self.frame_rank, other.src,
                                    self.dst, self.total_degree + other.total_degree,
                                    blocks)

    # -- operator action -----------------------------------------------------

    def apply_part(self, form, source_degree):
        """hat(self) on an E_l-valued t-form; returns a GradedElement over dst.

        Implements the Koszul-signed shuffle action described in the module
        docstring.
        """
        l = source_degree
        if form.fiber_dim != self.src.rank(l):
            raise MismatchError("form fiber does not match the source summand")
        out = GradedElement(self.variables, self.frame_rank, self.dst)
        t = form.degree
        point = not self.variables
        # the form as one sparse column per multi-index, rows = fiber index
        columns: dict = {}
        for (mi, alpha), poly in form.coeffs.items():
            column = columns.setdefault(_mask(mi), [()] * form.fiber_dim)
            column[alpha] = ((0, _terms(poly)),)
        for (i, bl, j), entries in self._kernel_view().items():
            if bl != l:
                continue
            koszul = -1 if ((j - l) * t) % 2 else 1
            rows = self.dst.rank(j)
            cells: dict = {}
            for mask1, left in entries:
                for mask2, column in columns.items():
                    if mask1 & mask2:
                        continue
                    merged = mask1 | mask2
                    acc = cells.get(merged)
                    if acc is None:
                        acc = cells[merged] = [[{}] for _ in range(rows)]
                    _accumulate(acc, koszul * _merge_sign(mask1, mask2),
                                left, column, point)
            coeffs = {}
            for merged, acc in cells.items():
                mi = _indices(merged)
                for beta, (cell,) in enumerate(acc):
                    coeffs[(mi, beta)] = _cell_poly(cell, self.variables)
            part = Form._unchecked(self.variables, self.frame_rank, t + i, rows,
                                   coeffs)
            if part.coeffs:
                out.parts[(t + i, j)] = part
        return out

    def apply(self, element):
        """hat(self) on a GradedElement."""
        if element.bundle != self.src:
            raise MismatchError("element bundle does not match the source bundle")
        out = GradedElement(self.variables, self.frame_rank, self.dst)
        for (t, z), form in element.parts.items():
            for (s, j), image in self.apply_part(form, z).parts.items():
                out.accumulate(s, j, image)
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
    return _trace(total_form, graded=True)


def tr(total_form):
    """Plain fiberwise trace (no degree signs); scalar Form output."""
    return _trace(total_form, graded=False)


def _trace(total_form, graded):
    """The sum of the diagonal blocks' traces, times (-1)^l when graded."""
    if not total_form.is_end():
        name = "graded trace" if graded else "trace"
        raise MismatchError(f"{name} needs an endomorphism-valued form")
    coeffs: dict = {}
    for (i, l, j), entries in total_form.blocks.items():
        if l != j:
            continue
        # i == s on diagonal blocks by the total degree invariant
        negate = graded and l % 2
        for mi, mat in entries.items():
            val = -mat_trace(mat) if negate else mat_trace(mat)
            acc = coeffs.get((mi, 0))
            coeffs[(mi, 0)] = val if acc is None else acc + val
    # a negative total degree admits no diagonal blocks: the trace is zero
    return Form._unchecked(total_form.variables, total_form.frame_rank,
                           max(total_form.total_degree, 0), 1, coeffs)


def unhat_from_sections(action, variables, frame_rank, src, dst, total_degree):
    """Rebuild a TotalForm from its operator action on basis sections.

    `action(summand, alpha)` must return the GradedElement obtained by
    applying the operator to the alpha-th basis section of E_summand.
    Evaluating on degree-0 sections involves no Koszul sign, so this is the
    exact inverse of the hat map.
    """
    blocks: dict = {}
    for l, rank_l in src.summands:
        for alpha in range(rank_l):
            image = action(l, alpha)
            for (t, j), form in image.parts.items():
                i = t
                if i + j - l != total_degree:
                    raise MismatchError(
                        f"operator image has inconsistent degree: part (t={t}, z={j}) "
                        f"from source degree {l} under total degree {total_degree}")
                entries = blocks.setdefault((i, l, j), {})
                for (mi, beta), poly in form.coeffs.items():
                    mat = entries.get(mi)
                    if mat is None:
                        mat = [[Poly.zero(variables) for _ in range(rank_l)]
                               for _ in range(dst.rank(j))]
                        entries[mi] = mat
                    mat[beta][alpha] = poly   # each (t, j, mi, beta) occurs once
    return TotalForm(variables, frame_rank, src, dst, total_degree, blocks)


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
