"""Connections up to homotopy over an algebroid frame; a linear connection is one.

A `ConnectionUpToHomotopy` is a family of grading-preserving connections
(one per summand) plus a total-degree-1 TotalForm D.  Write Gamma =
sum_i e^i (x) G_i for every summand's connection form, the diagonal
(1, z, z) TotalForm blocks taken straight from the matrices, and
Omega = Gamma + D.  Every differential here is d_A plus a wedge with Omega:

    cal_D    = d_A + hat(Omega),
    R        = d_A Omega + Omega ^ Omega,
    d^End K  = d_A K + [Omega, K],

with d_A on each matrix entry, added inside a kernel pass (see
`TotalForm._product`) and skipped on an algebroid without anchor and
brackets.  An element of the total complex is a one-column total form x
from R[0] into the bundle, and `apply` is the one kernel pass Omega ^ x
that adds d_A x into its own accumulators.  `d_end` is two kernel passes,
d_A K + Omega ^ K with d_A fused and K ^ Omega, summed once.  The Koszul
formula on frame elements and the operator commutator stay in the tests as
the oracles of all three.

A `LinearConnection` is the connection up to homotopy on R^rank[0] with
D = 0, an ordinary A-connection: it adds only its Christoffel data,
nabla_{e_i} f_alpha = sum_beta Gamma[i][alpha][beta] f_beta, kept
source-major as the wire carries it, and its one summand's connection is
itself.  `connection_form` is the one place that transposes it, to G_i with
the target index as row: it writes Gamma's stored integers in one pass over
the Christoffel Polys, the transpose done by indexing, with no Poly matrix
built.  So its d_nabla on a bundle-valued Form is `apply`, and its
curvature, `chernweil.transgression` and the square-zero report read the
one Omega the class builds.  The covariant derivative of a
section by Polys lives in the tests as the oracle.

Omega is written once per connection, in one pass: D's stored form with
Gamma's (1, z, z) matrices added in over the joint denominator, D's other
blocks kept as D's own dicts, and one gcd pass for lowest terms
(`_gamma_plus`); it stores what `connection_form() + D` stores, key order
included.

The curvature R is the unique total form with hat(R) = cal_D^2, computed
once per connection in two kernel passes.  The basis sections are the
columns of the identity, so pass 1 is hat(Omega) on all of them at once
(d_A of a constant 0-form is zero), and it must return Omega's stored form
exactly.  Its accumulators (`TotalForm._accumulate`) are compared with
Omega's stored numerators as they stand (`_stores`); only if they differ
are they brought to lowest terms, and if that is not Omega either,
InternalCheckError names the first block and multi-index where they
differ.  Pass 2 is hat(Omega) on Omega's stored form, the images pass 1
checked, with d_A of them added into its own accumulators (see
`TotalForm._product`); a degree-0 section takes no Koszul sign, so its
squares are R's columns as they stand.  The formula d_A Omega + Omega ^
Omega stays in the tests as R's oracle, and no curvature calls
`TotalForm.wedge`, `Algebroid.d_total` or `+`.  Connections do not change
after construction: each builds Omega once, Gamma straight from the
checked Christoffel matrices, and keeps its checked curvature.  Powers of
the curvature are traced in `chernweil.power_traces`; the tests keep the
full product R^i as its oracle.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import InternalCheckError, MismatchError, ParseError
from .forms import (
    GradedBundle,
    TotalForm,
    _LINE,
    _canonical,
    _combine,
    _fiber,
    _width,
    mat_is_zero,
    mat_mul,  # noqa: F401  perfbench/test_perfbench.py patches it through this module
    mat_zero,
)
from .ring import Poly


class ConnectionUpToHomotopy:
    """cal_D = d_nabla + hat(D) on forms valued in a graded bundle."""

    __slots__ = ("algebroid", "bundle", "_nablas", "D", "_omega", "_curvature")

    def __init__(self, algebroid, bundle, nablas, D=None):
        self.algebroid = algebroid
        self.bundle = bundle
        self._nablas = dict(nablas)
        for z, r in bundle.summands:
            conn = self._nablas.get(z)
            if conn is None:
                raise MismatchError(f"missing connection for summand degree {z}")
            if conn.rank != r:
                raise MismatchError(f"connection rank mismatch on summand {z}")
            if conn.algebroid != algebroid:
                raise MismatchError("summand connection over a different algebroid")
        if set(self._nablas) != set(bundle.degrees()):
            raise MismatchError("connections must match the bundle degrees exactly")
        if D is None:
            D = TotalForm.zero(algebroid.variables, algebroid.rank,
                               bundle, bundle, 1)
        if D.total_degree != 1 or D.src != bundle or D.dst != bundle:
            raise MismatchError("D must be an End-valued total form of degree 1")
        if D.variables != algebroid.variables or D.frame_rank != algebroid.rank:
            raise MismatchError("D lives over the wrong frame")
        self.D = D
        self._omega = None       # Gamma + D, built once
        self._curvature = None   # computed and checked once

    @property
    def nablas(self):
        """The linear connection of each summand, by degree."""
        return self._nablas

    @property
    def variables(self):
        return self.algebroid.variables

    def is_normalized(self):
        return all(i != 1 or l != j for (i, l, j) in self.D._kernel[1])

    # -- operator ------------------------------------------------------------

    def apply(self, x):
        """cal_D x = d_A x + Omega ^ x for x of total degree s, a one-column
        total form from R[0] into the bundle; one kernel pass that adds d_A x
        into its accumulators.  The image, of total degree s + 1, has x's
        class, so a Form comes back as a Form."""
        omega = self.omega()
        omega._check_composable(x)
        if x.src != _LINE:
            raise MismatchError("cal_D acts on one-column forms from R[0]")
        return type(x)._unchecked(x.variables, x.frame_rank, x.src, x.dst, x.total_degree + 1,
                                  omega._product(x._kernel, x.src, d_a=self.algebroid))

    # -- curvature ------------------------------------------------------------

    def connection_form(self):
        """Gamma of every summand's connection, in the diagonal (1, z, z) blocks.

        G_i is the transpose of the source-major Christoffel matrix of frame
        element i, which `LinearConnection` has checked, so entry (beta,
        alpha) of G_i is christoffel[i][alpha][beta]: the stored form is
        written in one pass over the matrices, the transpose done by
        indexing, over one D, the lcm of every coefficient's denominator.
        Those are in lowest terms, so D and the numerators have gcd 1, and
        nothing is reduced.  Zero entries, zero matrices and empty blocks
        are left out.
        """
        mats = [(z, self.nablas[z].christoffel) for z in self.bundle.degrees()]
        D = lcm(*{q.denominator for _, christoffel in mats for mat in christoffel
                  for row in mat for p in row for q in p.terms.values()})
        chart = bool(self.variables)
        view = {}
        for z, christoffel in mats:
            entries = {}
            for i, mat in enumerate(christoffel):
                span = range(len(mat))
                if chart:
                    rows = [[(a, [(m, q.numerator * (D // q.denominator))
                                  for m, q in sorted(mat[a][b].terms.items())])
                             for a in span if mat[a][b].terms] for b in span]
                else:
                    rows = [q.numerator * (D // q.denominator) if (q := mat[a][b].terms.get(0))
                            else 0 for b in span for a in span]
                if any(rows):
                    entries[1 << i] = rows
            if entries:
                view[(1, z, z)] = entries
        return TotalForm._unchecked(self.variables, self.algebroid.rank, self.bundle,
                                    self.bundle, 1, (D, view))

    def omega(self):
        """Omega = Gamma + D, the degree-1 total form of cal_D; built once and
        kept.

        Gamma comes from `connection_form`, and Omega is D's stored form with
        Gamma's (1, z, z) matrices added in (`_gamma_plus`), the stored form
        `connection_form() + D` gives, key order included: D's blocks that
        Gamma lacks are D's own dicts, shared when D's numerators need no
        rescale to the joint denominator and the sum no reduction; only the
        masks the two share are summed.  With D zero, Omega is Gamma.
        """
        if self._omega is None:
            gamma = self.connection_form()
            self._omega = gamma if self.D.is_zero() else gamma._same_shape(
                _gamma_plus(gamma._kernel, self.D._kernel, self.bundle,
                            _width(self.variables)))
        return self._omega

    def curvature(self):
        """The unique total form R with hat(R) = cal_D squared, in two kernel passes.

        Section e_(l, alpha) is column alpha of block (0, l, l) of the
        identity, so pass 1, cal_D on all of them, is hat(Omega) on the
        identity, and it must return Omega's stored form.  Its accumulators
        (`TotalForm._accumulate`) are compared with Omega's stored
        numerators over D_Omega * 1 (`_stores`); only when they differ are
        they brought to lowest terms by `_canonical`, and if that is not
        Omega either, InternalCheckError names the first block and
        multi-index where they differ.  Pass 2 is cal_D on those images,
        Omega's stored form, with d_A of them added into its accumulators;
        column alpha of block (s, l, j) of the result is part (s, j) of
        cal_D^2 e_(l, alpha), which is R as it stands.  The result is kept
        on the instance.
        """
        if self._curvature is None:
            omega, algebroid, bundle = self.omega(), self.algebroid, self.bundle
            width = _width(self.variables)
            identity = TotalForm.identity(self.variables, algebroid.rank, bundle)
            D, cells = omega._accumulate(identity._kernel, bundle)
            if not _stores(omega._kernel, D, cells, width):
                images = omega._same_shape(_canonical(D, cells, width))
                if images != omega:
                    block, mi = _first_difference(images, omega)
                    raise InternalCheckError(
                        "curvature check failed: cal_D on the basis sections differs "
                        f"from Omega at block {block}, multi-index {mi}")
            self._curvature = TotalForm._unchecked(
                self.variables, algebroid.rank, bundle, bundle, 2,
                omega._product(omega._kernel, bundle, d_a=algebroid))
        return self._curvature

    # -- induced End differential ------------------------------------------------

    def d_end(self, K):
        """Unhat of [cal_D, hat(K)]: d_A K + [Omega, K] = (d_A K + Omega ^ K)
        - (-1)^|K| K ^ Omega, two kernel passes, the first with d_A fused."""
        omega, bundle = self.omega(), self.bundle
        omega._check_composable(K)
        if K.src != bundle:
            raise MismatchError("d_end expects an End-valued total form")
        sign = 1 if K.total_degree % 2 else -1
        kernel = _combine([(1, omega._product(K._kernel, bundle, d_a=self.algebroid)),
                           (sign, K._product(omega._kernel, bundle))],
                          bundle, _width(self.variables))
        return TotalForm._unchecked(K.variables, K.frame_rank, bundle, bundle,
                                    K.total_degree + 1, kernel)


class LinearConnection(ConnectionUpToHomotopy):
    """An A-connection on a trivialized bundle, the connection up to homotopy
    on R^rank[0] with D = 0, given by its Christoffel data: christoffel[i]
    [alpha][beta] is the e_beta coefficient of nabla_{e_i} f_alpha, and the
    rank is read off the matrices."""

    __slots__ = ("rank", "christoffel")

    def __init__(self, algebroid, christoffel):
        self.algebroid = algebroid
        poly = algebroid.chart.poly
        christoffel = tuple(tuple(tuple(poly(p) for p in row) for row in m)
                            for m in christoffel)
        if len(christoffel) != algebroid.rank:
            raise MismatchError("one Christoffel matrix per frame element required")
        self.rank = len(christoffel[0])
        if self.rank < 1:
            raise MismatchError("bundle rank must be positive")
        for m in christoffel:
            if len(m) != self.rank or any(len(row) != self.rank for row in m):
                raise MismatchError("Christoffel matrices must be rank x rank")
        self.christoffel = christoffel
        self.bundle = _fiber(self.rank)
        self.D = TotalForm.zero(algebroid.variables, algebroid.rank,
                                self.bundle, self.bundle, 1)
        self._omega = None
        self._curvature = None

    @property
    def nablas(self):
        """{0: self}, built on each read: stored, it would make every linear
        connection a reference cycle."""
        return {0: self}

    @classmethod
    def zero(cls, algebroid, rank):
        return cls(algebroid, [mat_zero(rank, rank, algebroid.variables)] * algebroid.rank)

    def is_flat(self):
        return self.curvature().is_zero()

    # -- comparison / io --------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, LinearConnection)
                and self.algebroid == other.algebroid
                and self.christoffel == other.christoffel)

    @classmethod
    def from_json(cls, data, algebroid, rank):
        if data.get("rank", rank) != rank:
            raise ParseError(f"connection rank {data['rank']} differs from the rank "
                             f"{rank} of the bundle it connects")
        christoffel = [mat_zero(rank, rank, algebroid.variables)] * algebroid.rank
        seen = set()
        for entry in data.get("christoffel", []):
            i = entry["frame"]
            if i >= algebroid.rank:
                raise ParseError(f"christoffel frame {i} is out of range for "
                                 f"an algebroid of rank {algebroid.rank}")
            if i in seen:
                raise ParseError(f"christoffel frame {i} is given twice")
            seen.add(i)
            matrix = entry["matrix"]
            if len(matrix) != rank or any(len(row) != rank for row in matrix):
                raise MismatchError(f"christoffel matrix at frame {i} has wrong shape")
            christoffel[i] = [[Poly.parse(p, algebroid.variables) for p in row]
                              for row in matrix]
        return cls(algebroid, christoffel)


def induced_hom_connection(src, dst):
    """The Hom(E, E') connection of a pair of connections on one algebroid.

    Hom fibers are flattened row-major: phi_{mu alpha} sits at index
    mu * rank(E) + alpha.  (nabla^Hom phi)(e) = nabla'(phi e) - phi(nabla e),
    so the source (nu, a) has Gamma'[nu][mu] at the target (mu, a) and
    -Gamma[b][a] at the target (nu, b).
    """
    if src.algebroid is not dst.algebroid and src.algebroid != dst.algebroid:
        raise MismatchError("hom connection needs both factors over one algebroid")
    A = src.algebroid
    r_s, r_d = src.rank, dst.rank
    hom_rank = r_s * r_d
    zero = Poly.zero(A.variables)
    christoffel = []
    for i in range(A.rank):
        g = [[zero] * hom_rank for _ in range(hom_rank)]
        gs, gd = src.christoffel[i], dst.christoffel[i]
        for nu in range(r_d):
            for a in range(r_s):
                row = g[nu * r_s + a]
                for mu in range(r_d):
                    row[mu * r_s + a] = row[mu * r_s + a] + gd[nu][mu]
                for b in range(r_s):
                    row[nu * r_s + b] = row[nu * r_s + b] - gs[b][a]
        christoffel.append(g)
    return LinearConnection(A, christoffel)


def _gamma_plus(gamma, part, bundle, width):
    """The stored form of Gamma + D from Gamma's stored form `gamma`, all of
    whose blocks are (1, z, z), and D's `part`, over lcm(D_Gamma, D_D).

    Each operand is rescaled to the joint denominator, a matrix kept as it
    stands at scale 1; the masks of a block both have are summed, and a
    zero sum and an empty block are dropped.  D's blocks that Gamma lacks
    are D's own dicts at scale 1.  Keys come in the order of `_combine` on
    the two: Gamma's blocks, then D's others, and within a block Gamma's
    masks, then D's others.  One gcd pass over the result keeps it in
    lowest terms; in the rare case the sum reduces, `_combine` divides it.
    """
    (d_gamma, gamma_view), (d_part, part_view) = gamma, part
    D = lcm(d_gamma, d_part)
    s_gamma, s_part = D // d_gamma, D // d_part
    view = {}
    for key, entries in gamma_view.items():
        theirs, block = part_view.get(key, {}), {}
        for mask, rows in entries.items():
            other = theirs.get(mask)
            rows = (_scaled(rows, s_gamma, width) if other is None
                    else _summed(rows, s_gamma, other, s_part, width))
            if any(rows):
                block[mask] = rows
        for mask, rows in theirs.items():
            if mask not in entries:
                block[mask] = _scaled(rows, s_part, width)
        if block:
            view[key] = block
    for key, entries in part_view.items():
        if key not in gamma_view:
            view[key] = entries if s_part == 1 else {
                mask: _scaled(rows, s_part, width) for mask, rows in entries.items()}
    g = D
    for entries in view.values():
        for rows in entries.values():
            if g == 1:
                break
            g = gcd(g, *(n for row in rows for _, entry in row for _, n in entry)
                    if width else rows)
    return (D, view) if g == 1 else _combine([(1, (D, view))], bundle, width)


def _scaled(rows, factor, width):
    """A stored matrix times the integer `factor`: `rows` itself at 1, else new lists."""
    if factor == 1:
        return rows
    if width:
        return [[(c, [(m, factor * n) for m, n in entry]) for c, entry in row]
                for row in rows]
    return [factor * n for n in rows]


def _summed(left, s_left, right, s_right, width):
    """s_left * left + s_right * right of two stored matrices, in new lists;
    on a chart, sparse rows with entries in (column, monomial) order and
    zero entries dropped."""
    if not width:
        return [s_left * m + s_right * n for m, n in zip(left, right)]
    out = []
    for row_left, row_right in zip(left, right):
        acc: dict = {}
        for factor, row in ((s_left, row_left), (s_right, row_right)):
            for c, entry in row:
                for m, n in entry:
                    acc[c, m] = acc.get((c, m), 0) + factor * n
        row, last = [], None
        for (c, m), n in sorted(acc.items()):
            if n:
                if c != last:
                    last, pairs = c, []
                    row.append((c, pairs))
                pairs.append((m, n))
        out.append(row)
    return out


def _stores(kernel, D, cells, width):
    """Whether the accumulators `cells` of a kernel pass over D, as
    `TotalForm._accumulate` returns them, hold the stored form `kernel` as it
    stands: the same D and, block by block and mask by mask, the same
    numerators, a chart matrix's sparse rows read into the accumulator's
    flat keys ((row * cols + col) << width) + monomial.  For `kernel` in
    lowest terms this implies `_canonical(D, cells, width) == kernel`; the
    converse fails only on a zero accumulator or a reducible D."""
    d_kernel, view = kernel
    if D != d_kernel or len(cells) != len(view):
        return False
    for key, (_, cols, tgt) in cells.items():
        entries = view.get(key)
        if entries is None:
            return False
        if not width:
            if tgt != entries:
                return False
        elif len(tgt) != len(entries) or any(
                tgt.get(mask) != {((r * cols + c) << width) + m: n
                                  for r, row in enumerate(rows)
                                  for c, entry in row for m, n in entry}
                for mask, rows in entries.items()):
            return False
    return True


def _first_difference(left, right):
    """The first (block, multi-index), in sorted order, where two total forms differ."""
    for block in sorted(set(left.blocks) | set(right.blocks)):
        entries = left.block(*block).keys() | right.block(*block).keys()
        for mi in sorted(entries):
            # no zero matrix is stored, so a missing one differs from any other
            if left.block(*block).get(mi) != right.block(*block).get(mi):
                return block, mi
    return None, None


def cuth_difference(new, old):
    """The degree-1 total form cal_D' - cal_D = Omega' - Omega of two cuths on one bundle.

    The difference of two connections is tensorial, so this is an honest
    TotalForm.
    """
    if new.bundle != old.bundle or new.algebroid != old.algebroid:
        raise MismatchError("cuth difference needs matching bundles")
    return new.omega() - old.omega()


def extend_connection(algebroid, subframe, nabla_sub, complement=None):
    """Extend a connection over a subframe to the whole frame.

    `nabla_sub` lives over algebroid.restrict(subframe); the Christoffel
    matrices of complement frame directions come from `complement` (a map
    global index -> source-major matrix) and default to zero.
    """
    if nabla_sub.algebroid.rank != subframe.rank:
        raise MismatchError("subframe connection has the wrong frame rank")
    complement = complement or {}
    zero_mat = mat_zero(nabla_sub.rank, nabla_sub.rank, algebroid.variables)
    local = dict(zip(subframe.indices, nabla_sub.christoffel))
    return LinearConnection(algebroid, [local[i] if i in local else complement.get(i, zero_mat)
                                        for i in range(algebroid.rank)])


def restrict_connection(nabla, subframe):
    """Restrict a connection to the frame directions of a bracket-closed subframe."""
    sub_algebroid = nabla.algebroid.restrict(subframe)
    return LinearConnection(sub_algebroid, [nabla.christoffel[i] for i in subframe.indices])


def two_term_connection(algebroid, nabla0, nabla1, partial_map, omega_block):
    """Assemble the 2-term cuth with D = hat(partial) + hat(omega).

    partial_map: matrix (rank E1 x rank E0) for the degree-1 bundle map
    E_0 -> E_1 (block (0, 0, 1)); omega_block: {multi-index: matrix} data
    of a 2-form valued in Hom(E_1, E_0) (block (2, 1, 0)).  Either may be
    None.
    """
    bundle = GradedBundle([(0, nabla0.rank), (1, nabla1.rank)])
    blocks = {}
    if partial_map is not None and not mat_is_zero(partial_map):
        blocks[(0, 0, 1)] = {(): tuple(tuple(row) for row in partial_map)}
    if omega_block:
        entries = {mi: tuple(tuple(row) for row in mat)
                   for mi, mat in omega_block.items() if not mat_is_zero(mat)}
        if entries:
            blocks[(2, 1, 0)] = entries
    D = TotalForm(algebroid.variables, algebroid.rank, bundle, bundle, 1, blocks)
    return ConnectionUpToHomotopy(algebroid, bundle,
                                  {0: nabla0, 1: nabla1}, D)
