"""Linear connections and connections up to homotopy over an algebroid frame.

A `LinearConnection` stores Christoffel data: nabla_{e_i} f_alpha =
sum_beta Gamma[i][alpha][beta] f_beta.  Internally the per-frame matrices
are kept target-major (G_i[beta][alpha] = that coefficient) so that a
covariant derivative acts on coefficient vectors as rho_i + G_i.

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
that adds d_A x into its own accumulators.  A linear connection is the
one-summand case with D = 0, and its d_nabla is `apply` on a Form.
`d_end` is two kernel passes, d_A K + Omega ^ K with d_A fused and
K ^ Omega, summed once.  The Koszul formula on frame elements and the
operator commutator stay in the tests as the oracles of all three.

The curvature R is the unique total form with hat(R) = cal_D^2, computed
once per connection in two kernel passes.  The basis sections are the
columns of the identity, so pass 1 is hat(Omega) on all of them at once
(d_A of a constant 0-form is zero), and it must return Omega's stored form
exactly: if it does not, InternalCheckError names the first block and
multi-index where they differ.  Pass 2 is hat(Omega) on those images with
d_A of the images added into its own accumulators (see
`TotalForm._product`); a degree-0 section takes no Koszul sign, so its
squares are R's columns as they stand.  The formula d_A Omega + Omega ^
Omega stays in the tests as R's oracle, and no curvature calls
`TotalForm.wedge`, `Algebroid.d_total` or `+`.  Connections do not change
after construction: a connection up to homotopy builds Omega once, Gamma
straight from the checked Christoffel matrices, and keeps its checked
curvature, and a linear connection keeps its one-summand connection up to
homotopy, so its d_nabla, its curvature and `chernweil.transgression` read
one Omega.  Powers of the curvature are traced in `chernweil.power_traces`;
the tests keep the full product R^i as its oracle.
"""

from __future__ import annotations

from .errors import InternalCheckError, MismatchError, ParseError
from .forms import (
    GradedBundle,
    TotalForm,
    _LINE,
    _combine,
    _width,
    mat_is_zero,
    mat_mul,  # noqa: F401  perfbench/test_perfbench.py patches it through this module
    mat_zero,
)
from .ring import Poly


class LinearConnection:
    """An A-connection on a trivialized bundle, given by Christoffel matrices."""

    __slots__ = ("algebroid", "rank", "mats", "_cuth")

    def __init__(self, algebroid, rank, mats):
        self.algebroid = algebroid
        self.rank = int(rank)
        if self.rank < 1:
            raise MismatchError("bundle rank must be positive")
        mats = tuple(tuple(tuple(self._as_poly(p) for p in row) for row in m)
                     for m in mats)
        if len(mats) != algebroid.rank:
            raise MismatchError("one Christoffel matrix per frame element required")
        for m in mats:
            if len(m) != self.rank or any(len(row) != self.rank for row in m):
                raise MismatchError("Christoffel matrices must be rank x rank")
        self.mats = mats
        self._cuth = None   # the one-summand cuth, built once

    def _as_poly(self, p):
        if isinstance(p, Poly):
            if p.variables != self.algebroid.variables:
                raise MismatchError("Christoffel entries live on the wrong chart")
            return p
        if isinstance(p, str):
            return Poly.parse(p, self.algebroid.variables)
        return Poly.constant(self.algebroid.variables, p)

    @classmethod
    def from_christoffel(cls, algebroid, gamma):
        """Build from source-major data: gamma[i][alpha][beta].

        nabla_{e_i} f_alpha = sum_beta gamma[i][alpha][beta] f_beta, which is
        the transpose of the internal target-major storage.
        """
        mats = [list(map(list, zip(*m))) for m in gamma]
        rank = len(gamma[0]) if gamma else 0
        return cls(algebroid, rank, mats)

    @classmethod
    def zero(cls, algebroid, rank):
        z = Poly.zero(algebroid.variables)
        mats = [[[z for _ in range(rank)] for _ in range(rank)]
                for _ in range(algebroid.rank)]
        return cls(algebroid, rank, mats)

    def christoffel(self):
        """Source-major Christoffel data (the serialization orientation)."""
        return [list(map(list, zip(*m))) for m in self.mats]

    @property
    def variables(self):
        return self.algebroid.variables

    # -- covariant derivative ---------------------------------------------

    def apply(self, i, components):
        """nabla_{e_i} of a section given by its coefficient vector."""
        if len(components) != self.rank:
            raise MismatchError("section has the wrong number of components")
        g = self.mats[i]
        out = []
        for beta in range(self.rank):
            acc = self.algebroid.anchor_apply(i, components[beta])
            for alpha in range(self.rank):
                acc = acc + g[beta][alpha] * components[alpha]
            out.append(acc)
        return out

    def apply_section(self, direction, components):
        """nabla_u for a section direction u given by frame components."""
        out = [Poly.zero(self.variables) for _ in range(self.rank)]
        for i, u_i in enumerate(direction):
            if u_i.is_zero():
                continue
            step = self.apply(i, components)
            out = [acc + u_i * v for acc, v in zip(out, step)]
        return out

    # -- connection differential -------------------------------------------

    def _connection(self):
        """The one-summand connection up to homotopy on this bundle in degree
        0, built once; it keeps its Omega and its curvature."""
        if self._cuth is None:
            self._cuth = ConnectionUpToHomotopy.from_linear(self)
        return self._cuth

    def d(self, form):
        """d_nabla w = cal_D w for the one-summand cuth on this bundle."""
        return self._connection().apply(form)

    # -- curvature -----------------------------------------------------------

    def curvature(self):
        """R_nabla = d_A Gamma + Gamma ^ Gamma, a TotalForm with the block (2, 0, 0).

        The curvature of the one-summand connection up to homotopy on this
        bundle in degree 0, which keeps it.
        """
        return self._connection().curvature()

    def is_flat(self):
        return self.curvature().is_zero()

    # -- comparison / io --------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, LinearConnection)
                and self.algebroid == other.algebroid
                and self.rank == other.rank
                and self.mats == other.mats)

    @classmethod
    def from_json(cls, data, algebroid, rank=None):
        if rank is not None and data.get("rank", rank) != rank:
            raise ParseError(f"connection rank {data['rank']} differs from the rank "
                             f"{rank} of the bundle it connects")
        rank = rank if rank is not None else data.get("rank")
        if rank is None:
            raise MismatchError("connection payload needs a bundle rank")
        zero = Poly.zero(algebroid.variables)
        gamma = [[[zero for _ in range(rank)] for _ in range(rank)]
                 for _ in range(algebroid.rank)]
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
            gamma[i] = [[Poly.parse(p, algebroid.variables) for p in row]
                        for row in matrix]
        return cls.from_christoffel(algebroid, gamma)


def induced_hom_connection(src, dst):
    """The Hom(E, E') connection of a pair of connections on one algebroid.

    Hom fibers are flattened row-major: phi_{mu alpha} sits at index
    mu * rank(E) + alpha.  (nabla^Hom phi)(e) = nabla'(phi e) - phi(nabla e),
    i.e. G^Hom acts as M -> G' M - M G on matrices.
    """
    if src.algebroid is not dst.algebroid and src.algebroid != dst.algebroid:
        raise MismatchError("hom connection needs both factors over one algebroid")
    A = src.algebroid
    r_s, r_d = src.rank, dst.rank
    hom_rank = r_s * r_d
    zero = Poly.zero(A.variables)
    mats = []
    for i in range(A.rank):
        g = [[zero for _ in range(hom_rank)] for _ in range(hom_rank)]
        gs, gd = src.mats[i], dst.mats[i]
        for mu in range(r_d):
            for alpha in range(r_s):
                row = mu * r_s + alpha
                for beta in range(r_d):
                    g[row][beta * r_s + alpha] = g[row][beta * r_s + alpha] + gd[mu][beta]
                for delta in range(r_s):
                    g[row][mu * r_s + delta] = g[row][mu * r_s + delta] - gs[delta][alpha]
        mats.append(g)
    return LinearConnection(A, hom_rank, mats)


class ConnectionUpToHomotopy:
    """cal_D = d_nabla + hat(D) on forms valued in a graded bundle."""

    __slots__ = ("algebroid", "bundle", "nablas", "D", "_omega", "_curvature")

    def __init__(self, algebroid, bundle, nablas, D=None):
        self.algebroid = algebroid
        self.bundle = bundle
        self.nablas = dict(nablas)
        for z, r in bundle.summands:
            conn = self.nablas.get(z)
            if conn is None:
                raise MismatchError(f"missing connection for summand degree {z}")
            if conn.rank != r:
                raise MismatchError(f"connection rank mismatch on summand {z}")
            if conn.algebroid != algebroid:
                raise MismatchError("summand connection over a different algebroid")
        if set(self.nablas) != set(bundle.degrees()):
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

    @classmethod
    def from_linear(cls, nabla):
        return cls(nabla.algebroid, GradedBundle([(0, nabla.rank)]), {0: nabla})

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

        Built straight from the Christoffel matrices, which `LinearConnection`
        has checked, keeping those that are not zero.
        """
        blocks = {}
        for z in self.bundle.degrees():
            entries = {}
            for i, mat in enumerate(self.nablas[z].mats):
                if any(p.terms for row in mat for p in row):
                    entries[(i,)] = mat
            if entries:
                blocks[(1, z, z)] = entries
        return TotalForm._from_mats(self.variables, self.algebroid.rank,
                                    self.bundle, self.bundle, 1, blocks)

    def omega(self):
        """Omega = Gamma + D, the degree-1 total form of cal_D; built once and kept."""
        if self._omega is None:
            self._omega = self.connection_form() + self.D
        return self._omega

    def curvature(self):
        """The unique total form R with hat(R) = cal_D squared, in two kernel passes.

        Section e_(l, alpha) is column alpha of block (0, l, l) of the
        identity, so pass 1, cal_D on all of them, is hat(Omega) on the
        identity: it must return Omega's stored form, or InternalCheckError
        names the first block and multi-index where they differ.  Pass 2 is
        cal_D on those images, with d_A of the images added into its
        accumulators; column alpha of block (s, l, j) of the result is part
        (s, j) of cal_D^2 e_(l, alpha), which is R as it stands.  The result
        is kept on the instance.
        """
        if self._curvature is None:
            omega, algebroid, bundle = self.omega(), self.algebroid, self.bundle
            identity = TotalForm.identity(self.variables, algebroid.rank, bundle)
            images = TotalForm._unchecked(self.variables, algebroid.rank, bundle, bundle, 1,
                                          omega._product(identity._kernel, bundle))
            if images != omega:
                block, mi = _first_difference(images, omega)
                raise InternalCheckError(
                    "curvature check failed: cal_D on the basis sections differs from "
                    f"Omega at block {block}, multi-index {mi}")
            self._curvature = TotalForm._unchecked(
                self.variables, algebroid.rank, bundle, bundle, 2,
                omega._product(images._kernel, bundle, d_a=algebroid))
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

    `nabla_sub` lives over algebroid.restrict(subframe); Christoffel
    matrices for complement frame directions come from `complement`
    (a map global index -> target-major matrix) and default to zero.
    """
    if nabla_sub.algebroid.rank != subframe.rank:
        raise MismatchError("subframe connection has the wrong frame rank")
    complement = dict(complement or {})
    zero_mat = mat_zero(nabla_sub.rank, nabla_sub.rank, algebroid.variables)
    mats = []
    local = {g: i for i, g in enumerate(subframe.indices)}
    for i in range(algebroid.rank):
        if i in local:
            mats.append(nabla_sub.mats[local[i]])
        else:
            mats.append(complement.get(i, zero_mat))
    return LinearConnection(algebroid, nabla_sub.rank, mats)


def restrict_connection(nabla, subframe):
    """Restrict a connection to the frame directions of a bracket-closed subframe."""
    sub_algebroid = nabla.algebroid.restrict(subframe)
    mats = [nabla.mats[i] for i in subframe.indices]
    return LinearConnection(sub_algebroid, nabla.rank, mats)


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
