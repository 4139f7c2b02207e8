"""Exact sparse linear algebra over Fraction: rref, solve, nullspace, transpose.

Every matrix is a list of sparse rows: dicts {column: value} that hold only
the nonzero entries, with columns below an explicit `ncols`.  The systems
that matter are mostly zero: the bounded polynomial ansatz of an exactness
solve over a chart has well under 1% nonzero cells, and a Chevalley-Eilenberg
differential has at most a few entries per column.  A sparse vector is a
dict {index: value} of the same kind, and `transpose` turns a list of them,
taken as columns, into rows.

All elimination goes through one routine, `_eliminate`.  Columns are taken
left to right.  At each column the pivot is the remaining row with a nonzero
there and the fewest nonzeros overall, which keeps fill-in low.  Entries
below the pivot are cleared first; a back substitution then clears above the
pivots.

The pivot choice changes only the order in which rows are used.  For a fixed
column order the reduced row echelon form of a matrix is unique, so the
result equals that of textbook Gauss-Jordan: `rref` returns its pivot
columns, `nullspace` the kernel vector of each free column, and `solve` the
one solution with every free variable set to zero.
"""

from __future__ import annotations

from fractions import Fraction


def _eliminate(rows, ncols):
    """Reduced row echelon form of sparse rows, which are consumed.

    `rows` are {column: value} dicts with no zero values and columns below
    `ncols`.  Returns (reduced, pivots): the nonzero rows of the reduced form
    in pivot order, each with a 1 at its pivot column, and the pivot columns.
    """
    by_lead = {}
    for row in rows:
        if row:
            by_lead.setdefault(min(row), []).append(row)
    pivots = []
    tails = []  # pivot row without its pivot entry, scaled to a leading 1
    for col in range(ncols):
        candidates = by_lead.pop(col, None)
        if candidates is None:
            continue
        pivot = min(candidates, key=len)
        inv = Fraction(1) / pivot.pop(col)
        tail = {c: v * inv for c, v in pivot.items()}
        for row in candidates:
            if row is pivot:
                continue
            _subtract(row, row.pop(col), tail)
            if row:
                by_lead.setdefault(min(row), []).append(row)
        pivots.append(col)
        tails.append(tail)
    # back substitution, last pivot first: each finished tail has no entry
    # in any pivot column, so clearing one pivot column brings in no other
    position = {c: i for i, c in enumerate(pivots)}
    for tail in reversed(tails):
        for c in [c for c in tail if c in position]:
            _subtract(tail, tail.pop(c), tails[position[c]])
    one = Fraction(1)
    for col, tail in zip(pivots, tails):
        tail[col] = one
    return tails, pivots


def _subtract(row, factor, other):
    """row -= factor * other, in place, dropping entries that cancel."""
    for c, v in other.items():
        value = row.get(c, 0) - factor * v
        if value:
            row[c] = value
        else:
            del row[c]


def rref(rows, ncols):
    """(reduced rows, pivot columns) of sparse rows over `ncols` columns.

    The input rows are left unchanged; explicit zeros count as absent.  The
    reduced rows are the nonzero rows of the RREF in pivot order, each with
    a 1 at its pivot column.
    """
    return _eliminate([{c: v for c, v in row.items() if v} for row in rows],
                      ncols)


def solve(rows, rhs, ncols):
    """One exact solution x of rows @ x = rhs, or None if inconsistent.

    `rows` are {column: value} dicts over `ncols` unknowns and `rhs` is a
    {row index: value} dict; absent entries are zero.  Free variables are
    set to zero, and x is returned as a list of `ncols` values.  With no
    rows the system is vacuous and x = 0 is returned.
    """
    augmented = [{c: v for c, v in row.items() if v} for row in rows]
    for i, value in rhs.items():
        if value:
            augmented[i][ncols] = Fraction(value)
    reduced, pivots = _eliminate(augmented, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None  # pivot in the augmented column: inconsistent
    zero = Fraction(0)
    x = [zero] * ncols
    for row, c in zip(reduced, pivots):
        x[c] = row.get(ncols, zero)
    return x


def nullspace(rows, ncols):
    """Basis of the kernel of sparse rows, as sparse vectors.

    One vector per free column f, in increasing order of f: 1 at f and, at
    each pivot column, minus the reduced row's entry in column f.
    """
    reduced, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    one = Fraction(1)
    basis = {f: {f: one} for f in range(ncols) if f not in pivot_set}
    for row, pivot in zip(reduced, pivots):
        for c, v in row.items():
            if c != pivot:
                basis[c][pivot] = -v
    return list(basis.values())


def transpose(vectors, nrows):
    """Sparse rows of the matrix whose columns are the sparse `vectors`.

    Each vector is a {row index: value} dict with indices below `nrows`.
    """
    rows = [{} for _ in range(nrows)]
    for j, vec in enumerate(vectors):
        for i, v in vec.items():
            rows[i][j] = v
    return rows
