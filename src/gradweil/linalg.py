"""Exact sparse linear algebra over Fraction: RREF, solve, nullspace, rank.

All elimination goes through one routine, `_eliminate`, on sparse rows:
dicts {column: value} that hold only the nonzero entries.  The systems that
matter are mostly zero; the bounded polynomial ansatz of an exactness solve
over a chart has well under 1% nonzero cells.  Columns are taken left to
right.  At each column the pivot is the remaining row with a nonzero there
and the fewest nonzeros overall, which keeps fill-in low.  Entries below the
pivot are cleared first; a back substitution then clears above the pivots.

The pivot choice changes only the order in which rows are used.  For a fixed
column order the reduced row echelon form of a matrix is unique, so the
result equals that of textbook Gauss-Jordan, and `solve` returns the one
solution with every free variable set to zero.

`solve_sparse` takes sparse rows directly.  The dense list-of-rows functions
(`rref`, `solve`, `nullspace`, `rank`, `independent_columns`) are thin entry
points for small callers; every entry is a `fractions.Fraction`.
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


def _sparse(row):
    return {c: v for c, v in enumerate(row) if v}


def _shape(matrix):
    return len(matrix), (len(matrix[0]) if matrix else 0)


def rref(matrix):
    """Return (reduced row echelon form, pivot column list)."""
    nrows, ncols = _shape(matrix)
    reduced, pivots = _eliminate([_sparse(row) for row in matrix], ncols)
    zero = Fraction(0)
    dense = [[row.get(c, zero) for c in range(ncols)] for row in reduced]
    dense += [[zero] * ncols for _ in range(nrows - len(reduced))]
    return dense, pivots


def rank(matrix):
    return len(rref(matrix)[1])


def solve_sparse(rows, rhs, ncols):
    """One exact solution x of rows @ x = rhs, or None if inconsistent.

    `rows` are {column: value} dicts over `ncols` unknowns and `rhs` is a
    {row index: value} dict; absent entries are zero.  Free variables are
    set to zero.  With no rows the system is vacuous and x = 0 is returned.
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


def solve(matrix, rhs):
    """`solve_sparse` for a dense m x n matrix (list of rows) and rhs of length m."""
    _, ncols = _shape(matrix)
    return solve_sparse([_sparse(row) for row in matrix], dict(enumerate(rhs)),
                        ncols)


def nullspace(matrix):
    """Basis of the kernel of matrix (acting on column vectors)."""
    nrows, ncols = _shape(matrix)
    if ncols == 0:
        return []
    if nrows == 0:
        return [[Fraction(1) if j == i else Fraction(0) for j in range(ncols)]
                for i in range(ncols)]
    reduced, pivots = rref(matrix)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -reduced[i][free]
        basis.append(vec)
    return basis


def independent_columns(matrix):
    """Indices of a maximal independent subset of columns, left to right."""
    return rref(matrix)[1]


def transpose(matrix):
    if not matrix:
        return []
    return [list(col) for col in zip(*matrix)]
