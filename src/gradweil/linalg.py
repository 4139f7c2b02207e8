"""Exact sparse linear algebra over the rationals: rref, solve, nullspace, transpose.

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
columns (`pivot_columns` those alone), `nullspace` the kernel vector of
each free column, and `integer_solution` and `solve` the one solution with
every free variable set to zero.

The elimination runs fraction-free, in the manner of Bareiss (Math. Comp.
22, 1968): each row is scaled to primitive integers on entry, a row is
cleared at a pivot p with entry f there as row <- p * row - f * pivot (both
divided by gcd(p, f) first), and the result is divided by the gcd of its
entries.  Back substitution does the same on the pivot rows.  A nonzero
multiple of a row has the row's support, so every step has the support of
the Fraction elimination, with the same pivots.  The eliminator returns the
reduced rows in integers, each with its head, its entry at its pivot
column; a reduced row of the RREF is an integer row over its head.  Each
public function builds Fractions only where its result needs them: `rref`
and `nullspace` divide every reduced entry by its row's head, and
`pivot_columns` builds none.  `integer_solution` returns the solution as
it comes out of the elimination, one (column, numerator, head) triple per
pivot row whose entry in the right-hand-side column is nonzero, and
`solve` is its Fraction view, numerator / head at each such column; a
caller that stores integers, as the exactness solve does, takes the triples
over the lcm of their heads and builds no Fraction at all.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _eliminate(rows, ncols):
    """Reduced row echelon form of sparse rows over `ncols` columns, in integers.

    `rows` are {column: value} dicts of int or Fraction values with columns
    below `ncols`; they are read, not changed, and zero values count as
    absent.  Returns (reduced, pivots): the nonzero rows of the reduced form
    in pivot order, each a primitive integer row whose only nonzero entry in
    a pivot column is its head, at its own pivot, and the pivot columns.
    Row k of the RREF is reduced[k] divided by reduced[k][pivots[k]].
    """
    by_lead = {}
    for row in rows:
        row = _primitive(row)
        if row:
            by_lead.setdefault(min(row), []).append(row)
    pivots = []
    done = []   # the pivot rows, in integers
    for col in range(ncols):
        candidates = by_lead.pop(col, None)
        if candidates is None:
            continue
        pivot = min(candidates, key=len)
        head = pivot[col]
        for row in candidates:
            if row is not pivot:
                _clear(row, head, row[col], pivot)
                if row:
                    by_lead.setdefault(min(row), []).append(row)
        pivots.append(col)
        done.append(pivot)
    # back substitution, last pivot first: each finished row has no entry in
    # any later pivot column, so clearing one brings in no other
    position = {c: i for i, c in enumerate(pivots)}
    for k in range(len(done) - 1, -1, -1):
        row = done[k]
        for c in [c for c in row if position.get(c, k) > k]:
            other = done[position[c]]
            _clear(row, other[c], row[c], other)
    return done, pivots


def _primitive(row):
    """The nonzero entries of a row of int or Fraction values, scaled to
    primitive integers: times the lcm of their denominators, divided by the
    gcd of the numerators that gives."""
    den = lcm(*[v.denominator for v in row.values()])
    row = {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}
    _divide_out(row)
    return row


def _clear(row, p, f, other):
    """row <- p * row - f * other in place, p and f first divided by their
    gcd, dropping the entries that cancel; then the row divided by the gcd
    of its entries.  With p and f the two rows' entries in one column, that
    column cancels."""
    g = gcd(p, f)
    if g > 1:
        p, f = p // g, f // g
    if p != 1:
        for c in row:
            row[c] *= p
    for c, v in other.items():
        value = row.get(c, 0) - f * v
        if value:
            row[c] = value
        else:
            del row[c]
    _divide_out(row)


def _divide_out(row):
    """Divide an integer row, in place, by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        for c in row:
            row[c] //= g


def rref(rows, ncols):
    """(reduced rows, pivot columns) of sparse rows over `ncols` columns.

    The input rows are left unchanged; explicit zeros count as absent.  The
    reduced rows are the nonzero rows of the RREF in pivot order, as
    Fractions with a 1 at the pivot column.
    """
    reduced, pivots = _eliminate(rows, ncols)
    return [_over_head(row, col) for row, col in zip(reduced, pivots)], pivots


def _over_head(row, col):
    """An integer reduced row divided by its head, the entry at `col`."""
    head = row[col]
    return {c: Fraction(v, head) for c, v in row.items()}


def pivot_columns(rows, ncols):
    """The pivot columns of `rref(rows, ncols)`, with no Fraction built: the
    first maximal independent set of columns in column order."""
    return _eliminate(rows, ncols)[1]


def integer_solution(rows, rhs, ncols):
    """The solution of rows @ x = rhs with every free variable zero, in
    integers, or None if the system is inconsistent.

    `rows` are {column: value} dicts over `ncols` unknowns and `rhs` is a
    {row index: value} dict, of int or Fraction values; absent entries are
    zero.  Returns one (column, numerator, head) triple per pivot row whose
    entry in the right-hand-side column is nonzero, in pivot order: x[column]
    is numerator / head (head may be negative), and every other unknown is
    0.  With no rows the system is vacuous and the list is empty.
    """
    augmented = list(rows)
    for i, value in rhs.items():
        if value:
            augmented[i] = {**augmented[i], ncols: value}
    reduced, pivots = _eliminate(augmented, ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None  # pivot in the augmented column: inconsistent
    return [(c, row[ncols], row[c]) for row, c in zip(reduced, pivots) if ncols in row]


def solve(rows, rhs, ncols):
    """One exact solution x of rows @ x = rhs, or None if inconsistent: the
    Fraction view of `integer_solution`, a list of `ncols` Fractions with
    every free variable zero."""
    triples = integer_solution(rows, rhs, ncols)
    if triples is None:
        return None
    x = [Fraction(0)] * ncols
    for c, numerator, head in triples:
        x[c] = Fraction(numerator, head)
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
