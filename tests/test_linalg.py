"""Exact sparse linear algebra checked against postcondition oracles.

The sparse API in `gradweil.linalg` works on rows {column: value}.  It is
compared, exactly, against a textbook dense Gauss-Jordan kept here as the
reference.
"""

import random
from fractions import Fraction

import pytest

from gradweil import chernweil
from gradweil.algebroid import Chart, tangent_algebroid
from gradweil.linalg import nullspace, rref, solve, transpose
from gradweil.randgen import random_linear_connection


# --- dense reference ---------------------------------------------------------


def dense_rref(matrix):
    """Gauss-Jordan with the first nonzero row as pivot: (RREF, pivots)."""
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def dense_solve(matrix, rhs):
    """The free-variables-zero solution, or None if inconsistent."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if nrows == 0:
        return [Fraction(0)] * ncols
    aug = [list(row) + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    reduced, pivots = dense_rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = reduced[i][ncols]
    return x


def dense_nullspace(matrix):
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    if ncols == 0:
        return []
    if nrows == 0:
        return [[Fraction(1) if j == i else Fraction(0) for j in range(ncols)]
                for i in range(ncols)]
    reduced, pivots = dense_rref(matrix)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -reduced[i][free]
        basis.append(vec)
    return basis


# --- generators ----------------------------------------------------------------


def random_matrix(rng, rows, cols, lo=-4, hi=4):
    return [
        [Fraction(rng.randint(lo, hi)) for _ in range(cols)]
        for _ in range(rows)
    ]


def random_sparse_matrix(rng, rows, cols):
    """Mostly zero, with non-integer entries, planted zero rows and columns,
    and sometimes a row that repeats a multiple of another."""
    density = rng.choice((0.05, 0.15, 0.3, 0.6))
    dead_rows = {i for i in range(rows) if rng.random() < 0.15}
    dead_cols = {j for j in range(cols) if rng.random() < 0.15}
    m = [[Fraction(rng.randint(-5, 5), rng.randint(1, 6))
          if i not in dead_rows and j not in dead_cols and rng.random() < density
          else Fraction(0) for j in range(cols)] for i in range(rows)]
    if rows > 1 and rng.random() < 0.5:
        src, dst = rng.randrange(rows), rng.randrange(rows)
        factor = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        m[dst] = [factor * v for v in m[src]]
    return m


EDGE_SHAPES = [(0, 0), (3, 0), (1, 1), (1, 7), (7, 1)]


def sparse_cases(seed):
    """(rng, matrix) for the edge shapes, then tall, wide and square ones."""
    rng = random.Random(seed)
    shapes = list(EDGE_SHAPES)
    for _ in range(20):
        cols = rng.randint(1, 8)
        shapes.append((rng.randint(cols + 1, 16), cols))
        rows = rng.randint(1, 8)
        shapes.append((rows, rng.randint(rows + 1, 16)))
        n = rng.randint(1, 12)
        shapes.append((n, n))
    for rows, cols in shapes:
        yield rng, random_sparse_matrix(rng, rows, cols)


def mat_vec(m, v):
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in m]


def shape(m):
    return len(m), (len(m[0]) if m else 0)


def sparse_rows(m):
    return [{j: v for j, v in enumerate(row) if v} for row in m]


def to_dense(vec, n):
    """A sparse vector {index: value} as a list of length n."""
    return [vec.get(i, Fraction(0)) for i in range(n)]


def dense_rank(m):
    return len(dense_rref(m)[1])


# --- postcondition oracles ---------------------------------------------------------


def test_rref_shape_and_pivots():
    rng = random.Random(11)
    for _ in range(30):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        sparse = sparse_rows(m)
        red, pivots = rref(sparse, cols)
        assert sparse == sparse_rows(m)  # the input rows are left unchanged
        assert len(red) == len(pivots) <= rows
        assert all(0 <= c < cols for row in red for c in row)
        # each pivot column holds a unit vector
        for k, c in enumerate(pivots):
            col = [row.get(c, 0) for row in red]
            assert col[k] == 1
            assert all(col[i] == 0 for i in range(len(red)) if i != k)
        assert len(pivots) == dense_rank(m)


def test_solve_by_substitution():
    rng = random.Random(7)
    solved = 0
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        # build a guaranteed-consistent rhs from a random preimage
        v = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
        rhs = mat_vec(m, v)
        sol = solve(sparse_rows(m), dict(enumerate(rhs)), cols)
        assert sol is not None
        assert mat_vec(m, sol) == rhs
        solved += 1
    assert solved == 60


def test_solve_sparse_edge_cases():
    assert solve([], {}, 3) == [Fraction(0)] * 3
    assert solve([{}, {}], {1: Fraction(1, 2)}, 2) is None
    assert solve([{}, {1: Fraction(2)}], {1: Fraction(1, 2)}, 2) == [
        Fraction(0), Fraction(1, 4)]
    # explicit zeros in the rows are the same as absent entries
    assert solve([{0: Fraction(0), 1: Fraction(2)}, {0: Fraction(0)}],
                 {0: Fraction(1)}, 2) == [Fraction(0), Fraction(1, 2)]
    assert rref([{0: Fraction(0)}, {}], 2) == ([], [])
    assert nullspace([{0: Fraction(0)}], 2) == [{0: 1}, {1: 1}]
    assert nullspace([], 0) == [] and transpose([], 2) == [{}, {}]


def test_solve_inconsistent():
    rows = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}]
    assert solve(rows, {0: Fraction(1), 1: Fraction(3)}, 2) is None
    assert solve(rows, {0: Fraction(1), 1: Fraction(2)}, 2) == [Fraction(1), Fraction(0)]


def test_nullspace_oracle():
    rng = random.Random(3)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        basis = nullspace(sparse_rows(m), cols)
        assert len(basis) == cols - dense_rank(m)
        zero = [Fraction(0)] * rows
        for v in basis:
            assert all(v.values()) and all(0 <= c < cols for c in v)
            assert mat_vec(m, to_dense(v, cols)) == zero
        # basis vectors are independent
        if basis:
            assert dense_rank([to_dense(v, cols) for v in basis]) == len(basis)


def test_independent_columns_oracle():
    """The pivot columns of `rref` are a maximal independent set of columns."""
    rng = random.Random(19)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols, -2, 2)
        chosen = rref(sparse_rows(m), cols)[1]
        sub = [[m[i][j] for j in chosen] for i in range(rows)]
        assert dense_rank(sub) == len(chosen) == dense_rank(m)
        # every unchosen column is a combination of the chosen ones
        for j in range(cols):
            if j in chosen:
                continue
            rhs = {i: m[i][j] for i in range(rows)}
            assert solve(sparse_rows(sub), rhs, len(chosen)) is not None


def test_transpose():
    columns = [{0: Fraction(1)}, {0: Fraction(2), 2: Fraction(5)}, {}]
    rows = transpose(columns, 3)
    assert rows == [{0: Fraction(1), 1: Fraction(2)}, {}, {1: Fraction(5)}]
    assert transpose(rows, 3) == columns


# --- sparse elimination against the dense reference ---------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sparse_elimination_matches_dense_reference(seed):
    for rng, m in sparse_cases(seed):
        nrows, ncols = shape(m)
        rows = sparse_rows(m)
        expected_rref, expected_pivots = dense_rref(m)
        reduced, pivots = rref(rows, ncols)
        assert pivots == expected_pivots
        assert [to_dense(row, ncols) for row in reduced] == expected_rref[:len(pivots)]
        assert not any(any(row) for row in expected_rref[len(pivots):])
        assert [to_dense(v, ncols) for v in nullspace(rows, ncols)] == dense_nullspace(m)
        columns = [{i: m[i][j] for i in range(nrows) if m[i][j]} for j in range(ncols)]
        assert transpose(columns, nrows) == rows
        consistent = mat_vec(m, [Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                                 for _ in range(ncols)])
        arbitrary = [Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                     for _ in range(nrows)]
        for rhs in (consistent, arbitrary):
            sparse_rhs = {i: v for i, v in enumerate(rhs) if v}
            assert solve(rows, sparse_rhs, ncols) == dense_solve(m, rhs)
        assert dense_solve(m, consistent) is not None


def test_sparse_cases_cover_the_edge_shapes():
    shapes = [(len(m), len(m[0]) if m else 0) for _, m in sparse_cases(1)]
    assert (0, 0) in shapes and (3, 0) in shapes
    assert any(r > c > 0 for r, c in shapes) and any(c > r > 0 for r, c in shapes)
    cases = [m for _, m in sparse_cases(1)]
    assert any(any(not any(row) for row in m) for m in cases if m)
    assert any(any(not any(col) for col in zip(*m)) for m in cases if m and m[0])
    assert any(v.denominator > 1 for m in cases for row in m for v in row)


def test_sympy_rank_oracle():
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    for _, m in sparse_cases(4):
        entries = [[QQ(v.numerator, v.denominator) for v in row] for row in m]
        expected = DomainMatrix(entries, shape(m), QQ).rank()
        assert len(rref(sparse_rows(m), shape(m)[1])[1]) == expected


def test_exactness_system_matches_dense_reference():
    """One TR^4 exactness system: sparse solve and dense reference agree."""
    algebroid = tangent_algebroid(Chart(tuple(f"x{i}" for i in range(4))))
    rng = random.Random(2024)
    connection = random_linear_connection(rng, algebroid, 2, 1)
    form = chernweil.sigma_character(connection, 2).form
    bound = chernweil.default_bound(algebroid, [form])
    unknowns, rows, rhs = chernweil._exactness_system(algebroid, form, bound)
    ncols = len(unknowns)
    assert (len(rows), ncols) == (126, 504)
    dense = [[row.get(c, Fraction(0)) for c in range(ncols)] for row in rows]
    dense_rhs = [rhs.get(i, Fraction(0)) for i in range(len(rows))]
    expected = dense_solve(dense, dense_rhs)
    assert expected is not None and any(expected)
    assert solve(rows, rhs, ncols) == expected
    result = chernweil.is_exact(algebroid, form, bound)
    assert result.status == "exact"
    assert algebroid.d(result.primitive) == form
