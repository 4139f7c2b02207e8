"""Exact sparse linear algebra checked against postcondition oracles.

The sparse API in `gradweil.linalg` works on rows {column: value}.  It is
compared, exactly, against a textbook dense Gauss-Jordan in plain Fractions,
kept in `oracles` as the reference.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from gradweil import chernweil
from gradweil.algebroid import Chart, tangent_algebroid
from gradweil.linalg import integer_solution, nullspace, pivot_columns, rref, solve, transpose
from gradweil.randgen import random_linear_connection
from oracles import dense_nullspace, dense_rref, dense_solve
from test_algebroid import tuple_key
from test_chernweil import assert_union_of_components, exactness_system_reference


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


def from_triples(triples, ncols):
    """The solution vector of `integer_solution`'s triples, or None."""
    if triples is None:
        return None
    x = [Fraction(0)] * ncols
    for c, numerator, head in triples:
        x[c] = Fraction(numerator, head)
    return x


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sparse_elimination_matches_dense_reference(seed):
    # the right-hand sides are a consistent one, an arbitrary one (often
    # inconsistent), the zero one, and on systems with rows an integer one;
    # `integer_solution`'s triples must give dense_solve's vector exactly
    kinds = Counter()
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
        integral = [rng.randint(-3, 3) for _ in range(nrows)]
        for rhs in (consistent, arbitrary, [0] * nrows, integral):
            sparse_rhs = {i: v for i, v in enumerate(rhs) if v}
            expected = dense_solve(m, rhs)
            triples = integer_solution(rows, sparse_rhs, ncols)
            assert solve(rows, sparse_rhs, ncols) == expected == from_triples(triples, ncols)
            if triples is not None:
                # one triple per pivot row with a nonzero right-hand side, in
                # pivot order, all integers
                assert [c for c, _, _ in triples] == [c for c in pivots if expected[c]]
                assert all(type(n) is int and type(h) is int and n and h
                           for _, n, h in triples)
            kinds["empty" if not nrows else "tall" if nrows > ncols
                  else "wide" if nrows < ncols else "square"] += 1
            kinds["inconsistent" if triples is None else "solved" if triples else "zero"] += 1
        assert dense_solve(m, consistent) is not None
    assert min(kinds.values()) >= 3 and len(kinds) == 7


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
    """One full TR^4 exactness system: sparse solve and dense reference agree.

    The solve of `is_exact` runs on the closure of the right-hand side, a
    union of components of this system, and must give the same primitive.
    """
    algebroid = tangent_algebroid(Chart(tuple(f"x{i}" for i in range(4))))
    rng = random.Random(2024)
    connection = random_linear_connection(rng, algebroid, 2, 1)
    form = chernweil.sigma_character(connection, 2).form
    bound = chernweil.default_bound(algebroid, [form])
    unknowns, rows, rhs = exactness_system_reference(algebroid, form, bound)
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
    closure_unknowns, closure_rows, closure_rhs = closure = \
        chernweil._exactness_system(algebroid, form, bound)
    assert_union_of_components(closure, (unknowns, rows, rhs), algebroid, form)
    closure_sol = solve(closure_rows, closure_rhs, len(closure_unknowns))
    # the closure's unknowns are the ansatz's times the form's stored D
    D = form._kernel[0]
    assert {tuple_key(algebroid, u): v / D for u, v in zip(closure_unknowns, closure_sol)
            if v} == {u: v for u, v in zip(unknowns, expected) if v}


# --- the integer elimination on rows of int and Fraction values ---------------------


def mixed_value(rng):
    """A nonzero entry: an int, or a Fraction over a denominator 2-11."""
    if rng.random() < 0.4:
        return rng.choice((-1, 1)) * rng.randint(1, 9)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(2, 11))


def mixed_matrix(rng, rows, cols, density):
    return [[mixed_value(rng) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)]


def sparse_mixed_matrix(rng):
    """A sparse matrix of mixed entries, 1-4 nonzeros a row, a third of its
    rows combinations of two others: dependent rows and free columns."""
    nrows, ncols = rng.randint(2, 18), rng.randint(1, 24)
    rows = [{c: mixed_value(rng) for c in rng.sample(range(ncols), min(ncols, rng.randint(1, 4)))}
            for _ in range(nrows)]
    for i in rng.sample(range(nrows), nrows // 3):
        a, b = rng.randrange(nrows), rng.randrange(nrows)
        row = {c: Fraction(v) * mixed_value(rng) for c, v in rows[a].items()}
        for c, v in rows[b].items():
            row[c] = row.get(c, 0) + v
        rows[i] = row
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_integer_elimination_matches_the_dense_reference(seed):
    # rows mix ints and Fractions over denominators 2-11, as the exactness
    # solve (integer rows and right-hand side) and the callers of the public
    # API do; the dense 12 x 12 cases have full rank, and the sparse ones
    # give inconsistent systems and consistent ones with free variables
    rng = random.Random(f"mixed:{seed}")
    cases = [mixed_matrix(rng, 12, 12, 1.0) for _ in range(2)]
    for _ in range(16):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        cases.append(mixed_matrix(rng, nrows, ncols, rng.choice((0.2, 0.5, 0.8))))
    cases.extend(sparse_mixed_matrix(rng) for _ in range(24))
    full_rank, solutions = 0, Counter()
    for m in cases:
        nrows, ncols = shape(m)
        rows = [{j: v for j, v in enumerate(row) if v} for row in m]
        dense = [[Fraction(v) for v in row] for row in m]
        expected_rref, expected_pivots = dense_rref(dense)
        full_rank += (nrows, ncols, len(expected_pivots)) == (12, 12, 12)
        reduced, pivots = rref(rows, ncols)
        assert pivots == expected_pivots == pivot_columns(rows, ncols)
        assert [to_dense(row, ncols) for row in reduced] == expected_rref[:len(pivots)]
        assert all(type(v) is Fraction for row in reduced for v in row.values())
        kernel = nullspace(rows, ncols)
        assert [to_dense(v, ncols) for v in kernel] == dense_nullspace(dense)
        assert all(type(v) is Fraction for vec in kernel for v in vec.values())
        consistent = mat_vec(dense, [Fraction(mixed_value(rng)) for _ in range(ncols)])
        arbitrary = [mixed_value(rng) if rng.random() < 0.7 else 0 for _ in range(nrows)]
        for rhs in (consistent, arbitrary):
            x = solve(rows, {i: v for i, v in enumerate(rhs) if v}, ncols)
            assert x == dense_solve(dense, rhs)
            assert x is None or all(type(v) is Fraction for v in x)
            solutions["none" if x is None else "free" if len(pivots) < ncols else "one"] += 1
        assert rows == [{j: v for j, v in enumerate(row) if v} for row in m]   # unchanged
    assert full_rank >= 2 and min(solutions[kind] for kind in ("none", "free", "one")) >= 5
