"""Stock algebroids used across tests, the corpus, and the docs.

Frame indices are 0-based everywhere in code; the conventional names in
comments (e1, e2, ...) are 1-based.
"""

from __future__ import annotations

from .algebroid import Algebroid, Chart, tangent_algebroid

POINT = Chart(())


def abelian(rank):
    """Abelian Lie algebra of the given rank over a point."""
    return Algebroid.from_brackets(POINT, rank, [[] for _ in range(rank)], {})


def aff1():
    """aff(1): [e1, e2] = e2 over a point."""
    return Algebroid.from_brackets(POINT, 2, [[], []], {(0, 1): [0, 1]})


def heisenberg3():
    """h3: [e1, e2] = e3, e3 central."""
    return Algebroid.from_brackets(POINT, 3, [[], [], []], {(0, 1): [0, 0, 1]})


def sl2():
    """sl2 with frame (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return Algebroid.from_brackets(
        POINT, 3, [[], [], []],
        {(0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]})


def aff1_plus_center():
    """aff(1) + R: [e1, e2] = e2, e3 central; rank 3 over a point."""
    return Algebroid.from_brackets(POINT, 3, [[], [], []], {(0, 1): [0, 1, 0]})


def two_aff1_plus_center():
    """aff(1) + aff(1) + R over a point: rank 5, codim-1 subalgebra on 0..3.

    Brackets: [e1,e2] = e2, [e3,e4] = e4, e5 central.  The span of the
    first four frame elements is a codimension-one subalgebra.
    """
    return Algebroid.from_brackets(
        POINT, 5, [[] for _ in range(5)],
        {(0, 1): [0, 1, 0, 0, 0], (2, 3): [0, 0, 0, 1, 0]})


def solvable5():
    """Rank-5 solvable algebra: [e1,e2] = e2, [e1,e5] = e2 + e5, [e3,e4] = e4.

    The span of the first four frame elements is a codimension-one
    subalgebra whose bracket with the complement generator e5 leaks back
    into it, so complement curvature terms of extended connections survive.
    """
    return Algebroid.from_brackets(
        POINT, 5, [[] for _ in range(5)],
        {(0, 1): [0, 1, 0, 0, 0], (0, 4): [0, 1, 0, 0, 1],
         (2, 3): [0, 0, 0, 1, 0]})


def tangent_plane():
    """TM of the chart (x, y)."""
    return tangent_algebroid(Chart(("x", "y")))


def aff1_action_line():
    """Action algebroid of aff(1) on the line: rho(e1) = d/dx, rho(e2) = x d/dx.

    Compatibility forces [e1, e2] = e1 with this anchor assignment
    ([d/dx, x d/dx] = d/dx).
    """
    chart = Chart(("x",))
    x = chart.var(0)
    one = chart.one()
    return Algebroid.from_brackets(chart, 2, [[one], [x]],
                                   {(0, 1): [one, chart.zero()]})


def broken_jacobi():
    """A rank-3 bracket that is antisymmetric but violates Jacobi.

    [e1,e2] = e3, [e1,e3] = e1, [e2,e3] = e2: the Jacobiator of (e1,e2,e3)
    is 2 e3 != 0.
    """
    return Algebroid.from_brackets(
        POINT, 3, [[], [], []],
        {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0], (1, 2): [0, 1, 0]})
