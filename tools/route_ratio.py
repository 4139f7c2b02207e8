"""Time the two curvature routes of a connection up to homotopy against each other.

    python tools/route_ratio.py [--seeds 5] [--repeats 5]

The algebras are sl2, solvable5 and abelian(8) over a point, and TR^4, the
tangent algebroid of a four-variable chart, where the curvature runs the
chart kernel on packed monomials.  For each algebra and seed it draws a
connection up to homotopy on R^2[0] + R^2[1] + R[2] and times the operator route
(`curvature_by_squaring`: cal_D squared on the basis sections, unhatted) and
the formula route (`curvature_blockwise`: d_A Omega + Omega ^ Omega).  Every
timed call runs on a fresh copy of the connection and its algebroid whose
Omega is built before the clock starts; the two routes alternate, and a
route's time for a seed is its best of `--repeats` calls.  Prints, per
algebra, the median over the seeds of both times and of their ratio.  Exits
1 if the two routes ever disagree.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gradweil import catalog
from gradweil.algebroid import Chart, tangent_algebroid
from gradweil.forms import GradedBundle
from gradweil.randgen import random_cuth

ALGEBRAS = {"sl2": catalog.sl2, "solvable5": catalog.solvable5,
            "abelian(8)": lambda: catalog.abelian(8),
            "TR^4": lambda: tangent_algebroid(Chart(("x", "y", "z", "w")))}
BUNDLE = GradedBundle([(0, 2), (1, 2), (2, 1)])   # R^2[0] + R^2[1] + R[2]
ROUTES = ("curvature_by_squaring", "curvature_blockwise")


def fresh(make, seed):
    """A new connection up to homotopy of the seed, on a new algebroid, with Omega built."""
    conn = random_cuth(random.Random(seed), make(), BUNDLE)
    conn.omega()
    return conn


def best_times(make, seed, repeats):
    """Per route, (best wall time in seconds, last result); the routes alternate."""
    best = {}
    for _ in range(repeats):
        for route in ROUTES:
            conn = fresh(make, seed)
            start = time.perf_counter()
            result = getattr(conn, route)()
            elapsed = time.perf_counter() - start
            best[route] = (min(elapsed, best.get(route, (elapsed,))[0]), result)
    return [best[route] for route in ROUTES]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    agree = True
    print(f"{'algebra':<12}{'operator ms':>13}{'formula ms':>12}{'operator/formula':>18}")
    for name, make in ALGEBRAS.items():
        operator, formula, ratio = [], [], []
        for seed in range(args.seeds):
            (op_s, op_r), (fo_s, fo_r) = best_times(make, seed, args.repeats)
            if op_r != fo_r:
                print(f"{name}, seed {seed}: the operator and formula routes disagree")
                agree = False
            operator.append(op_s * 1e3)
            formula.append(fo_s * 1e3)
            ratio.append(op_s / fo_s)
        print(f"{name:<12}{statistics.median(operator):>13.2f}"
              f"{statistics.median(formula):>12.2f}{statistics.median(ratio):>18.2f}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
