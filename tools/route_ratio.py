"""Time the fused curvature of a connection up to homotopy against the unfused formula.

    python tools/route_ratio.py [--seeds 5] [--repeats 5]

The algebras are sl2, solvable5 and abelian(8) over a point, and TR^4, the
tangent algebroid of a four-variable chart, where the curvature runs the
chart kernel on packed monomials.  For each algebra and seed it draws a
connection up to homotopy on R^2[0] + R^2[1] + R[2] and times `curvature()`
(two kernel passes: cal_D on the basis sections, checked against Omega, and
cal_D on their images with d_A fused) against the formula d_A Omega + Omega ^
Omega built from public calls (`TotalForm.wedge`, `Algebroid.d_total` and
`+`).  Every timed call runs on a fresh copy of the connection and its
algebroid whose Omega is built before the clock starts; the two alternate,
and a time for a seed is the best of `--repeats` calls.  Prints, per
algebra, the median over the seeds of both times and of their ratio.  Exits
1 if the two ever disagree.
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


def fused(conn):
    """The curvature as the engine computes it: two kernel passes, d_A fused."""
    return conn.curvature()


def formula(conn):
    """d_A Omega + Omega ^ Omega, unfused: a wedge, a d_total and a sum."""
    omega = conn.omega()
    return omega.wedge(omega) + conn.algebroid.d_total(omega)


ROUTES = (fused, formula)


def fresh(make, seed):
    """A new connection up to homotopy of the seed, on a new algebroid, with Omega built."""
    conn = random_cuth(random.Random(seed), make(), BUNDLE)
    conn.omega()
    return conn


def best_times(make, seed, repeats):
    """Per route, (best wall time in seconds, last result); the routes alternate."""
    best = [(float("inf"), None)] * len(ROUTES)
    for _ in range(repeats):
        for k, route in enumerate(ROUTES):
            conn = fresh(make, seed)
            start = time.perf_counter()
            result = route(conn)
            best[k] = (min(time.perf_counter() - start, best[k][0]), result)
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    agree = True
    print(f"{'algebra':<12}{'fused ms':>10}{'formula ms':>12}{'fused/formula':>15}")
    for name, make in ALGEBRAS.items():
        fused, unfused, ratio = [], [], []
        for seed in range(args.seeds):
            (fu_s, fu_r), (fo_s, fo_r) = best_times(make, seed, args.repeats)
            if fu_r != fo_r:
                print(f"{name}, seed {seed}: the fused curvature and the formula disagree")
                agree = False
            fused.append(fu_s * 1e3)
            unfused.append(fo_s * 1e3)
            ratio.append(fu_s / fo_s)
        print(f"{name:<12}{statistics.median(fused):>10.2f}"
              f"{statistics.median(unfused):>12.2f}{statistics.median(ratio):>15.2f}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
