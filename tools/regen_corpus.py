#!/usr/bin/env python3
"""Regenerate the shipped corpus: problem files plus golden reports.

Problem payloads and their oracle comments live here as the single source
of truth; goldens are produced by running each problem through the same
entry point the CLI uses.  Review the diff after regenerating.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gradweil.catalog import (abelian, aff1, aff1_action_line,
                              aff1_plus_center, broken_jacobi, heisenberg3,
                              sl2, solvable5, tangent_plane,
                              two_aff1_plus_center)
from gradweil.cli import canonical_json
from gradweil.problems import run_problem, validate_problem

ROOT = Path(__file__).resolve().parent.parent / "corpus"

SL2_BROKEN = {
    "chart": {"vars": []}, "rank": 3,
    "anchor": [[], [], []],
    "brackets": [{"i": 0, "j": 1, "coeffs": ["0", "2", "0"]},
                 {"i": 0, "j": 2, "coeffs": ["0", "0", "-2"]},
                 {"i": 1, "j": 2, "coeffs": ["1", "1", "0"]}],
}

SOLVABLE5_MODULE = {
    "rank": 2,
    "christoffel": [
        {"frame": 0, "matrix": [["1", "0"], ["0", "0"]]},
        {"frame": 1, "matrix": [["0", "0"], ["1", "0"]]},
    ],
}

SCALAR_23 = {"rank": 1, "christoffel": [{"frame": 0, "matrix": [["2"]]},
                                        {"frame": 1, "matrix": [["3"]]}]}

BOREL_MODULE = {"rank": 1, "christoffel": [{"frame": 0, "matrix": [["1"]]}]}


def eps(*indices):
    return {"degree": len(indices),
            "terms": [{"index": list(indices), "coeff": "1"}]}


ENTRIES = [
    ("check_sl2", {
        "task": "check-algebroid",
        "comment": "sl2 constants [e1,e2]=2e2, [e1,e3]=-2e3, [e2,e3]=e1 "
                   "satisfy all three axioms; oracle: brute-force expansion "
                   "of every basis triple by hand, and d^2 = 0 on all "
                   "generators is the dual statement of the same axioms.",
        "algebroid": sl2().to_json(),
    }),
    ("check_sl2_broken", {
        "task": "check-algebroid",
        "comment": "same constants with [e2,e3] = e1 + e2: the Jacobiator "
                   "of (e1,e2,e3) is nonzero; oracle: hand expansion gives "
                   "[(e1,[e2,e3])] + cyclic = 2e2 - (-2e2)... != 0, and "
                   "d^2 eps fails on the same data.",
        "algebroid": SL2_BROKEN,
    }),
    ("check_broken_jacobi", {
        "task": "check-algebroid",
        "comment": "[e1,e2]=e3, [e1,e3]=e1, [e2,e3]=e2 is antisymmetric but "
                   "its (e1,e2,e3) Jacobiator is 2e3; oracle: hand expansion; "
                   "the runner must exit 1 and name the failing triple.",
        "algebroid": broken_jacobi().to_json(),
    }),
    ("check_aff1", {
        "task": "check-algebroid",
        "comment": "aff(1) with [e1,e2] = e2 over a point; oracle for the "
                   "Koszul differential on the single basis pair: "
                   "d eps1 = 0 and d eps2 = -eps1^eps2, so d^2 = 0 holds "
                   "and the axiom report passes.",
        "algebroid": aff1().to_json(),
    }),
    ("check_action_line", {
        "task": "check-algebroid",
        "comment": "action algebroid of aff(1) on the line, rho(e1) = d/dx, "
                   "rho(e2) = x d/dx; oracle: [d/dx, x d/dx] = d/dx forces "
                   "[e1,e2] = e1, and the anchor pullback of dx evaluated "
                   "on the frame is eps1 + x eps2 (pinned in the unit tests).",
        "algebroid": aff1_action_line().to_json(),
    }),
    ("pontryagin_two_aff1", {
        "task": "pontryagin",
        "comment": "rank-2 bundle over aff(1)+aff(1)+center with "
                   "G(e1) = diag(1,0), G(e2) = E12+E21, G(e3) = diag(0,1), "
                   "G(e4) = E12, G(e5) = 0; oracle: the three disjoint "
                   "frame pairings give tr(R12 R34) = 4, tr(R13 R24) = 0, "
                   "tr(R14 R23) = -1, so f_2 = -(4 + 0 - 1) eps1^..^eps4 "
                   "= -3 eps1^eps2^eps3^eps4 (f_2 also equals the sum of "
                   "principal 2x2 minors, pinned in the tests); the "
                   "prefactor is (-1)^1 (2 pi)^(-2) and the class is zero "
                   "with the machine-found primitive 3 eps1^eps2^eps4.",
        "algebroid": two_aff1_plus_center().to_json(),
        "connection": {"rank": 2, "christoffel": [
            {"frame": 0, "matrix": [["1", "0"], ["0", "0"]]},
            {"frame": 1, "matrix": [["0", "1"], ["1", "0"]]},
            {"frame": 2, "matrix": [["0", "0"], ["0", "1"]]},
            {"frame": 3, "matrix": [["0", "0"], ["1", "0"]]},
        ]},
        "indices": [1],
    }),
    ("obstruct_aff1_mixed", {
        "task": "obstruct-nrep",
        "comment": "E0[0] with scalar connection (2,3) against E1[1] with "
                   "the zero connection over aff(1): sigma1 = gtr(R) = "
                   "tr R_E0 - tr R_E1 = -3 eps1^eps2; oracle: "
                   "d(3 eps2) = -3 eps1^eps2, so the class vanishes with "
                   "primitive 3 eps2.  sigma2 is the zero form because "
                   "R^2 has form degree 4 over a rank-2 frame (wedge "
                   "degree count).  The graded trace and hat round-trip "
                   "behind gtr(R^l) are pinned against shuffle-sum oracles "
                   "in the unit tests.",
        "algebroid": aff1().to_json(),
        "bundle": {"summands": [{"degree": 0, "rank": 1},
                                {"degree": 1, "rank": 1}]},
        "connections": {"0": SCALAR_23, "1": {"rank": 1, "christoffel": []}},
        "indices": [1, 2],
    }),
    ("obstruct_broken_jacobi", {
        "task": "obstruct-nrep",
        "comment": "the line bundle R[0] with Gamma = eps3 over the algebroid "
                   "of check_broken_jacobi, which breaks Jacobi; oracle: "
                   "Gamma^Gamma = 0 on a line, so sigma1 = R = d eps3 = "
                   "-eps1^eps2, and d eps1 = -eps1^eps3, d eps2 = "
                   "-eps2^eps3 give d sigma1 = -2 eps1^eps2^eps3 != 0.  "
                   "sigma1 is not closed because d^2 != 0: a failed math "
                   "check (exit 1) whose witness names multi-index "
                   "[0,1,2] with value -2, not an internal check failure.",
        "algebroid": broken_jacobi().to_json(),
        "bundle": {"summands": [{"degree": 0, "rank": 1}]},
        "connections": {"0": {"rank": 1, "christoffel": [
            {"frame": 2, "matrix": [["1"]]}]}},
        "indices": [1],
    }),
    ("obstruct_aff1_seeded", {
        "task": "obstruct-nrep",
        "comment": "E0[0] + E1[1] over aff(1) with no connections given: "
                   "seed 3 draws the constant Christoffels Gamma_0 = "
                   "(-2, -1/2) and Gamma_1 = (2, 1) on e1, e2 (summand 0 "
                   "first; randgen.random_linear_connection).  Oracle: on a "
                   "line Gamma^Gamma = 0 and d eps1 = 0, so R_z = b_z d eps2 "
                   "= -b_z eps1^eps2 with b_z the e2 entry, and sigma1 = "
                   "tr R_E0 - tr R_E1 = (b_1 - b_0) eps1^eps2 = 3/2 "
                   "eps1^eps2, exact with primitive -3/2 eps2 by "
                   "d eps2 = -eps1^eps2.  The golden pins what the seed "
                   "draws.",
        "algebroid": aff1().to_json(),
        "seed": 3,
        "bundle": {"summands": [{"degree": 0, "rank": 1},
                                {"degree": 1, "rank": 1}]},
        "indices": [1],
    }),
    ("bott_sl2_borel", {
        "task": "bott",
        "comment": "B = span(e1,e2) in sl2 with the rank-1 module "
                   "lambda(e1) = 1, lambda(e2) = 0 (a Lie algebra map since "
                   "[e1,e2] = 2e2 acts by 2 lambda(e2) = 0), extended by "
                   "lambda(e3) = 0; oracle: R~(e1,e3) = 2 lambda(e3) = 0 "
                   "and R~(e2,e3) = -lambda(e1) = -1, so R~ = -eps2^eps3, "
                   "every term carries one complement index (annihilator "
                   "membership counted per term), and tr(R~^2) = 0.",
        "algebroid": sl2().to_json(),
        "subframe": [0, 1],
        "connection": BOREL_MODULE,
    }),
    ("bott_5dim", {
        "task": "bott",
        "comment": "codim-1 subalgebra B = span(e1..e4) of the rank-5 "
                   "solvable algebra [e1,e2]=e2, [e1,e5]=e2+e5, [e3,e4]=e4 "
                   "with the flat rank-2 module lambda(e1)=diag(1,0), "
                   "lambda(e2)=E12; oracle: R~(e1,e5) = -lambda(e2) = -E12 "
                   "by hand and all other pairs vanish, so tr(R~^2) = 0 "
                   "even though 4-forms on a rank-5 frame do not vanish "
                   "for degree reasons.",
        "algebroid": solvable5().to_json(),
        "subframe": [0, 1, 2, 3],
        "connection": SOLVABLE5_MODULE,
    }),
    ("graded_bott_5dim", {
        "task": "graded-bott",
        "comment": "the 5-dim Bott module doubled into the 2-term complex "
                   "E[0] + E[1] with the identity chain map and omega = 0 "
                   "(the module is flat); oracle: the extended structure "
                   "operator is normalized and squares to zero on B, the "
                   "extension curvature equals the ungraded R~ on both "
                   "summands, and gtr(R~^2) = 0 by the same hand expansion "
                   "as the ungraded case.",
        "algebroid": solvable5().to_json(),
        "subframe": [0, 1, 2, 3],
        "bundle": {"summands": [{"degree": 0, "rank": 2},
                                {"degree": 1, "rank": 2}]},
        "connections": {"0": SOLVABLE5_MODULE, "1": SOLVABLE5_MODULE},
        "d_part": {"total_degree": 1, "terms": [
            {"block": [0, 0, 1], "index": [], "row": 0, "col": 0, "coeff": "1"},
            {"block": [0, 0, 1], "index": [], "row": 1, "col": 1, "coeff": "1"},
        ]},
    }),
    ("graded_bott_broken_omega", {
        "task": "graded-bott",
        "comment": "the scalar (2,3) double complex over aff(1) with omega "
                   "perturbed from its square-zero value 3 eps1^eps2 to "
                   "4 eps1^eps2; oracle: recomputing the blocks gives "
                   "R + omega o partial = (-3+4) eps1^eps2 != 0 in both "
                   "curvature corners, so the square-zero precondition "
                   "fails and the report names the offending blocks.",
        "algebroid": aff1().to_json(),
        "subframe": [0, 1],
        "bundle": {"summands": [{"degree": 0, "rank": 1},
                                {"degree": 1, "rank": 1}]},
        "connections": {"0": SCALAR_23, "1": SCALAR_23},
        "d_part": {"total_degree": 1, "terms": [
            {"block": [0, 0, 1], "index": [], "row": 0, "col": 0, "coeff": "1"},
            {"block": [2, 1, 0], "index": [0, 1], "row": 0, "col": 0,
             "coeff": "4"},
        ]},
    }),
    ("atiyah_sl2_borel", {
        "task": "atiyah",
        "comment": "sl2 over its Borel subalgebra with the rank-1 module "
                   "lambda(e1) = 1: the pairing of subframe and quotient "
                   "directions is omega = -eps2 (from R~(e2,e3) = -1); "
                   "oracle: hand expansion of the curvature pairing, its "
                   "closedness for the combined Bott/End connection, and "
                   "invariance when the quotient argument is shifted by B "
                   "(the restriction of R~ to B^B vanishes).",
        "algebroid": sl2().to_json(),
        "subframe": [0, 1],
        "connection": BOREL_MODULE,
    }),
    ("atiyah_aff1_center", {
        "task": "atiyah",
        "comment": "aff(1) + center over B = span(e1,e2) with the same "
                   "rank-1 module: e3 is central, so the extended curvature "
                   "vanishes entirely and omega = 0; oracle: every bracket "
                   "with e3 is zero, hence R~(., e3) = -lambda([., e3]) = 0, "
                   "activating the refined threshold l > q/2.",
        "algebroid": aff1_plus_center().to_json(),
        "subframe": [0, 1],
        "connection": BOREL_MODULE,
    }),
    ("massey_h3", {
        "task": "massey",
        "comment": "<[eps1],[eps1],[eps2]> on the Heisenberg algebra "
                   "[e1,e2] = e3; oracle: eps1^eps1 = 0 with primitive 0, "
                   "and -eps1^eps2 = d(eps3) gives the second primitive "
                   "+eps3, so the representative is -eps1^eps3, "
                   "its class is nonzero because the degree-2 boundary "
                   "space is spanned by eps1^eps2 alone (rank computation), "
                   "and the indeterminacy ideal is zero in degree 2.",
        "algebroid": heisenberg3().to_json(),
        "alpha": eps(0), "beta": eps(0), "gamma": eps(1),
    }),
    ("massey_aff1", {
        "task": "massey",
        "comment": "degenerate triple <[eps1],[eps1],[eps1]> over aff(1): "
                   "both products vanish on the nose, the representative is "
                   "the zero 2-form, and the class vector is empty; oracle: "
                   "dim H^0 = 1, dim H^1 = 1 (class [eps1]), dim H^2 = 0 by "
                   "exact rank computation on the 2-dim exterior algebra, "
                   "so an empty class vector pins dim H^2 = 0.",
        "algebroid": aff1().to_json(),
        "alpha": eps(0), "beta": eps(0), "gamma": eps(0),
    }),
    ("massey_sl2_zero", {
        "task": "massey",
        "comment": "zero 1-forms over sl2: the triple is defined with zero "
                   "representative and an empty class vector; oracle: "
                   "dim H^* (sl2) = [1,0,0,1] by exact ranks of the three "
                   "differentials, so both the degree-2 class vector and "
                   "the degree-1 indeterminacy ideal are empty.",
        "algebroid": sl2().to_json(),
        "alpha": {"degree": 1, "terms": []},
        "beta": {"degree": 1, "terms": []},
        "gamma": {"degree": 1, "terms": []},
    }),
    ("iis_naive_ideal", {
        "task": "iis",
        "comment": "J = span(e3) in the Heisenberg algebra with F_M = 0 "
                   "(point base): a naive ideal inside ker rho; oracle: e3 "
                   "is central, so the bracket action preserves J and the "
                   "remaining conditions are vacuous over a point; both "
                   "rank-comparison classes use f_2 of 1x1 data and vanish.",
        "algebroid": heisenberg3().to_json(),
        "subframe": [2],
        "field_subframe": [],
    }),
    ("iis_tangent_plane", {
        "task": "iis",
        "comment": "TM of the plane with F_M = J = span(d/dx1) and the "
                   "trivial extension; oracle: coordinate fields have zero "
                   "brackets and the zero connection preserves every "
                   "coordinate subframe, so all four conditions hold, and "
                   "the p^1 difference is the zero form.",
        "algebroid": tangent_plane().to_json(),
        "subframe": [0],
        "field_subframe": [0],
    }),
    ("iis_aff1_unstable", {
        "task": "iis",
        "comment": "J = span(e1) in aff(1) with F_M = 0: not bracket-stable "
                   "since [e1,e2] = e2 is outside span(e1); oracle: the "
                   "basic connection on sections is the bracket action over "
                   "a point, and its e2-component on e1 is "
                   "[e2,e1] = -e2 != 0, so condition (2) fails with that "
                   "witness.",
        "algebroid": aff1().to_json(),
        "subframe": [0],
        "field_subframe": [],
    }),
    ("iis_action_line", {
        "task": "iis",
        "comment": "codim-1 ideal J = span(e1) of the aff(1) action "
                   "algebroid on the line, F_M = span(d/dx), zero "
                   "extension; oracle: [e2,e1] = -e1 stays in J, "
                   "rho(e1) = d/dx lies in F_M, the basic curvature "
                   "carries the zero connection in every term, and both "
                   "p^1 representatives are f_2 of rank-1 data, so their "
                   "difference is exactly zero (exact within any bound).",
        "algebroid": aff1_action_line().to_json(),
        "subframe": [0],
        "field_subframe": [0],
    }),
    ("adjoint_sl2", {
        "task": "adjoint",
        "comment": "adjoint 2-term representation of sl2 over a point: the "
                   "bracket action on sections with the identity-free "
                   "blocks; oracle: square-zero reduces to antisymmetry "
                   "plus Jacobi, verified axioms imply every component "
                   "equation vanishes (machine expansion).",
        "algebroid": sl2().to_json(),
    }),
    ("adjoint_action_line_zero", {
        "task": "adjoint",
        "comment": "adjoint representation of the aff(1) action algebroid "
                   "with the zero tangent connection; oracle: the basic "
                   "connection on fields sends d/dx along e2 to "
                   "[x d/dx, d/dx] = -d/dx, the basic curvature vanishes "
                   "term by term (all five terms carry the zero "
                   "connection), and square-zero follows by expansion.",
        "algebroid": aff1_action_line().to_json(),
        "tangent_connection": {"rank": 2, "christoffel": []},
    }),
    ("adjoint_action_line_poly", {
        "task": "adjoint",
        "comment": "same algebroid with the polynomial tangent connection "
                   "Gamma(d/dx) = [[x, 1], [0, 2]]; oracle: square-zero is "
                   "the machine expansion of all blocks; tensoriality of "
                   "the basic curvature (C-infinity linearity under "
                   "f-scaled inputs) is pinned in the unit tests against "
                   "the same construction.",
        "algebroid": aff1_action_line().to_json(),
        "tangent_connection": {"rank": 2, "christoffel": [
            {"frame": 0, "matrix": [["x", "1"], ["0", "2"]]}]},
    }),
    ("double_aff1_scalar", {
        "task": "double",
        "comment": "double of the scalar connection nabla_e1 = 2, "
                   "nabla_e2 = 3 on a line bundle over aff(1); oracle: "
                   "d_nabla e = 2 eps1 (x) e + 3 eps2 (x) e, the curvature "
                   "is R = -3 eps1^eps2 by the direct formula, the induced "
                   "End connection is zero (scalar commutators), and the "
                   "four component equations expand to zero with "
                   "omega = 3 eps1^eps2; the (1,1)-shuffle oracle for "
                   "hatted one-forms underlies the omega o partial block.",
        "algebroid": aff1().to_json(),
        "connection": SCALAR_23,
    }),
    ("double_action_line", {
        "task": "double",
        "comment": "double of the polynomial connection Gamma(e1) = x, "
                   "Gamma(e2) = x^2 on a line bundle over the aff(1) action "
                   "algebroid; oracle: square-zero is equivalent to the "
                   "Bianchi identity of the input connection, expanded by "
                   "machine over the polynomial chart.",
        "algebroid": aff1_action_line().to_json(),
        "connection": {"rank": 1, "christoffel": [
            {"frame": 0, "matrix": [["x"]]},
            {"frame": 1, "matrix": [["x^2"]]}]},
    }),
    ("morphism_zero_map_aff1", {
        "task": "morphism",
        "comment": "zero morphism from the abelian line into aff(1) with "
                   "the flat A-connection nabla_e1 = 2, nabla_e2 = 0 on "
                   "the source line; oracle: with partial = 0 the "
                   "connection pair reduces to bracket terms and square-"
                   "zero is exactly flatness of the input, which holds "
                   "since R(e1,e2) = -nabla_[e1,e2] = -0.",
        "algebroid": aff1().to_json(),
        "source_algebroid": abelian(1).to_json(),
        "partial": [["0", "0"]],
        "connection": {"rank": 1, "christoffel": [
            {"frame": 0, "matrix": [["2"]]}]},
    }),
    ("morphism_ideal_aff1", {
        "task": "morphism",
        "comment": "the ideal inclusion e |-> e2 of the abelian line into "
                   "aff(1) with the A-connection nabla_e1 = 2, "
                   "nabla_e2 = 3 on the source; oracle: the anchor and "
                   "bracket conditions hold (both sides vanish on an "
                   "abelian source), and the component equations of the "
                   "induced 2-term connection expand to zero by machine.",
        "algebroid": aff1().to_json(),
        "source_algebroid": abelian(1).to_json(),
        "partial": [["0", "1"]],
        "connection": SCALAR_23,
    }),
    ("transgression_aff1_scalar", {
        "task": "transgression",
        "comment": "zero connection against the scalar pair (2,3) on a "
                   "line bundle over aff(1), index 1; oracle: the "
                   "interpolation integrand is gtr of the difference, so "
                   "T = 2 eps1 + 3 eps2 and d T = -3 eps1^eps2 equals "
                   "sigma1(new) - sigma1(old) by d eps2 = -eps1^eps2; the "
                   "character difference of two connections on one bundle "
                   "is exact with this explicit primitive.",
        "algebroid": aff1().to_json(),
        "connections": {"old": {"rank": 1, "christoffel": []},
                        "new": SCALAR_23},
        "index": 1,
    }),
    ("transgression_sl2_borelmod", {
        "task": "transgression",
        "comment": "zero connection against lambda(e1) = 1 on a line "
                   "bundle over sl2, index 1; oracle: the new curvature is "
                   "-eps2^eps3 (only [e2,e3] = e1 contributes), the "
                   "transgression is gtr of the difference = eps1, and "
                   "d eps1 = -eps2^eps3 matches the character difference, "
                   "an instance of class equality across two connections "
                   "on the same bundle.",
        "algebroid": sl2().to_json(),
        "connections": {"old": {"rank": 1, "christoffel": []},
                        "new": BOREL_MODULE},
        "index": 1,
    }),
]


def main():
    ROOT.mkdir(exist_ok=True)
    names = set()
    for name, payload in ENTRIES:
        assert name not in names, f"duplicate corpus name {name}"
        names.add(name)
        diagnostics = validate_problem(payload)
        assert not diagnostics, (name, diagnostics)
        problem_path = ROOT / f"{name}.json"
        problem_path.write_text(json.dumps(payload, indent=1) + "\n")
        report = run_problem(payload)
        (ROOT / f"{name}.golden.json").write_text(canonical_json(report))
        passed = all(c["pass"] for c in report["checks"])
        print(f"{'PASS' if passed else 'FAIL':4} {name}")
    stale = {p.name for p in ROOT.glob("*.json")} - {
        f"{n}.json" for n in names} - {f"{n}.golden.json" for n in names}
    for extra in sorted(stale):
        print(f"stale file not managed by this script: {extra}")


if __name__ == "__main__":
    main()
