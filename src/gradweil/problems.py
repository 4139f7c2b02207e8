"""JSON problem files: schema validation, object builders, task dispatch.

A problem file is a single JSON object selecting a ``task`` and carrying the
objects the task needs (algebroid, connections, subframes, forms, ...).  All
frame / summand indices on the wire are 0-based; Christoffel matrices are
source-major (``matrix[alpha][beta]`` is the e_beta coefficient of the
covariant derivative of f_alpha), matching `LinearConnection.christoffel`.

Every task returns a plain-dict report::

    {"task": ..., "construction": ..., "checks": [{"name", "pass", "witness"?}],
     "thresholds"?: {...}, "results"?: {...}, "note"?: ...}

with only JSON-native values, so reports serialize canonically.
"""

from __future__ import annotations

import random

import jsonschema

from . import randgen
from .algebroid import Algebroid, Subframe, tangent_algebroid
from .chernweil import (class_status, massey_triple,
                        pontryagin_class, sigma_character, transgression)
from .connections import ConnectionUpToHomotopy, LinearConnection
from .constructions import (_check, _morphism_rep, adjoint_rep, atiyah_form,
                            bott_report, check_morphism, double_rep,
                            graded_bott_report, iis_check, iis_obstruction,
                            report_passed, square_zero_check)
from .errors import MismatchError, MorphismError, ParseError
from .forms import Form, GradedBundle, TotalForm, render_form

_POLY = {"type": "string"}
_POLY_MATRIX = {"type": "array",
                "items": {"type": "array", "items": _POLY}}
_INDEX_LIST = {"type": "array",
               "items": {"type": "integer", "minimum": 0}}
_ALGEBROID = {
    "type": "object",
    "required": ["chart", "rank", "anchor"],
    "properties": {
        "chart": {
            "type": "object",
            "required": ["vars"],
            "properties": {"vars": {"type": "array", "items": {"type": "string"}}},
        },
        "rank": {"type": "integer", "minimum": 1},
        "anchor": _POLY_MATRIX,
        "brackets": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["i", "j", "coeffs"],
                "properties": {
                    "i": {"type": "integer", "minimum": 0},
                    "j": {"type": "integer", "minimum": 0},
                    "coeffs": {"type": "array", "items": _POLY},
                },
            },
        },
    },
}
_CONNECTION = {
    "type": "object",
    "properties": {
        "bundle_degree": {"type": "integer"},
        "rank": {"type": "integer", "minimum": 1},
        "christoffel": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["frame", "matrix"],
                "properties": {
                    "frame": {"type": "integer", "minimum": 0},
                    "matrix": _POLY_MATRIX,
                },
            },
        },
    },
}
_FORM = {
    "type": "object",
    "required": ["degree", "terms"],
    "properties": {
        "degree": {"type": "integer", "minimum": 0},
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["index", "coeff"],
                "properties": {
                    "index": _INDEX_LIST,
                    "fiber": {"type": "integer", "minimum": 0},
                    "coeff": _POLY,
                },
            },
        },
    },
}
_TOTAL_FORM = {
    "type": "object",
    "required": ["total_degree", "terms"],
    "properties": {
        "total_degree": {"type": "integer"},
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["block", "index", "row", "col", "coeff"],
                "properties": {
                    "block": {"type": "array", "items": {"type": "integer"},
                              "minItems": 3, "maxItems": 3},
                    "index": _INDEX_LIST,
                    "row": {"type": "integer", "minimum": 0},
                    "col": {"type": "integer", "minimum": 0},
                    "coeff": _POLY,
                },
            },
        },
    },
}
_BUNDLE = {
    "type": "object",
    "required": ["summands"],
    "properties": {
        "summands": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["degree", "rank"],
                "properties": {
                    "degree": {"type": "integer"},
                    "rank": {"type": "integer", "minimum": 1},
                },
            },
        },
    },
}


# ----------------------------------------------------------------------
# builders


def _need(data, task, key):
    if key not in data:
        raise ParseError(f"task '{task}' requires field '{key}'")
    return data[key]


def _build_algebroid(data, task, key="algebroid"):
    return Algebroid.from_json(_need(data, task, key))


def _build_connection(spec, algebroid, rank=None):
    return LinearConnection.from_json(spec, algebroid, rank=rank)


def _rng(data, seed):
    if seed is None:
        seed = data.get("seed", 0)
    return random.Random(seed)


def _connection_or_random(data, task, algebroid, rank, rng, key="connection"):
    """An explicit connection if the file carries one, else a seeded random one."""
    if key in data:
        return _build_connection(data[key], algebroid, rank=rank)
    return randgen.random_linear_connection(rng, algebroid, rank)


def _bound(data, bound):
    return bound if bound is not None else data.get("bound")


def _subframe(data, task, rank, key="subframe"):
    return Subframe(rank, _need(data, task, key))


def _complement_mats(data, algebroid, subframe, rank):
    """Optional complement Christoffels; wire format is source-major per frame.

    Each key must name a frame index outside the subframe, written as a
    plain decimal integer.
    """
    raw = data.get("complement")
    if raw is None:
        return None
    out = {}
    for key, matrix in raw.items():
        try:
            index = int(key)
        except ValueError:
            index = None
        if index is None or str(index) != key:
            raise ParseError(f"complement key {key!r} is not a frame index")
        if not 0 <= index < algebroid.rank:
            raise ParseError(f"complement frame {index} is out of range for an "
                             f"algebroid of rank {algebroid.rank}")
        if index in subframe.indices:
            raise ParseError(f"complement frame {index} lies in the subframe "
                             f"{list(subframe.indices)}")
        gamma = [[algebroid.chart.poly(p) for p in row] for row in matrix]
        if len(gamma) != rank or any(len(row) != rank for row in gamma):
            raise MismatchError(f"complement matrix for frame {key} has wrong shape")
        # internal connection matrices are target-major
        out[index] = tuple(tuple(gamma[b][a] for b in range(rank))
                           for a in range(rank))
    return out


def _restricted(data, task, algebroid):
    """The task's subframe and the algebroid restricted to it.

    Returns (subframe, restricted, None) when the subframe is bracket
    closed, else (subframe, None, report) with the failed closure check.
    """
    sub = _subframe(data, task, algebroid.rank)
    bad = algebroid.subalgebroid_failures(sub)
    if bad:
        witness = [f"[e_{i}, e_{j}] has an e_{k} component" for i, j, k in bad]
        return sub, None, {"construction": task,
                           "checks": [_check("subframe_bracket_closed", False, witness)]}
    return sub, algebroid.restrict(sub), None


def _flat_on_subframe(data, task, algebroid):
    """Subframe, flat connection and complement Christoffels of a Bott-type task.

    The complement is read before the checks, so a malformed one is
    refused as input whatever they find.  Returns (subframe, connection,
    complement, None), else (subframe, None, None, report) with the failed
    closure or flatness check.
    """
    sub, restricted, failed = _restricted(data, task, algebroid)
    spec = _need(data, task, "connection")
    rank = spec.get("rank", sub.rank)
    complement = _complement_mats(data, algebroid, sub, rank)
    if failed is not None:
        return sub, None, None, failed
    nabla_sub = _build_connection(spec, restricted, rank=rank)
    if not nabla_sub.is_flat():
        return sub, None, None, {"construction": task,
                                 "checks": [_check("subframe_bracket_closed", True),
                                            _check("flat_on_subframe", False)]}
    return sub, nabla_sub, complement, None


def _closed_first(report):
    """Lead a subframe task's report with its passed closure check."""
    report["checks"].insert(0, _check("subframe_bracket_closed", True))
    return report


# ----------------------------------------------------------------------
# tasks


def _task_check_algebroid(data, bound, seed):
    algebroid = _build_algebroid(data, "check-algebroid")
    axioms = algebroid.check_axioms()
    ok_d2, failures_d2 = algebroid.d_squared_check()
    checks = []
    for name, ok, prefix in (
            ("antisymmetry", axioms.antisymmetry_ok, "antisymmetry"),
            ("anchor_compatibility", axioms.anchor_ok, "anchor"),
            ("jacobi", axioms.jacobi_ok, "jacobi")):
        witness = [msg for msg in axioms.failures if msg.startswith(prefix)] or None
        checks.append(_check(name, ok, witness))
    checks.append(_check("d_squared_zero", ok_d2, list(failures_d2) or None))
    return {"construction": "check-algebroid", "checks": checks}


def _task_pontryagin(data, bound, seed):
    algebroid = _build_algebroid(data, "pontryagin")
    rng = _rng(data, seed)
    rank = data.get("rank", algebroid.rank)
    if "connection" in data:
        rank = data["connection"].get("rank", rank)
    nabla = _connection_or_random(data, "pontryagin", algebroid, rank, rng)
    indices = data.get("indices", [1])
    checks = []
    classes = []
    for i in indices:
        cls = pontryagin_class(nabla, i)
        closed = algebroid.d(cls.representative).is_zero()
        checks.append(_check(f"p{i}_representative_closed", closed))
        status, primitive = class_status(algebroid, cls.representative,
                                         bound=_bound(data, bound))
        entry = {
            "index": cls.index,
            "prefactor": str(cls.prefactor),
            "two_pi_exponent": cls.two_pi_exponent,
            "representative": cls.representative.to_json(),
            "rendered": render_form(cls.representative),
            "status": status,
        }
        if primitive is not None:
            entry["primitive"] = primitive.to_json()
        classes.append(entry)
    return {"construction": "pontryagin", "checks": checks,
            "results": {"classes": classes}}


def _build_cuth(data, task, algebroid, rng):
    """Graded bundle + per-degree connections (+ optional D block data)."""
    bundle = GradedBundle.from_json(_need(data, task, "bundle"))
    specs = data.get("connections", {})
    degrees = [str(z) for z in bundle.degrees()]
    for key in specs:
        if key not in degrees:
            raise ParseError(f"connections key {key!r} is not the degree of a "
                             f"bundle summand; expected one of {degrees}")
    nablas = {}
    for z, r in bundle.summands:
        spec = specs.get(str(z))
        if spec is not None:
            nablas[z] = _build_connection(spec, algebroid, rank=r)
        else:
            nablas[z] = randgen.random_linear_connection(rng, algebroid, r)
    d_part = None
    if "d_part" in data:
        d_part = TotalForm.from_json(data["d_part"], algebroid.variables,
                                     algebroid.rank, bundle, bundle)
    return ConnectionUpToHomotopy(algebroid, bundle, nablas, D=d_part)


def _task_obstruct_nrep(data, bound, seed):
    algebroid = _build_algebroid(data, "obstruct-nrep")
    rng = _rng(data, seed)
    conn = _build_cuth(data, "obstruct-nrep", algebroid, rng)
    indices = data.get("indices", [1, 2])
    checks = []
    characters = []
    for l in indices:
        char = sigma_character(conn, l)
        status, primitive = class_status(algebroid, char.form,
                                         bound=_bound(data, bound))
        checks.append(_check(f"sigma{l}_closed", char.closed))
        checks.append(_check(f"sigma{l}_vanishes_in_cohomology",
                             status == "zero", {"status": status}))
        entry = {"index": l, "form": char.form.to_json(),
                 "rendered": render_form(char.form), "status": status}
        if primitive is not None:
            entry["primitive"] = primitive.to_json()
        characters.append(entry)
    note = ("a mixed-degree character with a nonzero class obstructs the "
            "existence of an n-representation on this graded bundle")
    return {"construction": "obstruct-nrep", "checks": checks,
            "results": {"characters": characters}, "note": note}


def _task_bott(data, bound, seed):
    algebroid = _build_algebroid(data, "bott")
    sub, nabla_sub, complement, failed = _flat_on_subframe(data, "bott", algebroid)
    if failed is not None:
        return failed
    return _closed_first(bott_report(algebroid, sub, nabla_sub,
                                     complement=complement))


def _task_graded_bott(data, bound, seed):
    algebroid = _build_algebroid(data, "graded-bott")
    sub, restricted, failed = _restricted(data, "graded-bott", algebroid)
    if failed is not None:
        return failed
    conn_sub = _build_cuth(data, "graded-bott", restricted, _rng(data, seed))
    square = square_zero_check(conn_sub)
    if not report_passed(square):
        square["construction"] = "graded-bott"
        return _closed_first(square)
    return _closed_first(graded_bott_report(algebroid, sub, conn_sub))


def _task_atiyah(data, bound, seed):
    algebroid = _build_algebroid(data, "atiyah")
    sub, nabla_sub, complement, failed = _flat_on_subframe(data, "atiyah",
                                                           algebroid)
    if failed is not None:
        return failed
    extension = None
    if "extension" in data:
        extension = _build_connection(data["extension"], algebroid,
                                      rank=nabla_sub.rank)
    omega, report = atiyah_form(algebroid, sub, nabla_sub, extension=extension,
                                complement=complement)
    report["results"] = {"pairing_form": omega.to_json(),
                         "rendered": render_form(omega)}
    return _closed_first(report)


def _task_massey(data, bound, seed):
    algebroid = _build_algebroid(data, "massey")
    forms = {}
    closed = []
    for key in ("alpha", "beta", "gamma"):
        form = Form.from_json(_need(data, "massey", key),
                              algebroid.variables, algebroid.rank)
        forms[key] = form
        ok = algebroid.d(form).is_zero()
        closed.append(ok)
    checks = [_check("inputs_closed", all(closed),
                     None if all(closed) else
                     [k for k, ok in zip(("alpha", "beta", "gamma"), closed)
                      if not ok])]
    if not all(closed):
        return {"construction": "massey", "checks": checks}
    report = massey_triple(algebroid, forms["alpha"], forms["beta"],
                           forms["gamma"], bound=_bound(data, bound))
    checks.append(_check("triple_product_defined", report.defined,
                         None if report.defined else report.reason))
    out = {"construction": "massey", "checks": checks}
    if not report.defined:
        return out
    results = {
        "representative": report.representative.to_json(),
        "rendered": render_form(report.representative),
        "primitive_ab": report.primitive_ab.to_json(),
        "primitive_bc": report.primitive_bc.to_json(),
    }
    if report.class_vector is not None:
        results["class_vector"] = [str(c) for c in report.class_vector]
        results["indeterminacy_basis"] = [[str(c) for c in vec]
                                          for vec in report.indeterminacy_basis]
        results["nonzero_mod_indeterminacy"] = report.nonzero_mod_indeterminacy
    else:
        out["note"] = report.reason
    out["results"] = results
    return out


def _task_iis(data, bound, seed):
    algebroid = _build_algebroid(data, "iis")
    j_sub = Subframe(algebroid.rank, _need(data, "iis", "subframe"))
    fm_sub = Subframe(algebroid.chart.dim, _need(data, "iis", "field_subframe"))
    nabla_tilde = None
    if "tangent_connection" in data:
        tm = tangent_algebroid(algebroid.chart)
        nabla_tilde = _build_connection(data["tangent_connection"], tm,
                                        rank=algebroid.rank)
    report = iis_check(algebroid, j_sub, fm_sub, nabla_tilde=nabla_tilde)
    structural = [c for c in report["checks"]
                  if c["name"] != "quotient_connection_flat"]
    if all(c["pass"] for c in structural):
        obstruction = iis_obstruction(
            algebroid, j_sub, fm_sub,
            l_values=tuple(data.get("indices", [1])),
            bound=_bound(data, bound))
        report["checks"].extend(obstruction["checks"])
    return report


def _square_zero_report(conn, construction):
    report = square_zero_check(conn)
    report["construction"] = construction
    return report


def _task_adjoint(data, bound, seed):
    algebroid = _build_algebroid(data, "adjoint")
    nabla_tm = None
    if "tangent_connection" in data:
        # over a point this refuses the field: a point has no tangent algebroid
        nabla_tm = _build_connection(data["tangent_connection"],
                                     tangent_algebroid(algebroid.chart),
                                     rank=algebroid.rank)
    elif algebroid.chart.dim:
        nabla_tm = randgen.random_linear_connection(
            _rng(data, seed), tangent_algebroid(algebroid.chart), algebroid.rank)
    conn = adjoint_rep(algebroid, nabla_tm=nabla_tm)
    return _square_zero_report(conn, "adjoint")


def _task_double(data, bound, seed):
    algebroid = _build_algebroid(data, "double")
    rng = _rng(data, seed)
    rank = data.get("rank", 1)
    if "connection" in data:
        rank = data["connection"].get("rank", rank)
    nabla = _connection_or_random(data, "double", algebroid, rank, rng)
    conn = double_rep(nabla)
    return _square_zero_report(conn, "double")


def _task_morphism(data, bound, seed):
    algebroid_a = _build_algebroid(data, "morphism")
    algebroid_b = _build_algebroid(data, "morphism", key="source_algebroid")
    partial = [[algebroid_a.chart.poly(p) for p in row]
               for row in _need(data, "morphism", "partial")]
    rng = _rng(data, seed)
    try:
        partial = check_morphism(algebroid_b, algebroid_a, partial)
    except MorphismError as err:
        witness = {"message": str(err)}
        if err.pair is not None:
            witness["pair"] = list(err.pair)
        return {"construction": "morphism",
                "checks": [_check("is_morphism", False, witness)]}
    nabla = _connection_or_random(data, "morphism", algebroid_a,
                                  algebroid_b.rank, rng)
    conn = _morphism_rep(algebroid_b, algebroid_a, partial, nabla)
    report = _square_zero_report(conn, "morphism")
    report["checks"].insert(0, _check("is_morphism", True))
    return report


def _task_transgression(data, bound, seed):
    algebroid = _build_algebroid(data, "transgression")
    rng = _rng(data, seed)
    specs = _need(data, "transgression", "connections")
    for key in specs:
        if key not in ("old", "new"):
            raise ParseError(f"connections key {key!r} is neither 'old' nor 'new'")
    index = data.get("index", 1)
    rank = data.get("rank", algebroid.rank)
    if "old" in specs:
        rank = specs["old"].get("rank", rank)
    nablas = {}
    for key in ("old", "new"):
        spec = specs.get(key)
        if spec is not None:
            nablas[key] = _build_connection(spec, algebroid, rank=rank)
        else:
            nablas[key] = randgen.random_linear_connection(rng, algebroid, rank)
    t_form = transgression(nablas["old"], nablas["new"], index)
    diff = (sigma_character(nablas["new"], index).form
            - sigma_character(nablas["old"], index).form)
    matches = (algebroid.d(t_form) - diff).is_zero()
    checks = [_check("differential_matches_character_difference", matches)]
    results = {"transgression": t_form.to_json(),
               "rendered": render_form(t_form),
               "character_difference": diff.to_json()}
    return {"construction": "transgression", "checks": checks,
            "results": results}


_DISPATCH = {
    "check-algebroid": _task_check_algebroid,
    "pontryagin": _task_pontryagin,
    "obstruct-nrep": _task_obstruct_nrep,
    "bott": _task_bott,
    "graded-bott": _task_graded_bott,
    "atiyah": _task_atiyah,
    "massey": _task_massey,
    "iis": _task_iis,
    "adjoint": _task_adjoint,
    "double": _task_double,
    "morphism": _task_morphism,
    "transgression": _task_transgression,
}

# the one list of tasks: the schema enum and the CLI choices derive from it
TASKS = tuple(_DISPATCH)

SCHEMA = {
    "type": "object",
    "required": ["task"],
    "properties": {
        "task": {"enum": list(TASKS)},
        "comment": {"type": "string"},
        "algebroid": _ALGEBROID,
        "source_algebroid": _ALGEBROID,
        "bundle": _BUNDLE,
        "rank": {"type": "integer", "minimum": 1},
        "connection": _CONNECTION,
        "connections": {"type": "object", "additionalProperties": _CONNECTION},
        "tangent_connection": _CONNECTION,
        "extension": _CONNECTION,
        "subframe": _INDEX_LIST,
        "field_subframe": _INDEX_LIST,
        "complement": {"type": "object", "additionalProperties": _POLY_MATRIX},
        "partial": _POLY_MATRIX,
        "d_part": _TOTAL_FORM,
        "alpha": _FORM,
        "beta": _FORM,
        "gamma": _FORM,
        "index": {"type": "integer", "minimum": 1},
        "indices": {"type": "array",
                    "items": {"type": "integer", "minimum": 1}},
        "bound": {"type": "integer", "minimum": 0},
        "seed": {"type": "integer"},
    },
    "additionalProperties": False,
}


def validate_problem(data):
    """Schema diagnostics for a problem payload; an empty list means valid."""
    validator = jsonschema.Draft7Validator(SCHEMA)
    out = []
    for err in sorted(validator.iter_errors(data),
                      key=lambda e: [str(p) for p in e.absolute_path]):
        where = "/".join(str(p) for p in err.absolute_path) or "<root>"
        out.append(f"{where}: {err.message}")
    return out


def run_problem(data, task=None, bound=None, seed=None):
    """Execute one problem dict and return its report (a plain dict)."""
    name = task or data.get("task")
    if name not in _DISPATCH:
        raise ParseError(f"unknown task {name!r}; expected one of {list(TASKS)}")
    report = _DISPATCH[name](data, bound, seed)
    report["task"] = name
    return report
