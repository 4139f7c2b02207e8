"""JSON problem files: schema validation, object builders, task dispatch.

A problem file is a single JSON object selecting a ``task`` and carrying the
objects the task needs (algebroid, connections, subframes, forms, ...).  All
frame / summand indices on the wire are 0-based; Christoffel matrices are
source-major (``matrix[alpha][beta]`` is the e_beta coefficient of the
covariant derivative of f_alpha), the orientation a `LinearConnection` keeps.

`run_problem` reads the inputs every task shares once: the ``algebroid``,
a ``random.Random`` seeded from ``seed`` (default 0) for the connections a
file leaves out, and the exactness ``bound``.  Every task is called as
``task(data, algebroid, rng, bound)`` and returns its checks; `run_problem`
names the report::

    {"task": ..., "construction": ..., "checks": [{"name", "pass", "witness"?}],
     "thresholds"?: {...}, "results"?: {...}, "note"?: ...}

with ``task`` and ``construction`` both the task name, and only JSON-native
values, so reports serialize canonically.

`validate_problem` checks a payload against the one `SCHEMA` dict with a
small walker over it.  The walker knows the Draft 7 keywords SCHEMA uses
(``type``, ``enum``, ``required``, ``properties``, ``additionalProperties``,
``items``, ``minimum``, ``minItems``, ``maxItems``) and words each
diagnostic as jsonschema does; jsonschema itself is only the tests' oracle.
An ``integer`` is a JSON integer literal: not a bool, and not a float such
as ``2.0``, which Draft 7 would take for an integer.
"""

from __future__ import annotations

import random

from . import randgen
from .algebroid import Algebroid, Subframe, tangent_algebroid
from .chernweil import (class_status, massey_triple, nonclosed_term,
                        pontryagin_class, sigma_character, transgression)
from .connections import ConnectionUpToHomotopy, LinearConnection
from .constructions import (_check, adjoint_rep, atiyah_form, bott_report,
                            check_morphism, double_rep, graded_bott_report,
                            iis_check, iis_obstruction, morphism_rep,
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


def _connection(spec, algebroid, rank, rng):
    """The rank-`rank` connection `spec` describes, else a seeded random one."""
    if spec is None:
        return randgen.random_linear_connection(rng, algebroid, rank)
    return LinearConnection.from_json(spec, algebroid, rank=rank)


def _tangent_connection(data, algebroid, rng):
    """The file's tangent-frame connection, else a seeded random one.

    Over a point `tangent_algebroid` refuses it: a point has no tangent
    algebroid.
    """
    return _connection(data.get("tangent_connection"),
                       tangent_algebroid(algebroid.chart), algebroid.rank, rng)


def _connection_specs(specs, keys, refusal):
    """A `connections` map whose every key is one of `keys`."""
    for key in specs:
        if key not in keys:
            raise ParseError(f"connections key {key!r} {refusal}")
    return specs


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
        out[index] = gamma
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
        return sub, None, {"checks": [_check("subframe_bracket_closed", False, witness)]}
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
    # the bundle rank is the connection's `rank`, else the size of its first
    # Christoffel matrix; the subframe's frame rank is an unrelated number
    if "rank" in spec:
        rank = spec["rank"]
    elif spec.get("christoffel"):
        rank = len(spec["christoffel"][0]["matrix"])
    else:
        raise ParseError(f"task '{task}' requires field 'rank' in its connection, "
                         "which has no christoffel matrix to read it from")
    complement = _complement_mats(data, algebroid, sub, rank)
    if failed is not None:
        return sub, None, None, failed
    nabla_sub = LinearConnection.from_json(spec, restricted, rank=rank)
    if not nabla_sub.is_flat():
        return sub, None, None, {"checks": [_check("subframe_bracket_closed", True),
                                            _check("flat_on_subframe", False)]}
    return sub, nabla_sub, complement, None


def _closed_first(report):
    """Lead a subframe task's report with its passed closure check."""
    report["checks"].insert(0, _check("subframe_bracket_closed", True))
    return report


def _build_cuth(data, task, algebroid, rng):
    """Graded bundle + per-degree connections (+ optional D block data)."""
    bundle = GradedBundle.from_json(_need(data, task, "bundle"))
    degrees = [str(z) for z in bundle.degrees()]
    specs = _connection_specs(data.get("connections", {}), degrees,
                              "is not the degree of a bundle summand; "
                              f"expected one of {degrees}")
    nablas = {}
    for z, r in bundle.summands:
        spec = specs.get(str(z))
        if spec is not None and spec.get("bundle_degree", z) != z:
            raise ParseError(f"connections key '{z}' holds a connection with "
                             f"bundle_degree {spec['bundle_degree']}")
        nablas[z] = _connection(spec, algebroid, r, rng)
    d_part = None
    if "d_part" in data:
        d_part = TotalForm.from_json(data["d_part"], algebroid.variables,
                                     algebroid.rank, bundle, bundle)
    return ConnectionUpToHomotopy(algebroid, bundle, nablas, D=d_part)


# ----------------------------------------------------------------------
# tasks: each is task(data, algebroid, rng, bound) and returns its checks


def _task_check_algebroid(data, algebroid, rng, bound):
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
    return {"checks": checks}


def _task_pontryagin(data, algebroid, rng, bound):
    spec = data.get("connection")
    rank = (spec or {}).get("rank", data.get("rank", algebroid.rank))
    nabla = _connection(spec, algebroid, rank, rng)
    checks = []
    classes = []
    for i in data.get("indices", [1]):
        cls = pontryagin_class(nabla, i)
        witness = nonclosed_term(algebroid, cls.representative)
        if witness is not None:
            # only over an algebroid that breaks d_A^2 = 0: no class to decide
            checks.append(_check(f"p{i}_representative_closed", False, witness))
            return {"checks": checks}
        checks.append(_check(f"p{i}_representative_closed", True))
        status, primitive = class_status(algebroid, cls.representative, bound=bound)
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
    return {"checks": checks, "results": {"classes": classes}}


def _task_obstruct_nrep(data, algebroid, rng, bound):
    conn = _build_cuth(data, "obstruct-nrep", algebroid, rng)
    checks = []
    characters = []
    for l in data.get("indices", [1, 2]):
        char = sigma_character(conn, l)
        if not char.closed:
            # only over an algebroid that breaks d_A^2 = 0: no class to decide
            checks.append(_check(f"sigma{l}_closed", False,
                                 nonclosed_term(algebroid, char.form)))
            return {"checks": checks}
        status, primitive = class_status(algebroid, char.form, bound=bound)
        checks.append(_check(f"sigma{l}_closed", True))
        checks.append(_check(f"sigma{l}_vanishes_in_cohomology",
                             status == "zero", {"status": status}))
        entry = {"index": l, "form": char.form.to_json(),
                 "rendered": render_form(char.form), "status": status}
        if primitive is not None:
            entry["primitive"] = primitive.to_json()
        characters.append(entry)
    note = ("a mixed-degree character with a nonzero class obstructs the "
            "existence of an n-representation on this graded bundle")
    return {"checks": checks, "results": {"characters": characters}, "note": note}


def _task_bott(data, algebroid, rng, bound):
    sub, nabla_sub, complement, failed = _flat_on_subframe(data, "bott", algebroid)
    if failed is not None:
        return failed
    return _closed_first(bott_report(algebroid, sub, nabla_sub,
                                     complement=complement))


def _task_graded_bott(data, algebroid, rng, bound):
    sub, restricted, failed = _restricted(data, "graded-bott", algebroid)
    if failed is not None:
        return failed
    conn_sub = _build_cuth(data, "graded-bott", restricted, rng)
    square = square_zero_check(conn_sub)
    if report_passed(square):
        square = graded_bott_report(algebroid, sub, conn_sub)
    return _closed_first(square)


def _task_atiyah(data, algebroid, rng, bound):
    sub, nabla_sub, complement, failed = _flat_on_subframe(data, "atiyah",
                                                           algebroid)
    if failed is not None:
        return failed
    extension = None
    if "extension" in data:
        extension = LinearConnection.from_json(data["extension"], algebroid,
                                               rank=nabla_sub.rank)
    omega, report = atiyah_form(algebroid, sub, nabla_sub, extension=extension,
                                complement=complement)
    report["results"] = {"pairing_form": omega.to_json(),
                         "rendered": render_form(omega)}
    return _closed_first(report)


def _task_massey(data, algebroid, rng, bound):
    names = ("alpha", "beta", "gamma")
    forms = [Form.from_json(_need(data, "massey", key), algebroid.variables,
                            algebroid.rank) for key in names]
    open_inputs = [key for key, form in zip(names, forms)
                   if not algebroid.d(form).is_zero()]
    checks = [_check("inputs_closed", not open_inputs, open_inputs or None)]
    if open_inputs:
        return {"checks": checks}
    report = massey_triple(algebroid, *forms, bound=bound)
    checks.append(_check("triple_product_defined", report.defined,
                         None if report.defined else report.reason))
    out = {"checks": checks}
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


def _task_iis(data, algebroid, rng, bound):
    j_sub = _subframe(data, "iis", algebroid.rank)
    fm_sub = _subframe(data, "iis", algebroid.chart.dim, key="field_subframe")
    nabla_tilde = (_tangent_connection(data, algebroid, rng)
                   if "tangent_connection" in data else None)
    report = iis_check(algebroid, j_sub, fm_sub, nabla_tilde=nabla_tilde)
    structural = [c for c in report["checks"]
                  if c["name"] != "quotient_connection_flat"]
    if all(c["pass"] for c in structural):
        obstruction = iis_obstruction(algebroid, j_sub, fm_sub,
                                      l_values=tuple(data.get("indices", [1])),
                                      bound=bound)
        report["checks"].extend(obstruction["checks"])
    return report


def _task_adjoint(data, algebroid, rng, bound):
    nabla_tm = (_tangent_connection(data, algebroid, rng)
                if "tangent_connection" in data or algebroid.chart.dim else None)
    return square_zero_check(adjoint_rep(algebroid, nabla_tm=nabla_tm))


def _task_double(data, algebroid, rng, bound):
    spec = data.get("connection")
    rank = (spec or {}).get("rank", data.get("rank", 1))
    return square_zero_check(double_rep(_connection(spec, algebroid, rank, rng)))


def _task_morphism(data, algebroid, rng, bound):
    source = Algebroid.from_json(_need(data, "morphism", "source_algebroid"))
    partial = [[algebroid.chart.poly(p) for p in row]
               for row in _need(data, "morphism", "partial")]
    try:
        partial = check_morphism(source, algebroid, partial)
    except MorphismError as err:
        witness = {"message": str(err)}
        if err.pair is not None:
            witness["pair"] = list(err.pair)
        return {"checks": [_check("is_morphism", False, witness)]}
    nabla = _connection(data.get("connection"), algebroid, source.rank, rng)
    report = square_zero_check(morphism_rep(source, algebroid, partial, nabla))
    report["checks"].insert(0, _check("is_morphism", True))
    return report


def _task_transgression(data, algebroid, rng, bound):
    specs = _connection_specs(_need(data, "transgression", "connections"),
                              ("old", "new"), "is neither 'old' nor 'new'")
    index = data.get("index", 1)
    rank = specs.get("old", {}).get("rank", data.get("rank", algebroid.rank))
    old, new = (_connection(specs.get(key), algebroid, rank, rng)
                for key in ("old", "new"))
    t_form = transgression(old, new, index)
    diff = sigma_character(new, index).form - sigma_character(old, index).form
    matches = (algebroid.d(t_form) - diff).is_zero()
    checks = [_check("differential_matches_character_difference", matches)]
    results = {"transgression": t_form.to_json(),
               "rendered": render_form(t_form),
               "character_difference": diff.to_json()}
    return {"checks": checks, "results": results}


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


# ----------------------------------------------------------------------
# the schema check: each keyword appends (path, message) for what breaks it


def _check_type(value, kind, schema, path, out):
    if not _TYPES[kind](value):
        out.append((path, f"{value!r} is not of type {kind!r}"))


def _check_enum(value, choices, schema, path, out):
    if value not in choices:
        out.append((path, f"{value!r} is not one of {choices!r}"))


def _check_required(value, keys, schema, path, out):
    if isinstance(value, dict):
        out.extend((path, f"{key!r} is a required property")
                   for key in keys if key not in value)


def _check_properties(value, properties, schema, path, out):
    if isinstance(value, dict):
        for key, sub in properties.items():
            if key in value:
                _walk(value[key], sub, path + (key,), out)


def _check_additional(value, rule, schema, path, out):
    if not isinstance(value, dict):
        return
    known = schema.get("properties", {})
    extras = [key for key in value if key not in known]
    if rule is False and extras:
        verb = "was" if len(extras) == 1 else "were"
        names = ", ".join(repr(key) for key in sorted(extras))
        out.append((path, f"Additional properties are not allowed "
                          f"({names} {verb} unexpected)"))
    elif rule is not False:
        for key in extras:
            _walk(value[key], rule, path + (key,), out)


def _check_items(value, sub, schema, path, out):
    if isinstance(value, list):
        for position, item in enumerate(value):
            _walk(item, sub, path + (position,), out)


def _check_minimum(value, bound, schema, path, out):
    # Draft 7 compares any number, bools aside, with the minimum
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and value < bound):
        out.append((path, f"{value!r} is less than the minimum of {bound!r}"))


def _check_min_items(value, bound, schema, path, out):
    if isinstance(value, list) and len(value) < bound:
        words = "should be non-empty" if bound == 1 else "is too short"
        out.append((path, f"{value!r} {words}"))


def _check_max_items(value, bound, schema, path, out):
    if isinstance(value, list) and len(value) > bound:
        words = "is expected to be empty" if bound == 0 else "is too long"
        out.append((path, f"{value!r} {words}"))


# an integer is a JSON integer literal: 2.0 and true are not integers
_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
}

# the Draft 7 keywords SCHEMA uses; tests/test_schema.py fails on any other
_KEYWORDS = {
    "type": _check_type,
    "enum": _check_enum,
    "required": _check_required,
    "properties": _check_properties,
    "additionalProperties": _check_additional,
    "items": _check_items,
    "minimum": _check_minimum,
    "minItems": _check_min_items,
    "maxItems": _check_max_items,
}


def _walk(value, schema, path, out):
    """Append (path, message) for each keyword of `schema` that `value` breaks.

    Keywords are checked in the schema's order, as jsonschema does, so
    the messages at one path keep its order.
    """
    for keyword, rule in schema.items():
        _KEYWORDS[keyword](value, rule, schema, path, out)


def validate_problem(data):
    """Schema diagnostics for a problem payload; an empty list means valid."""
    errors = []
    _walk(data, SCHEMA, (), errors)
    errors.sort(key=lambda error: [str(p) for p in error[0]])
    return [f"{'/'.join(str(p) for p in path) or '<root>'}: {message}"
            for path, message in errors]


def run_problem(data, task=None, bound=None, seed=None):
    """Execute one problem dict and return its report (a plain dict).

    `task`, `bound` and `seed` override the file's fields of those names.
    """
    name = task or data.get("task")
    if name not in _DISPATCH:
        raise ParseError(f"unknown task {name!r}; expected one of {list(TASKS)}")
    algebroid = Algebroid.from_json(_need(data, name, "algebroid"))
    rng = random.Random(data.get("seed", 0) if seed is None else seed)
    report = _DISPATCH[name](data, algebroid, rng,
                             data.get("bound") if bound is None else bound)
    report["task"] = report["construction"] = name
    return report
