"""The problem-file schema check: `validate_problem` walks the one `SCHEMA`
dict itself, and jsonschema, a test dependency only, is its oracle."""

import copy
import itertools

import pytest

from gradweil import problems
from gradweil.problems import SCHEMA, validate_problem
from test_cli import _PAYLOADS, MUTATION_SITES, SMALL_VALUES, _at


def _schema_nodes(schema):
    """Every subschema of `schema`, itself included."""
    yield schema
    for keyword, rule in schema.items():
        if keyword == "properties":
            for sub in rule.values():
                yield from _schema_nodes(sub)
        elif keyword in ("items", "additionalProperties") and isinstance(rule, dict):
            yield from _schema_nodes(rule)


def test_the_walker_implements_every_keyword_the_schema_uses():
    # a keyword the walker does not know would fail every problem file with a
    # KeyError; name it here, with the type names and rule shapes it assumes
    nodes = list(_schema_nodes(SCHEMA))
    unknown = {keyword for node in nodes for keyword in node} - set(problems._KEYWORDS)
    assert not unknown, f"SCHEMA keywords the walker does not implement: {unknown}"
    for node in nodes:
        assert node.get("type", "object") in problems._TYPES
        assert node.get("additionalProperties", False) is False or isinstance(
            node["additionalProperties"], dict)
        # an enum is matched by ==, which agrees with Draft 7 only on strings
        assert all(isinstance(choice, str) for choice in node.get("enum", ()))


def _strict_draft7():
    """jsonschema's Draft 7 with `integer` a JSON integer literal: int, not bool."""
    jsonschema = pytest.importorskip("jsonschema")
    draft7 = jsonschema.Draft7Validator
    checker = draft7.TYPE_CHECKER.redefine(
        "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool))
    return jsonschema.validators.extend(draft7, type_checker=checker)(SCHEMA)


def _oracle_lines(validator, data):
    errors = sorted(validator.iter_errors(data),
                    key=lambda error: [str(p) for p in error.absolute_path])
    return [f"{'/'.join(str(p) for p in error.absolute_path) or '<root>'}: {error.message}"
            for error in errors]


def _leaves_set(value, leaf):
    """`value` with every string, number, bool and null in it replaced by `leaf`."""
    if isinstance(value, dict):
        return {key: _leaves_set(item, leaf) for key, item in value.items()}
    if isinstance(value, list):
        return [_leaves_set(item, leaf) for item in value]
    return leaf


def _mutations():
    """The corpus payloads, every 11th of MUTATION_SITES x SMALL_VALUES, every
    5th site dropped, and each payload with unknown keys added or with all its
    leaves set to one small value, so that many diagnostics must be sorted."""
    yield from _PAYLOADS.values()
    cases = itertools.product(MUTATION_SITES, SMALL_VALUES)
    for (name, path), value in itertools.islice(cases, 0, None, 11):
        payload = copy.deepcopy(_PAYLOADS[name])
        _at(payload, path[:-1])[path[-1]] = value
        yield payload
    for name, path in MUTATION_SITES[::5]:
        payload = copy.deepcopy(_PAYLOADS[name])
        parent = _at(payload, path[:-1])
        if isinstance(parent, dict):
            del parent[path[-1]]
            yield payload
    for payload in _PAYLOADS.values():
        yield {**payload, "zeta": 1}
        yield {"zeta": [], **payload, "alpha_": None, "10": 0, "2": 0}
        for leaf in SMALL_VALUES:
            yield _leaves_set(payload, leaf)


# each keyword on its own, at the edges of its wording (minItems 1 and
# maxItems 0 have words of their own), as SCHEMA does not reach them all
KEYWORD_SCHEMAS = [{"type": kind} for kind in ("object", "array", "string", "integer")] + [
    {"enum": ["a", "b"]}, {"required": ["b", "a"]}, {"minimum": 0}, {"minimum": 1},
    {"minItems": 1}, {"minItems": 3}, {"maxItems": 0}, {"maxItems": 3},
    {"items": {"type": "integer", "minimum": 1}},
    {"properties": {"b": {"type": "string"}, "a": {"type": "integer"}},
     "additionalProperties": False},
    {"additionalProperties": {"type": "string"}},
]
KEYWORD_VALUES = SMALL_VALUES + [
    "a", 1.5, -0.5, [0, 1, 2], [2, "x", 0, 1], [[], {}], {"a": 1}, {"c": 1},
    {"b": 2, "c": 3, "a": "x", "10": 0, "2": 0}]


@pytest.mark.parametrize("schema", KEYWORD_SCHEMAS, ids=str)
def test_each_keyword_words_its_diagnostics_as_jsonschema_does(schema, monkeypatch):
    validator = _strict_draft7().evolve(schema=schema)
    monkeypatch.setattr(problems, "SCHEMA", schema)
    for value in KEYWORD_VALUES:
        assert validate_problem(value) == _oracle_lines(validator, value), value


def test_validate_problem_agrees_with_jsonschema_line_for_line():
    validator = _strict_draft7()
    checked = refused = 0
    for payload in _mutations():
        expected = _oracle_lines(validator, payload)
        assert validate_problem(payload) == expected, payload
        checked += 1
        refused += bool(expected)
    assert checked > 2000 and refused > 1500
