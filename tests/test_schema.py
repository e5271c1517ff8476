"""`cli.schema_validate` reports what the stock jsonschema validator reports.

A document passes on each schema's compiled predicate
(`ccm._schemacheck.compile_schema`), which must be True exactly when stock
validation passes; every document, valid or not, must still get the stock
`best_match` error, or none.
"""
import contextlib
import copy
import functools
import io
import json
import os
from importlib import resources

import jsonschema
import numpy as np
import pytest
from jsonschema.exceptions import best_match

from ccm import cli
from ccm._schemacheck import compile_schema

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

DATA = os.path.join(os.path.dirname(__file__), "data")
PROBLEM, CERTIFICATE = "problem.schema.json", "certificate.schema.json"
MARKETS = ["cakes.json", "office1.json", "office2.json", "pair.json", "town.json"]


def _ccm(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return json.loads(out.getvalue())


@functools.lru_cache(maxsize=None)
def _documents() -> tuple:
    """(schema name, document): every fixture, its certificates and one sweep certificate."""
    docs = []
    for name in sorted(os.listdir(DATA)):
        path = os.path.join(DATA, name)
        with open(path) as fh:
            docs.append((PROBLEM, json.load(fh)))
        if name in MARKETS:
            docs.append((CERTIFICATE, _ccm("solve", path)))
    docs.append((CERTIFICATE, _ccm("solve", os.path.join(DATA, "office1.json"), "--sweep", "4")))
    docs.append((CERTIFICATE, _ccm("nash", os.path.join(DATA, "cakes-bargaining.json"))))
    return tuple(docs)


@functools.lru_cache(maxsize=None)
def _schema(name: str) -> dict:
    return json.loads(resources.files("ccm.schemas").joinpath(name).read_text())


def _stock(name: str):
    schema = _schema(name)
    return jsonschema.validators.validator_for(schema)(schema)


def _reported(error):
    return None if error is None else (error.message, list(error.path), list(error.schema_path))


def _assert_same_report(doc, name: str):
    try:
        cli.schema_validate(doc, name)
        ours = None
    except jsonschema.ValidationError as exc:
        ours = _reported(exc)
    assert ours == _reported(best_match(_stock(name).iter_errors(doc)))
    return ours


def test_shipped_schemas_pass_their_meta_schema():
    # `ccm` meta-checks a schema only once a document fails its predicate.
    for name in (PROBLEM, CERTIFICATE):
        jsonschema.validators.validator_for(_schema(name)).check_schema(_schema(name))


def test_shipped_schemas_are_single_resources():
    # The predicate resolves local `$ref`s against the document root, which
    # is right only while no subschema opens a resource of its own.
    def embedded_ids(node):
        children = list(node.values()) if isinstance(node, dict) else node if isinstance(node, list) else []
        return sum(isinstance(c, dict) and "$id" in c for c in children) + sum(map(embedded_ids, children))

    for name in (PROBLEM, CERTIFICATE):
        assert "$id" in _schema(name) and embedded_ids(_schema(name)) == 0


def test_every_fixture_document_is_valid_on_both_validators():
    for name, doc in _documents():
        assert _assert_same_report(doc, name) is None


@pytest.mark.parametrize(
    "name, doc",
    [
        (PROBLEM, {"type": "collective", "utilities": [[1, True], [0, 1]]}),
        (PROBLEM, {"type": "bargaining", "generators": [[0, 1], [1, False]]}),
        (CERTIFICATE, {"kind": "nash", "version": "0", "problem_sha256": "0" * 64,
                       "tolerances": {}, "q": [0.5, True]}),
        (CERTIFICATE, {"kind": "lindahl", "version": "0", "problem_sha256": "0" * 64,
                       "tolerances": {}, "p": [[1.0, 0], [True, 2.0]]}),
    ],
)
def test_a_bool_among_numbers_is_the_stock_error(name, doc):
    assert _assert_same_report(doc, name) is not None


def test_an_inner_sweep_certificate_is_typed_as_the_top_level_one():
    (sweep,) = [doc for _, doc in _documents() if doc.get("kind") == "lindahl_sweep"]
    for field, value in [("q", {"a": 1}), ("p", [[1.0, True]]), ("payoffs", ["1"]),
                         ("alpha", [None]), ("c", 0.5)]:
        doc = copy.deepcopy(sweep)
        doc["certificates"][0][field] = value
        assert _assert_same_report(doc, CERTIFICATE) is not None
    doc = copy.deepcopy(sweep)
    doc["certificates"][1] = [1.0]
    assert _assert_same_report(doc, CERTIFICATE) is not None


ARRAYS = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "plain": {"type": "array", "items": {"$ref": "#/$defs/number"}},
        "bounded_def": {"type": "array", "items": {"$ref": "#/$defs/positive"}},
        "ref_with_sibling": {"type": "array", "items": {"$ref": "#/$defs/number", "minimum": 0}},
        "bounded": {"type": "array", "items": {"type": "number", "minimum": 0}},
        "integers": {"type": "array", "items": {"type": "integer"}},
        "two_hops": {"type": "array", "items": {"$ref": "#/$defs/alias"}},
    },
    "$defs": {
        "number": {"type": "number"},
        "positive": {"type": "number", "minimum": 0},
        "alias": {"$ref": "#/$defs/positive"},
    },
}


@pytest.mark.parametrize(
    "doc",
    [{"bounded_def": [1, -1]}, {"ref_with_sibling": [2, -1.5]}, {"bounded": [-1]},
     {"integers": [1, 1.5]}, {"two_hops": [3, -3]}, {"plain": [1, "2"]}, {"plain": [1, True]}],
)
def test_schemas_that_constrain_more_than_type_get_the_stock_errors(doc):
    # The predicate rejects each array, so schema_validate reports stock's error.
    assert compile_schema(ARRAYS)(doc) is False
    assert not jsonschema.validators.validator_for(ARRAYS)(ARRAYS).is_valid(doc)


@pytest.mark.parametrize(
    "doc", [{"integers": [1, 2.0]}, {"bounded": [0, 0.5]}, {"two_hops": [0, 3]}, {"plain": []}]
)
def test_arrays_valid_on_the_stock_validator_pass_the_predicate(doc):
    assert compile_schema(ARRAYS)(doc) is True
    assert jsonschema.validators.validator_for(ARRAYS)(ARRAYS).is_valid(doc)


KEYWORDS = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "properties": {
        "enum": {"enum": [1, "a", None]},
        "const": {"const": True},
        "closed": {"properties": {"a": {}}, "additionalProperties": False},
        "hex": {"type": "string", "pattern": "^[0-9a-f]{2}$"},
        "positive": {"exclusiveMinimum": 0},
        "least": {"minimum": 0},
        "either": {"anyOf": [{"type": "integer"}, {"type": "null"}]},
    },
}


@pytest.mark.parametrize(
    "doc",
    [{"enum": 1.0}, {"enum": True}, {"enum": "a"}, {"enum": [1]}, {"const": True}, {"const": 1},
     {"closed": {"a": 0}}, {"closed": {"a": 0, "b": 0}}, {"hex": "0f"}, {"hex": "0f\n"},
     {"hex": "0F"}, {"positive": float("nan")}, {"positive": 0}, {"positive": "x"},
     {"least": float("nan")}, {"least": -1}, {"least": 0},
     {"either": 2.0}, {"either": 2.5}, {"either": False}, []],
)
def test_keywords_decide_as_stock_decides(doc):
    stock = jsonschema.validators.validator_for(KEYWORDS)(KEYWORDS)
    assert compile_schema(KEYWORDS)(doc) is stock.is_valid(doc)


@pytest.mark.parametrize(
    "schema",
    [
        {"if": {"type": "string"}, "then": {"minItems": 1}, "else": {"type": "array"}},
        {"prefixItems": [{"type": "number"}]},
        {"type": "object", "additionalProperties": {"type": "number"}},
        {"$ref": "other.json#/$defs/number"},
        {"$ref": "#/$defs/a~1b"},
        {"type": "float"},
        {"type": "array", "items": True},
        {"enum": [[1, 2]]},
        {"properties": {"x": {"$id": "x", "type": "number"}}},
        {"$schema": "http://json-schema.org/draft-07/schema#", "type": "number"},
    ],
)
def test_unsupported_keywords_and_forms_raise_at_compile_time(schema):
    with pytest.raises(NotImplementedError):
        compile_schema({"$schema": ARRAYS["$schema"], **schema})


# -- mutations ---------------------------------------------------------------

LEAVES = [True, None, "x", [], {}, float("nan"), int("9" * 400), -1, 0, 1.0, 1.5]


def _positions(node, path=()):
    """(path, value) of every node below the root."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from _positions(value, path + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def _mutants(draw):
    name, doc = draw(st.sampled_from(_documents()))
    doc = copy.deepcopy(doc)
    positions = list(_positions(doc))
    leaves = [p for p, v in positions if not isinstance(v, (dict, list))]
    keys = [p for p, _ in positions if isinstance(_parent(doc, p), dict)]
    rows = [
        p for p, v in positions
        if isinstance(v, list) and v and not any(isinstance(x, (dict, list)) for x in v)
    ]
    kind = draw(st.sampled_from(["leaf", "delete", "wrap"] if rows else ["leaf", "delete"]))
    if kind == "leaf":
        path = draw(st.sampled_from(leaves))
        _parent(doc, path)[path[-1]] = draw(st.sampled_from(LEAVES))
    elif kind == "delete":
        path = draw(st.sampled_from(keys))
        del _parent(doc, path)[path[-1]]
    else:
        path = draw(st.sampled_from(rows))
        _parent(doc, path)[path[-1]] = [_parent(doc, path)[path[-1]]]
    return name, doc


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300, database=None)
@hypothesis.given(_mutants())
def test_mutated_documents_get_the_stock_report(mutant):
    name, doc = mutant
    _assert_same_report(doc, name)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=1000, database=None)
@hypothesis.given(_mutants())
def test_the_compiled_predicate_is_stock_validity(mutant):
    name, doc = mutant
    assert cli._predicate(name)(doc) is _stock(name).is_valid(doc)


# -- _matrix -----------------------------------------------------------------

_numeric_text = st.one_of(
    st.floats().map(repr),
    st.floats().map(lambda v: f" {v:+E}\t"),
    st.integers(-(10**30), 10**30).map(str),
    st.integers(0, 10**9).map(lambda v: f"{v:_}"),
    st.sampled_from(["1_0", " 2 ", "+.5", "-0", "inf", "-Infinity", "nan", "1e400", "1e-400", "١٢"]),
)
_entry = st.one_of(_numeric_text, st.floats(), st.integers(-(10**18), 10**18))


@st.composite
def _numeric_matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return [[draw(_entry) for _ in range(cols)] for _ in range(rows)]


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300, database=None)
@hypothesis.given(_numeric_matrices())
def test_matrix_parses_as_float_parses_each_entry(rows):
    parsed = np.array([[float(x) for x in row] for row in rows])
    if not np.isfinite(parsed).all():
        with pytest.raises(ValueError, match="numbers must be finite"):
            cli._matrix(rows)
    else:
        assert cli._matrix(rows).tobytes() == parsed.tobytes()


@pytest.mark.parametrize(
    "rows, message",
    [
        ([["0x10", 1]], "could not convert string to float: '0x10'"),
        ([[1, 2], [3]], None),
        ([[1, int("9" * 400)]], "numbers must be finite"),
        ([["1", "-inf"]], "numbers must be finite"),
        ({"a": [1]}, "not 'dict'"),
    ],
)
def test_matrix_rejects_what_float_rejects(rows, message):
    with pytest.raises(ValueError, match=message):
        cli._matrix(rows)
