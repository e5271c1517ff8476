"""Shipped JSON schemas compiled into plain Python predicates.

`compile_schema(schema)` returns a function that is True exactly when
stock jsonschema finds `schema` valid for a JSON document, with no
jsonschema code on the way.  `ccm.cli` imports this module only once it
checks a document.
"""
from __future__ import annotations

import re

_DIALECT = "https://json-schema.org/draft/2020-12/schema"
_NUMBER = (int, float)
_TYPES = {
    "array": (list,),
    "boolean": (bool,),
    "integer": (int,),
    "null": (type(None),),
    "number": _NUMBER,
    "object": (dict,),
    "string": (str,),
}


def compile_schema(root: dict):
    """A predicate that is True exactly when stock 2020-12 validation against `root` passes.

    Documents are values as `json.load` builds them, so types are tested
    exactly: a bool is not a number, an integer-valued float is an
    integer, and `enum`/`const` tell True from 1.  Only the keywords the
    shipped schemas use compile, with local `$ref`s resolved against
    `root`; any other keyword or form raises NotImplementedError here.
    """
    if root.get("$schema") != _DIALECT:
        raise NotImplementedError(f"dialect {root.get('$schema')!r}")

    def target(ref: str) -> dict:
        if not ref.startswith("#/") or "~" in ref or "%" in ref:
            raise NotImplementedError(f"$ref {ref!r}")
        schema = root
        for key in ref[2:].split("/"):
            schema = schema[key]
        return schema

    def node(schema, skip=()):
        if type(schema) is not dict:
            raise NotImplementedError(f"schema {schema!r}")
        checks = []
        for key, value in schema.items():
            check = None if key in skip else keyword(key, value, schema)
            if check is not None:
                checks.append(check)
        return _every(checks)

    def keyword(key, value, schema):
        if key == "type":
            return _type_check(value)[1]
        if key in ("enum", "const"):
            values = value if key == "enum" else [value]
            if any(type(v) in (list, dict) for v in values):
                raise NotImplementedError(f"{key} {value!r}")
            keys = {(type(v) is bool, v) for v in values}
            return lambda x: type(x) not in (list, dict) and (type(x) is bool, x) in keys
        if key == "required":
            names = tuple(value)
            return lambda x: type(x) is not dict or all(k in x for k in names)
        if key == "properties":
            pairs = [(k, node(v)) for k, v in value.items()]

            def properties(x):
                if type(x) is dict:
                    for k, check in pairs:
                        if k in x and not check(x[k]):
                            return False
                return True

            return properties
        if key == "additionalProperties":
            if value is not False:
                raise NotImplementedError(f"additionalProperties {value!r}")
            known = frozenset(schema.get("properties", ()))
            return lambda x: type(x) is not dict or x.keys() <= known
        if key == "items":
            each = node(value)
            inner = value
            while inner.keys() == {"$ref"}:
                inner = target(inner["$ref"])
            if inner.keys() != {"type"}:
                return lambda x: type(x) is not list or all(map(each, x))
            # One pass over the element types; the per-element check runs
            # only for an array that fails it, e.g. integer-valued floats.
            exact = _type_check(inner["type"])[0]
            return lambda x: type(x) is not list or set(map(type, x)) <= exact or all(map(each, x))
        if key == "minItems":
            return lambda x: type(x) is not list or len(x) >= value
        if key == "maxItems":
            return lambda x: type(x) is not list or len(x) <= value
        # Written as stock writes them, so NaN passes both bounds.
        if key == "minimum":
            return lambda x: type(x) not in _NUMBER or not x < value
        if key == "exclusiveMinimum":
            return lambda x: type(x) not in _NUMBER or not x <= value
        if key == "pattern":
            search = re.compile(value).search
            return lambda x: type(x) is not str or search(x) is not None
        if key == "anyOf":
            options = [node(s) for s in value]
            return lambda x: any(check(x) for check in options)
        if key == "allOf":
            return _every([node(s) for s in value])
        if key == "if":
            condition, then = node(value), node(schema.get("then", {}))
            return lambda x: not condition(x) or then(x)
        if key == "then":
            return None  # applied by "if"; stock ignores it alone
        if key == "$ref":
            return node(target(value))
        raise NotImplementedError(f"keyword {key!r}")

    return node(root, skip=("$schema", "$id", "$defs", "title"))


def _every(checks: list):
    if len(checks) == 1:
        return checks[0]

    def every(x):
        for check in checks:
            if not check(x):
                return False
        return True

    return every


def _type_check(kinds):
    """(exact Python types, check) for a `type` keyword's value."""
    names = [kinds] if type(kinds) is str else kinds
    if type(names) is not list or not set(names) <= _TYPES.keys():
        raise NotImplementedError(f"type {kinds!r}")
    exact = frozenset(t for name in names for t in _TYPES[name])
    if "integer" in names and float not in exact:
        return exact, lambda x: type(x) in exact or type(x) is float and x.is_integer()
    return exact, lambda x: type(x) in exact
