"""Canonical JSON helpers and the one reader of JSON input.

Every artifact the package writes goes through canonical_dumps so a rebuilt
file is byte-identical: keys sorted, two-space indent, floats in shortest
round-trip form (Python repr), NaN/Inf rejected: the bytes of
``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)``, written
directly, since json's C encoder ignores ``indent`` and its Python encoder
takes about 1.4 us per item, where this writer joins a list of floats at once.

Every JSON input goes through ``read``, which checks a value against a small
declarative schema and raises one ValueError naming the path of the first
value that breaks it, such as ``generators.c1.so12.2``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import numbers
import re
from collections import namedtuple
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

# schema of an optional object key: the schema of its value, and the value it
# takes when absent
Default = namedtuple("Default", "schema value")

# scalar schema -> (Python types of its JSON values, description)
_SCALARS = {float: ((int, float), "a number"), int: (int, "an integer"),
            bool: (bool, "a boolean"), str: (str, "a string")}


def read(value, schema, path: str = ""):
    """``value`` checked against ``schema``, returned with numbers as floats,
    fixed lists as tuples and absent optional keys filled in.  A schema is a
    JSON scalar type (``float``, ``int``, ``bool``, ``str``; an integer is a
    number, a boolean is not), ``object`` (any value), a string or integer
    literal, a set of scalar schemas (any one of them), a tuple (one schema per
    list item), ``[s]`` (a list of any length), ``{str: s}`` (an object with any
    keys) or a dict (exactly its keys, each required unless its schema is a
    Default).  A failure is a ValueError naming ``path`` and the keys and list
    indices below it that lead to the failing value."""
    where = path or "the top level"
    if schema is object:
        return value
    if isinstance(schema, type):
        kinds, expected = _SCALARS[schema]
        if isinstance(value, kinds) and isinstance(value, bool) == (schema is bool):
            return float(value) if schema is float else value
    elif isinstance(schema, set):
        for alternative in schema:
            try:
                return read(value, alternative, path)
            except ValueError:
                pass
        expected = " or ".join(sorted(_SCALARS[s][1] if isinstance(s, type) else repr(s)
                                      for s in schema))
    elif isinstance(schema, (tuple, list)):
        expected = "a list"
        if isinstance(value, (list, tuple)):
            if isinstance(schema, tuple) and len(value) != len(schema):
                raise ValueError(f"{where} has the wrong length: expected {len(schema)} "
                                 f"items, got {len(value)}")
            schemas = schema if isinstance(schema, tuple) else schema * len(value)
            items = [read(v, s, _join(path, i)) for i, (v, s) in enumerate(zip(value, schemas))]
            return tuple(items) if isinstance(schema, tuple) else items
    elif isinstance(schema, dict):
        expected = "an object"
        if isinstance(value, dict):
            return _read_object(value, schema, path)
    elif type(value) is type(schema) and value == schema:
        return value
    else:
        raise ValueError(f"{where} must be {schema!r}, got {value!r}")
    raise ValueError(f"{where} has the wrong JSON type: expected {expected}, got {value!r}")


def _read_object(value: dict, schema: dict, path: str) -> dict:
    if str in schema:
        return {k: read(v, schema[str], _join(path, k)) for k, v in value.items()}
    for key in value:
        if key not in schema:
            raise ValueError(f"{_join(path, key)} is not a known key")
    out = {}
    for key, s in schema.items():
        if key in value:
            out[key] = read(value[key], s.schema if isinstance(s, Default) else s,
                            _join(path, key))
        elif isinstance(s, Default):
            out[key] = s.value
        else:
            raise ValueError(f"{_join(path, key)} is missing")
    return out


@contextlib.contextmanager
def constructing(path: str, keys):
    """Run a record's constructor for the reader at ``path``: a ValueError it
    raises names that path, joined as a key path where its message starts with
    one of the record's JSON ``keys`` (``gluings.1.right references ...``
    becomes ``bundle.triangulation.gluings.1.right references ...``), else as
    a prefix (``bundle.triangulation: every edge ...``).  At the top level,
    path "", the message is unchanged."""
    try:
        yield
    except ValueError as e:
        if not path:
            raise
        head = re.match(r"(\w+)[ .:]", str(e))
        raise ValueError(f"{path}{'.' if head and head[1] in keys else ': '}{e}") from None


def _real(name: str, value) -> float:
    """``value`` as a float; ValueError if it is a bool or not a real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def canonical_dumps(obj) -> str:
    """``obj`` in canonical JSON plus a newline; a non-finite float raises
    json's ValueError, any other object or a key that is not a str TypeError."""
    return _encode(obj, "\n") + "\n"


def _encode(obj, newline: str) -> str:
    # ``newline`` is "\n" plus obj's indent; floats, the most common, first
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        return float.__repr__(obj)
    if isinstance(obj, str):
        return _quote(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_quote(k) + ": " + _encode(obj[k], inner) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if type(obj[0]) is float:  # most lists hold floats only: one join
            try:
                text = ("," + inner).join(map(float.__repr__, obj))
            except TypeError:  # an item that is not a float
                pass
            else:
                if "n" in text:  # inf or nan: json's error for the first one
                    _encode(next(x for x in obj if not math.isfinite(x)), inner)
                return "[" + inner + text + newline + "]"
        return "[" + inner + ("," + inner).join([_encode(x, inner) for x in obj]) + newline + "]"
    if obj is None:
        return "null"
    if type(obj) is bool:  # before int, as in json; no other JSON types overlap
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def read_json(path):
    return json.loads(Path(path).read_text())


def json_mismatch(given, expected, path: str) -> str | None:
    """Path of the first place where JSON value ``given`` differs from
    ``expected`` (keys and indices in sorted order), or None if they are equal.
    Types are strict: a bool is not a number and an int is not a float."""
    if type(given) is not type(expected):
        return path
    if isinstance(expected, list):
        given, expected = dict(enumerate(given)), dict(enumerate(expected))
    if isinstance(expected, dict):
        for key in sorted(set(given) | set(expected)):
            if key not in given or key not in expected:
                return f"{path}.{key}"
            found = json_mismatch(given[key], expected[key], f"{path}.{key}")
            if found:
                return found
        return None
    return None if given == expected else path


# JsonRecord field annotation -> schema of its JSON value
_ANNOTATION_SCHEMA = {"float": float, "int": int, "bool": bool, "tuple[float, ...]": [float]}


class JsonRecord:
    """Dataclass mixin: to_json maps the fields (arrays as lists); from_json
    reads an object whose keys are the fields, with the schemas of their
    annotations, a field with a default being an optional key.  Fields are
    read shallowly: no record holds a dataclass, so the copies that
    ``dataclasses.asdict`` makes would give the same JSON."""

    def to_json(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
        return out

    @classmethod
    def from_json(cls, d, path: str = ""):
        schema = {f.name: _ANNOTATION_SCHEMA[f.type] if f.default is dataclasses.MISSING
                  else Default(_ANNOTATION_SCHEMA[f.type], f.default)
                  for f in dataclasses.fields(cls)}
        return cls(**read(d, schema, path))
