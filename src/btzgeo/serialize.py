"""Canonical JSON helpers.

Every artifact the package writes goes through canonical_dumps so a rebuilt
file is byte-identical: keys sorted, two-space indent, floats in shortest
round-trip form (Python repr), NaN/Inf rejected.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _numbers(v) -> bool:
    """A list or tuple of numbers, or of such arrays."""
    return isinstance(v, (list, tuple)) and all(_number(x) or _numbers(x) for x in v)


# Field annotation -> (JSON type check, conversion) applied when
# JsonRecord.from_json loads a field; a value that fails its check is a ValueError.
_LOAD = {
    "float": (_number, float),
    "int": (_integer, int),
    "bool": (lambda v: isinstance(v, bool), bool),
    "tuple[float, ...]": (lambda v: isinstance(v, (list, tuple)) and all(map(_number, v)), tuple),
}


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


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


class JsonRecord:
    """Dataclass mixin: to_json maps the fields (arrays as lists); from_json
    checks each field's JSON type against its annotation (bool fields take
    booleans, int fields integers, float fields numbers, float tuples lists
    of numbers), ignoring keys that are not fields (derived
    extras) and letting absent keys take the field default."""

    def to_json(self) -> dict:
        return {
            name: value.tolist() if isinstance(value, np.ndarray) else value
            for name, value in dataclasses.asdict(self).items()
        }

    @classmethod
    def from_json(cls, d):
        values = {}
        for f in dataclasses.fields(cls):
            if f.name in d:
                check, convert = _LOAD[f.type]
                if not check(d[f.name]):
                    raise ValueError(f"{cls.__name__} field {f.name!r} expects {f.type}, "
                                     f"got {d[f.name]!r}")
                values[f.name] = convert(d[f.name])
        return cls(**values)
