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

# Field annotation -> coercion applied when JsonRecord.from_json loads a field.
_COERCE = {
    "float": float,
    "int": int,
    "bool": bool,
    "str": str,
    "np.ndarray": lambda v: np.array(v, dtype=float),
}


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def read_json(path):
    return json.loads(Path(path).read_text())


class JsonRecord:
    """Dataclass mixin: to_json maps the fields (arrays as lists); from_json
    coerces each field by its annotation, ignoring keys that are not fields
    (derived extras) and letting absent keys take the field default."""

    def to_json(self) -> dict:
        return {
            name: value.tolist() if isinstance(value, np.ndarray) else value
            for name, value in dataclasses.asdict(self).items()
        }

    @classmethod
    def from_json(cls, d):
        return cls(**{
            f.name: _COERCE.get(f.type, lambda v: v)(d[f.name])
            for f in dataclasses.fields(cls)
            if f.name in d
        })
