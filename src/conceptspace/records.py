"""Flat dataclasses from JSON dicts (configs; `asdict` goes back) and to CSV (histories)."""

from __future__ import annotations

import csv
import functools
import types
import typing
from dataclasses import fields
from pathlib import Path

# The JSON values a field annotated with each type takes. bool is an int
# subclass, so int and float fields name it to reject it; a float field keeps
# an int as given, so a config echoed back keeps its bytes.
_JSON_TYPES = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    dict: ("an object", lambda v: isinstance(v, dict)),
    type(None): ("null", lambda v: v is None),
}


@functools.cache
def _field_types(cls) -> dict[str, tuple]:
    """Per field of `cls`, the plain types its annotation allows: `X | None`
    gives (X, NoneType). Cached, since resolving the hints costs ~0.1 ms."""
    out = {}
    for name, hint in typing.get_type_hints(cls).items():
        union = typing.get_origin(hint) in (typing.Union, types.UnionType)
        out[name] = typing.get_args(hint) if union else (hint,)
    return out


def check_types(cls, d: dict) -> None:
    """Raise TypeError, naming the key, for a value of `d` its field of `cls` does not take."""
    for key, value in d.items():
        options = _field_types(cls)[key]
        if not any(_JSON_TYPES[t][1](value) for t in options):
            expected = " or ".join(_JSON_TYPES[t][0] for t in options)
            raise TypeError(f"{cls.__name__} {key} must be {expected}, got {value!r}")


def from_dict(cls, d: dict):
    """Build dataclass `cls` from `d`; a key that names no field, or a value
    of another type than its field's annotation, is an error."""
    if not isinstance(d, dict):
        raise TypeError(f"{cls.__name__} block must be an object, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s): {', '.join(unknown)}")
    check_types(cls, d)
    return cls(**d)


def write_csv(path: Path, cls, records) -> None:
    """A header of the field names of `cls`, then one row per record (floats as repr)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    names = [f.name for f in fields(cls)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows([getattr(r, name) for name in names] for r in records)
