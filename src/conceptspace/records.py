"""Flat dataclasses from JSON dicts (configs; `asdict` goes back), and the one CSV
writer (training histories and the eval drift export)."""

from __future__ import annotations

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


def from_dict(cls, d: dict):
    """Build dataclass `cls` from `d`; a key that names no field, or a value
    of another type than its field's annotation, is an error naming the key."""
    if not isinstance(d, dict):
        raise TypeError(f"{cls.__name__} block must be an object, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s): {', '.join(unknown)}")
    allowed = _field_types(cls)
    for key, value in d.items():
        options = allowed[key]
        if not any(_JSON_TYPES[t][1](value) for t in options):
            expected = " or ".join(_JSON_TYPES[t][0] for t in options)
            raise TypeError(f"{cls.__name__} {key} must be {expected}, got {value!r}")
    return cls(**d)


def record_rows(cls, records) -> tuple[list[str], list[list]]:
    """The field names of dataclass `cls`, and each record's values in that order."""
    names = [f.name for f in fields(cls)]
    return names, [[getattr(r, name) for name in names] for r in records]


def write_csv(path: Path, header, rows) -> None:
    """`header`, then each row: values as str (floats as repr) joined by commas,
    every line ended by \r\n. These are csv.writer's bytes for values that
    need no quoting: names, numbers and the history's phase words."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(map(str, row)) + "\r\n" for row in [header, *rows])
