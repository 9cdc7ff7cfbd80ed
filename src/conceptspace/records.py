"""Flat dataclasses from JSON dicts (configs; `asdict` goes back) and to CSV (histories)."""

from __future__ import annotations

import csv
from dataclasses import fields
from pathlib import Path


def from_dict(cls, d: dict):
    """Build dataclass `cls` from `d`; a key that names no field is an error, not ignored."""
    if not isinstance(d, dict):
        raise TypeError(f"{cls.__name__} block must be an object, got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s): {', '.join(unknown)}")
    return cls(**d)


def write_csv(path: Path, cls, records) -> None:
    """A header of the field names of `cls`, then one row per record (floats as repr)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    names = [f.name for f in fields(cls)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows([getattr(r, name) for name in names] for r in records)
