"""JSON helpers: exact rationals travel as "num/den" strings, reports carry a schema version.

Floats never appear in stored reports; everything in them is exact.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from typing import Any

SCHEMA_VERSION = 1


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_frac(value: Any) -> Fraction:
    """Accept "num/den" strings, decimal strings, ints, and Fractions; not bools."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"refusing to parse {value!r} as a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        raise ValueError("refusing to parse a float as an exact rational; pass a string")
    raise ValueError(f"cannot parse {value!r} as a rational")


_PLAIN = frozenset({int, str, bool, float, type(None)})  # leaves JSON takes as they are
_ARRAYS = frozenset({list, tuple})  # json writes both as arrays


def jsonable(obj: Any) -> Any:
    """Recursively convert Fractions and tuples into JSON-friendly values.

    A plain leaf, matched by exact type, returns before any isinstance test
    (a Fraction test goes through ABCMeta).  A plain list or tuple of plain
    leaves, or of plain lists and tuples of them, is copied into a list after
    C-level scans, inner sequences as they are: json writes them as arrays.
    Elsewhere list and tuple items that are plain leaves are kept inline,
    without a call each.  Subclasses of those types take the isinstance path.
    """
    if type(obj) in _PLAIN:
        return obj
    if type(obj) in _ARRAYS and (
        _PLAIN.issuperset(map(type, obj))
        or _ARRAYS.issuperset(map(type, obj)) and _PLAIN.issuperset(map(type, chain.from_iterable(obj)))
    ):
        return list(obj)
    if isinstance(obj, Fraction):
        return frac_str(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [v if type(v) in _PLAIN else jsonable(v) for v in obj]
    if isinstance(obj, frozenset):
        return sorted(jsonable(v) for v in obj)
    return obj


def dump_report(report: dict) -> str:
    """Canonical JSON text: sorted keys, fixed separators, trailing newline."""
    body = dict(report)
    if "schemaVersion" not in body:
        body = {"schemaVersion": SCHEMA_VERSION, **body}
    return json.dumps(jsonable(body), sort_keys=True, separators=(",", ":")) + "\n"
