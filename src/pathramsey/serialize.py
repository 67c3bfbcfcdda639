"""JSON helpers: exact rationals travel as "num/den" strings, reports carry a schema version.

Floats never appear in stored reports; everything in them is exact.
"""

from __future__ import annotations

import json
from fractions import Fraction
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


def _default(obj: Any) -> Any:
    """How json writes what it has no rule for: a Fraction as text, a frozenset sorted."""
    if isinstance(obj, Fraction):
        return frac_str(obj)
    if isinstance(obj, frozenset):
        return sorted(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dump_report(report: dict) -> str:
    """Canonical JSON text: sorted keys, fixed separators, trailing newline."""
    body = dict(report)
    if "schemaVersion" not in body:
        body = {"schemaVersion": SCHEMA_VERSION, **body}
    return json.dumps(body, sort_keys=True, separators=(",", ":"), default=_default) + "\n"
