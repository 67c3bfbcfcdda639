"""Reference report writer, kept for differential tests.

This is the writer `serialize.dump_report` must agree with byte for byte on
every string-keyed report: a recursive walk that turns Fractions into
"num/den" strings, tuples into lists and frozensets into lists sorted by
their converted values, with plain leaves and flat arrays taken on fast
paths, before `json.dumps` writes the result.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain
from typing import Any

from pathramsey.serialize import SCHEMA_VERSION, frac_str

_PLAIN = frozenset({int, str, bool, float, type(None)})
_ARRAYS = frozenset({list, tuple})


def ref_jsonable(obj: Any) -> Any:
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
        return {str(k): ref_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [v if type(v) in _PLAIN else ref_jsonable(v) for v in obj]
    if isinstance(obj, frozenset):
        return sorted(ref_jsonable(v) for v in obj)
    return obj


def ref_dump_report(report: dict) -> str:
    body = dict(report)
    if "schemaVersion" not in body:
        body = {"schemaVersion": SCHEMA_VERSION, **body}
    return json.dumps(ref_jsonable(body), sort_keys=True, separators=(",", ":")) + "\n"
