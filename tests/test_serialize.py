"""Exact-rational JSON plumbing."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import pytest

from pathramsey.serialize import dump_report, frac_str, jsonable, parse_frac


class TestFractions:
    def test_round_trip(self):
        x = Fraction(-7, 12)
        assert parse_frac(frac_str(x)) == x

    def test_accepts_ints_and_decimal_strings(self):
        assert parse_frac(3) == 3
        assert parse_frac("0.05") == Fraction(1, 20)
        assert parse_frac("7/10") == Fraction(7, 10)

    def test_rejects_floats(self):
        with pytest.raises(ValueError):
            parse_frac(0.1)


class TestDumpReport:
    def test_schema_version_injected(self):
        doc = json.loads(dump_report({"x": 1}))
        assert doc["schemaVersion"] == 1

    def test_fractions_become_strings(self):
        text = dump_report({"d": Fraction(2, 3), "nested": [Fraction(1, 2)]})
        doc = json.loads(text)
        assert doc["d"] == "2/3" and doc["nested"] == ["1/2"]

    def test_canonical_bytes(self):
        a = dump_report({"b": 1, "a": Fraction(1, 3)})
        b = dump_report({"a": Fraction(1, 3), "b": 1})
        assert a == b
        assert a.endswith("\n")

    def test_jsonable_handles_tuples_and_sets(self):
        assert jsonable((1, 2)) == [1, 2]
        assert jsonable(frozenset({3, 1})) == [1, 3]

    def test_report_bytes_are_pinned(self):
        # Int keys become strings and sort as strings ("10" before "2"); a
        # Fraction inside a tuple, a frozenset of edges, a namedtuple and
        # nested lists are all converted; True, None and a float pass through.
        pair = namedtuple("pair", "u v")
        report = {"cert": {
            "byK": {2: "two", 10: "ten"}, "passed": True, "worst": None, "share": 0.25,
            "dev": (Fraction(-7, 12), 3), "removed": frozenset({(3, 4), (0, 2), (1, 5)}),
            "grid": [[1, [2, (3,)]], [], [pair(4, Fraction(1, 2))]],
        }}
        assert dump_report(report) == (
            '{"cert":{"byK":{"10":"ten","2":"two"},"dev":["-7/12",3],'
            '"grid":[[1,[2,[3]]],[],[[4,"1/2"]]],"passed":true,'
            '"removed":[[0,2],[1,5],[3,4]],"share":0.25,"worst":null},"schemaVersion":1}\n'
        )


def test_package_import_loads_serialize():
    # Report writers reach dump_report through the package, so a bare
    # `import pathramsey` must load the module.
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import pathramsey; print(pathramsey.serialize.dump_report({}), end='')"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True).stdout
    assert out == '{"schemaVersion":1}\n'
