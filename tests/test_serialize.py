"""Exact-rational JSON plumbing."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import pytest

from pathramsey.serialize import dump_report, frac_str, parse_frac

from serialize_reference import ref_dump_report


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

    def test_dump_report_handles_tuples_and_sets(self):
        assert dump_report({"t": (1, 2), "s": frozenset({3, 1})}) == '{"s":[1,3],"schemaVersion":1,"t":[1,2]}\n'

    def test_a_set_is_refused(self):
        # Only frozensets have a written form; a mutable set is a writer's bug.
        with pytest.raises(TypeError, match="set"):
            dump_report({"s": {1, 2}})

    def test_report_bytes_are_pinned(self):
        # Int keys sort as ints, then become strings (2 before 10); a
        # Fraction inside a tuple, a frozenset of edges, a namedtuple and
        # nested lists are all converted; True, None and a float pass through.
        pair = namedtuple("pair", "u v")
        report = {"cert": {
            "byK": {2: "two", 10: "ten"}, "passed": True, "worst": None, "share": 0.25,
            "dev": (Fraction(-7, 12), 3), "removed": frozenset({(3, 4), (0, 2), (1, 5)}),
            "grid": [[1, [2, (3,)]], [], [pair(4, Fraction(1, 2))]],
        }}
        assert dump_report(report) == (
            '{"cert":{"byK":{"2":"two","10":"ten"},"dev":["-7/12",3],'
            '"grid":[[1,[2,[3]]],[],[[4,"1/2"]]],"passed":true,'
            '"removed":[[0,2],[1,5],[3,4]],"share":0.25,"worst":null},"schemaVersion":1}\n'
        )


PAIR = namedtuple("pair", "u v")


def _random_value(rng: random.Random, depth: int):
    """A report value: leaves of every written kind, containers while depth lasts."""
    kind = rng.randrange(12 if depth else 7)
    if kind == 0:
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
    if kind == 1:
        return rng.choice([True, False, None])
    if kind == 2:
        return rng.randint(-10**12, 10**12)
    if kind == 3:
        return rng.choice([0.25, -1.5, 1e-9, 3.0, rng.random()])
    if kind == 4:
        return rng.choice(["", "a", "grey", "1/2", "\u00e9\n\"q\""])
    if kind == 5:
        return frozenset((rng.randrange(20), rng.randrange(20)) for _ in range(rng.randrange(6)))
    if kind == 6:
        return PAIR(rng.randrange(9), Fraction(rng.randrange(9), rng.randint(1, 9)))
    items = [_random_value(rng, depth - 1) for _ in range(rng.randrange(5))]
    if kind == 7:
        return items
    if kind == 8:
        return tuple(items)
    if kind == 9:
        return [tuple(rng.randrange(9) for _ in range(rng.randrange(4))) for _ in range(rng.randrange(4))]
    return {rng.choice(["a", "b", "k", "z", "schemaVersion", "10", "2"]): v for v in items}


def test_dump_report_matches_frozen_writer_on_random_reports():
    rng = random.Random(0)
    for _ in range(3000):
        report = {f"f{i}": _random_value(rng, rng.randrange(5)) for i in range(rng.randrange(6))}
        assert dump_report(report) == ref_dump_report(report), report


def test_package_import_loads_serialize():
    # Report writers reach dump_report through the package, so a bare
    # `import pathramsey` must load the module.
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import pathramsey; print(pathramsey.serialize.dump_report({}), end='')"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True).stdout
    assert out == '{"schemaVersion":1}\n'
