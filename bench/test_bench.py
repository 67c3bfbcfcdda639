"""Tests of the benchmark's own machinery.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import copy
import inspect
import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def bindings(package_name: str) -> dict:
    """Every function bound in every module of the package, by (module, attribute)."""
    return {
        (mod_name, attr): obj
        for mod_name, module in list(sys.modules.items())
        if mod_name == package_name or mod_name.startswith(package_name + ".")
        for attr, obj in vars(module).items()
        if inspect.isfunction(obj)
    }


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ["instance", 0.0, 10.0, None, "i", None],
            ["a", 1.0, 4.0, 0, "i", None],
            ["a.child", 2.0, 3.0, 1, "i", None],
            ["b", 5.0, 9.0, 0, "i", None],
        ]
        self.assertEqual(tracer.self_times(spans), [3.0, 2.0, 1.0, 4.0])
        stats = tracer.function_stats(spans)
        self.assertEqual(sum(st.self_s for st in stats.values()), 10.0)

    def test_overlapping_children_are_covered_once(self):
        spans = [["root", 0.0, 10.0, None, "i", None],
                 ["x", 1.0, 4.0, 0, "i", None], ["y", 3.0, 6.0, 0, "i", None]]
        self.assertEqual(tracer.self_times(spans)[0], 5.0)

    def test_recursion_counts_inclusive_time_once(self):
        spans = [["f", 0.0, 4.0, None, "i", None], ["f", 1.0, 3.0, 0, "i", None]]
        self.assertEqual(tracer.function_stats(spans)["f"].total_s, 4.0)


class TracerTest(unittest.TestCase):
    def test_wrappers_cover_and_restore_every_binding(self):
        pr = run.import_package()
        before = bindings(pr.__name__)
        targets = tracer.public_functions(pr)
        tr = tracer.Tracer(pr)
        try:
            self.assertGreater(tr.install(), len(targets))
            during = bindings(pr.__name__)
            still_original = [k for k, fn in during.items() if fn in targets]
            self.assertEqual(still_original, [])
            # a second binding made by `from .pseudorandom import verify_class_p`
            self.assertIsNot(pr.pipeline.verify_class_p, before[("pathramsey.pipeline", "verify_class_p")])
            g = pr.cycle_graph(10)
            pr.verify_class_p(g, pr.ClassPParams(pr.quad(1, 64, "1/2", "4/5"), t=2, n=10))
        finally:
            tr.restore()
        self.assertEqual(bindings(pr.__name__), before)
        names = {span[tracer.NAME] for span in tr.spans}
        self.assertLessEqual({"pseudorandom.verify_class_p", "pseudorandom.fit_density_certificate",
                              "graphs.girth_violation", "graphs.cycle_graph"}, names)
        self.assertNotIn("pseudorandom.cross_count", names)

    def test_every_per_layer_metric_resolves(self):
        pr = run.import_package()
        known = set(tracer.public_functions(pr).values())
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        stats = tracer.function_stats([])
        for m in spec["per_layer"]:
            self.assertIsNotNone(tracer.per_layer_value(m["name"], stats, 0.0, known), m["name"])
        with self.assertRaises(KeyError):
            tracer.per_layer_value("graphs.no_such_function.self_s", stats, 0.0, known)


class ExpectedVerdictTest(unittest.TestCase):
    def arrow_results(self, flip: str | None):
        expected = json.loads((BENCH / "expected" / "arrow.json").read_text())
        if flip is not None:
            expected = copy.deepcopy(expected)
            expected[flip]["arrows"] = not expected[flip]["arrows"]
        wl = workloads.Arrow(run.import_package(), 0, expected)
        return [run.run_one(wl.instance(4, "P4", 2, (0, 1, 2, 3))),
                run.run_one(wl.instance(5, "P4", 2, (3, 1, 0, 2)))]

    def test_expected_verdicts_hold(self):
        self.assertEqual(run.error_rate(self.arrow_results(None)), 0.0)

    def test_flipped_verdict_is_an_error(self):
        for case in ("K4-P4-s2", "K5-P4-s2"):
            self.assertEqual(run.error_rate(self.arrow_results(case)), 0.5, case)


class TailTest(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond(self):
        samples = [float(i) for i in range(1, 101)]
        self.assertEqual(run.tail(samples), ("p90", 90.0))
        self.assertEqual(run.tail(samples[:50]), ("p80", 40.0))
        self.assertEqual(run.tail(samples[:49]), ("max", 49.0))


if __name__ == "__main__":
    unittest.main()
