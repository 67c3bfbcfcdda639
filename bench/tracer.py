"""In-memory span tracer that wraps pathramsey's public functions from outside.

The package is not instrumented: `Tracer.install` replaces each public
function of the traced modules at every name it is bound under (the modules
import each other with `from .x import y`, so `pipeline.verify_class_p` is a
second binding of `pseudorandom.verify_class_p`).  Each call then records a
span (name, start, end, parent, instance, counts) in a list kept in memory;
`restore` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

LAYERS = ("graphs", "pseudorandom", "partition", "colouring", "embedding", "pipeline", "serialize")

# Per-element helpers, called once per vertex-set pair or per JSON node: a span
# there costs more than the work it wraps and would move the self time of
# fit_density_certificate and dump_report into them.
UNSPANNED = frozenset({"pseudorandom.cross_count", "serialize.jsonable", "serialize.frac_str"})

ROOT = "instance"

NAME, START, END, PARENT, INSTANCE, COUNTS = range(6)


def _counts_fit(cert) -> dict:
    return {"pairs_checked": cert.pairs_checked}


def _counts_generate(result) -> dict:
    log = result[2]
    return {"attempts": log.attempts, "cycles_removed": log.cycles_found}


def _counts_arrow(verdict) -> dict:
    return {"colourings_searched": verdict.searched}


def _counts_step(outcome) -> dict:
    return {f"outcomes.{outcome.kind}": 1}


# Work counters read from return values, so no counter lives in the package.
COUNTERS = {
    "pseudorandom.fit_density_certificate": _counts_fit,
    "pseudorandom.generate_class_p": _counts_generate,
    "colouring.arrow_check": _counts_arrow,
    "pipeline.induction_step": _counts_step,
}


def public_functions(package) -> dict:
    """Map each public, non-generator function of the traced layers to its span name."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"{package.__name__}.{layer}"]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__ or inspect.isgeneratorfunction(obj):
                continue
            name = f"{layer}.{attr}"
            if name not in UNSPANNED:
                found[obj] = name
    return found


class Tracer:
    """Records spans around the traced functions while installed."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.instance: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.instance, None]
            spans.append(record)
            stack.append(idx)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if counter is not None:
                record[COUNTS] = counter(result)
            return result

        return spanned

    def install(self) -> int:
        """Patch every binding of every traced function; returns the binding count."""
        targets = public_functions(self.package)
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        prefix = self.package.__name__
        for mod_name, module in list(sys.modules.items()):
            if mod_name != prefix and not mod_name.startswith(prefix + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patched.append((module, attr, obj))
        return len(self._patched)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def run(self, key: str, call):
        """Run one instance under a root span; returns (result, wall seconds)."""
        self.instance = key
        t0 = perf_counter()
        result = self._wrap(ROOT, call)()
        wall = perf_counter() - t0
        self.instance = None
        return result, wall


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(idx, ())):
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(span[END] - span[START] - covered)
    return out


@dataclass
class FunctionStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counts: dict = field(default_factory=lambda: defaultdict(int))


def function_stats(spans) -> dict[str, FunctionStats]:
    """Calls, self time, inclusive time and summed counters per span name.

    Inclusive time skips a span nested in another span of the same name, so
    recursion is not counted twice.
    """
    stats: dict[str, FunctionStats] = defaultdict(FunctionStats)
    selfs = self_times(spans)
    for idx, span in enumerate(spans):
        st = stats[span[NAME]]
        st.calls += 1
        st.self_s += selfs[idx]
        parent = span[PARENT]
        while parent is not None and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent is None:
            st.total_s += span[END] - span[START]
        for k, v in (span[COUNTS] or {}).items():
            st.counts[k] += v
    return stats


RATES = {"pairs_per_s": "pairs_checked", "colourings_per_s": "colourings_searched"}


def per_layer_value(
    name: str, stats: dict[str, FunctionStats], overhead_s: float, traced: set[str]
) -> float:
    """Resolve one per-layer metric name, as listed in BENCHMARK.json, to its value.

    Names are `<layer>.<function>.<stat>` with stat `self_s`, `calls`, a
    counter from COUNTERS, or a rate in RATES (counter per inclusive second);
    `pipeline.outcomes.<kind>` counts induction-step outcomes and
    `trace.overhead_s` is traced minus untraced wall time.  `traced` holds
    the span names that exist, so a misspelt function raises instead of
    reading as zero.
    """
    if name == "trace.overhead_s":
        return overhead_s
    if name.startswith("pipeline.outcomes."):
        return stats["pipeline.induction_step"].counts["outcomes." + name.rsplit(".", 1)[1]]
    func, stat = name.rsplit(".", 1)
    if func not in traced:
        raise KeyError(f"per-layer metric {name!r} names no traced function")
    st = stats[func]
    if stat == "self_s":
        return st.self_s
    if stat == "calls":
        return st.calls
    if stat in RATES:
        return st.counts[RATES[stat]] / st.total_s if st.total_s else 0.0
    if func not in COUNTERS:
        raise KeyError(f"no counter for per-layer metric {name!r}")
    return st.counts[stat]
