"""Benchmark of pathramsey's constructive chain: class-P certification, the
induction step and the arrow oracle.

    python3 bench/run.py --workload {classp,step,arrow} --seed N --seconds S --trace {0,1}

Run from the repository root.  One single-threaded process drives the
package's public API in-process from ./src.  Set-up (package import plus input
construction) is repeated SETUP_REPEATS times and its median reported.  The
workload then runs whole rounds of instances until they have taken S seconds
at reference speed (below).
Every output is checked against expected/<workload>.json and re-checked by
oracle.py, and its canonical report is hashed and compared with digests.json.

On a shared host the same code runs up to twice as fast in one period of
seconds as in the next.  So a fixed pure-Python reference kernel, independent
of the package, is timed before and after every instance and, from a SIGALRM
handler, every PROBE_INTERVAL_S within it.  Each end-to-end time is scaled by
the kernel's mean time over the instance to the speed at which the kernel
takes REFERENCE_S: seconds as on an uncontended core.  The handler's own time
is not counted, and the raw wall-clock figures are printed beside the scaled.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
untraced for S/2 seconds in the same way, replays the same instances with every public
function of the traced layers wrapped in a span, and reports the per-layer
metrics of BENCHMARK.json.  The last line of standard output is one JSON
object; the details go to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
PACKAGE = "pathramsey"
SETUP_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99, 95, 90, 80)
TAIL_BEYOND = 10
# The reference kernel's time on an uncontended core of the 2-vCPU Xeon VM
# the benchmark was tuned on.
REFERENCE_S = 0.002
PROBE_INTERVAL_S = 0.25


@dataclass
class Result:
    key: str
    family: str
    seconds: float
    problems: list[str]
    digest: str | None
    scaled: float | None = None  # seconds at reference speed


def reference_kernel() -> int:
    """Fixed work in the package's operation mix: masks and popcounts, a dict, Fraction sums."""
    acc, table, frac = 0, {}, Fraction(0)
    for i in range(3000):
        x = (i * 2654435761) & 0xFFFFFFFFFF
        acc += (x & (x >> 7)).bit_count()
        table[x & 255] = table.get(x & 255, 0) + 1
        if i % 50 == 0:
            frac += Fraction(i, 97)
    return acc + len(table) + frac.numerator


def kernel_seconds() -> float:
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0


class SpeedProbe:
    """Samples the reference kernel's time at the edges of each timed call and
    every PROBE_INTERVAL_S inside it, so a call of any length is scaled by the
    machine's speed while it ran."""

    def __init__(self):
        self.samples: list[float] = []
        self.in_handler = 0.0
        self.last_scaled: float | None = None
        self._busy = False

    def _sample(self) -> None:
        self._busy = True
        self.samples.append(kernel_seconds())
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        t0 = perf_counter()
        self._sample()
        self.in_handler += perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def run(self, key: str, call):
        """Time call() less the handler's share; its scaled time goes to last_scaled."""
        first = len(self.samples) - 1
        handler_before = self.in_handler
        t0 = perf_counter()
        try:
            out = call()
        finally:
            wall = perf_counter() - t0 - (self.in_handler - handler_before)
            self._sample()
            self.last_scaled = wall * REFERENCE_S / statistics.fmean(self.samples[first:])
        return out, wall


def import_package():
    """Import the package afresh, so every set-up repeat pays the import."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return importlib.import_module(PACKAGE)


def set_up(workload: str, seed: int, expected: dict):
    """Returns the package, the workload and the median set-up time, raw and scaled."""
    def build():
        pr = import_package()
        return pr, WORKLOADS[workload](pr, seed, expected)

    raw, scaled = [], []
    with SpeedProbe() as probe:
        for _ in range(SETUP_REPEATS):
            (pr, wl), wall = probe.run("setup", build)
            raw.append(wall)
            scaled.append(probe.last_scaled)
    return pr, wl, statistics.median(raw), statistics.median(scaled)


def plain_run(key: str, call):
    t0 = perf_counter()
    out = call()
    return out, perf_counter() - t0


def run_one(inst, run=plain_run) -> Result:
    """Time one instance, then check it; an exception is a failed instance."""
    t0 = perf_counter()
    try:
        (out, text), wall = run(inst.key, inst.call)
    except Exception as exc:  # any escape from the package fails the instance
        return Result(inst.key, inst.family, perf_counter() - t0, [f"raised {exc!r}"], None)
    try:
        problems = inst.check(out)
    except Exception as exc:  # a malformed output can break the check itself
        problems = [f"check raised {exc!r}"]
    return Result(inst.key, inst.family, wall, problems, hashlib.sha256(text.encode()).hexdigest())


def measure(wl, seconds: float):
    """Whole rounds until the instances have taken `seconds` at reference speed.

    Whole rounds keep the family mix, and counting scaled time keeps the
    number of rounds, the same in every run whatever the host's speed.
    """
    results, done = [], []
    elapsed = 0.0
    with SpeedProbe() as probe:
        while not done or elapsed < seconds:
            for inst in wl.next_round():
                r = run_one(inst, probe.run)
                r.scaled = probe.last_scaled
                elapsed += r.scaled
                results.append(r)
                done.append(inst)
    return results, done


def tail(samples: list[float]) -> tuple[str, float]:
    """The highest of TAIL_PERCENTILES (nearest rank) with at least TAIL_BEYOND samples beyond it.

    With too few samples for any of them, the maximum is reported as "max".
    """
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return f"p{p:g}", xs[rank - 1]
    return "max", xs[-1]


def error_rate(results: list[Result]) -> float:
    """Share of instances that raised, missed their expected verdict or failed a re-check."""
    return sum(1 for r in results if r.problems) / len(results)


def replay(results: list[Result], golden: dict) -> tuple[int, int]:
    """(mismatched, unrecorded) digests against the recorded ones."""
    mismatched = sum(1 for r in results if r.key in golden and r.digest != golden[r.key])
    unrecorded = sum(1 for r in results if r.key not in golden)
    return mismatched, unrecorded


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "cpuCount": os.cpu_count(),
        "platform": platform.platform(), "gitRevision": git_revision(),
        "srcSha256": source_digest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def report_failures(results: list[Result], limit: int = 10) -> int:
    failed = [r for r in results if r.problems]
    for r in failed[:limit]:
        print(f"FAILED {r.key}: {'; '.join(r.problems)}")
    return len(failed)


def summarise_instances(label: str, results: list[Result], golden: dict) -> int:
    families: dict[str, int] = {}
    for r in results:
        families[r.family] = families.get(r.family, 0) + 1
    mix = ", ".join(f"{f} {c}" for f, c in sorted(families.items()))
    failed = report_failures(results)
    mismatched, unrecorded = replay(results, golden)
    print(f"{label}: {len(results)} instances ({mix})")
    print(f"{label}: error_rate {error_rate(results):.4f} ({failed} of {len(results)} failed)")
    print(f"{label}: replay digests {mismatched} mismatched, {unrecorded} unrecorded "
          f"(diagnostic; a deliberate replay break is noted in CHANGES.md)")
    return failed


def end_to_end(times: list[float], setup_s: float) -> dict:
    return {
        "throughput_ips": len(times) / sum(times),
        "instance_p50_s": statistics.median(times),
        "instance_tail_s": tail(times)[1],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_run(pr, wl, seconds: float, golden: dict, spec: dict):
    """Untraced rounds for half the time, then the same instances under the tracer."""
    untraced, done = measure(wl, seconds / 2)
    tr = tracer.Tracer(pr)
    with tr:
        traced = [run_one(inst, tr.run) for inst in done]
    overhead_s = sum(r.seconds for r in traced) - sum(r.seconds for r in untraced)
    failed = summarise_instances("untraced", untraced, golden)
    failed += summarise_instances("traced", traced, golden)

    stats = tracer.function_stats(tr.spans)
    known = set(tracer.public_functions(pr).values())
    wall = sum(r.seconds for r in traced)
    self_sum = sum(st.self_s for st in stats.values())
    sums_ok = abs(self_sum - wall) <= 0.01 * wall
    print(f"self times sum to {self_sum:.6f} s against {wall:.6f} s traced wall time "
          f"({'ok' if sums_ok else 'MISMATCH'}); {len(tr.spans)} spans")
    layers: dict[str, float] = {}
    for name, st in stats.items():
        layer = "bench" if name == tracer.ROOT else name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + st.self_s
    print("share of instance time by layer (bench = benchmark code and unspanned package code):")
    for layer, s in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<14} {100 * s / wall:6.2f} %  {s:.6f} s")
    print("largest self times:")
    for name, st in sorted(stats.items(), key=lambda kv: -kv[1].self_s)[:10]:
        print(f"  {name:<44} {100 * st.self_s / wall:6.2f} %  {st.self_s:.6f} s  {st.calls} calls")

    metrics = {}
    for m in spec["per_layer"]:
        value = tracer.per_layer_value(m["name"], stats, overhead_s, known)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value:.6g} {m['unit']}")
    results = untraced + traced
    return results, failed, sums_ok, metrics, tr.spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: package source {SRC / PACKAGE} not found; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((BENCH / "expected" / f"{args.workload}.json").read_text())
    golden = json.loads((BENCH / "digests.json").read_text()).get(args.workload, {})

    prov = provenance(args)
    print("provenance " + json.dumps(prov, sort_keys=True))
    pr, wl, setup_raw, setup_s = set_up(args.workload, args.seed, expected)

    extra = {}
    if args.trace:
        results, failed, sums_ok, metrics, spans = traced_run(pr, wl, args.seconds, golden, spec)
        correct = failed == 0 and sums_ok
        extra["spans"] = spans
    else:
        results, _ = measure(wl, args.seconds)
        failed = summarise_instances("untraced", results, golden)
        label, _ = tail([r.seconds for r in results])
        print(f"instance_tail_s is the {label} of {len(results)} instance times")
        values = end_to_end([r.scaled for r in results], setup_s)
        raw = end_to_end([r.seconds for r in results], setup_raw)
        metrics = {}
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            scaled = f" (wall clock {raw[m['name']]:.6g})" if values[m["name"]] != raw[m["name"]] else ""
            print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}{scaled}")
        correct = failed == 0

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "provenance": prov, "correct": correct, "metrics": metrics,
        "instances": [asdict(r) for r in results], **extra,
    }))
    print(f"details written to {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
