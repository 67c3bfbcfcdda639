"""Differential tests: arrow_check against the per-colouring rebuild in arrow_reference."""

from __future__ import annotations

import random

import pytest

from pathramsey import BudgetExceededError, Graph, arrow_check, complete_graph, path_graph
from pathramsey.serialize import dump_report

from arrow_reference import ref_arrow_check

PATTERNS = {
    "K3": Graph(3, [(0, 1), (0, 2), (1, 2)]),
    "C4": Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "K1,3": Graph(4, [(0, 1), (0, 2), (0, 3)]),
    "P4": Graph(4, [(0, 1), (1, 2), (2, 3)]),
    "P3": Graph(3, [(0, 1), (1, 2)]),
}
# The ten (K_n, pattern, colours) cases of the benchmark's arrow workload.
ARROW_CASES = (
    (6, "K3", 2), (6, "C4", 2), (6, "K1,3", 2), (5, "P4", 2), (5, "P3", 3),
    (5, "K3", 2), (5, "C4", 2), (5, "K1,3", 2), (4, "P4", 2), (4, "P3", 3),
)


def both(host: Graph, pattern: Graph, s: int, **kw) -> tuple[str, str]:
    """The package's and the reference's report bytes for one check."""
    return tuple(dump_report(check(host, pattern, s, **kw).to_dict()) for check in (arrow_check, ref_arrow_check))


def random_host(rng: random.Random, max_n: int, max_m: int) -> Graph:
    n = rng.randint(0, max_n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, rng.sample(pairs, rng.randint(0, min(max_m, len(pairs)))))


@pytest.mark.parametrize("n,name,s", ARROW_CASES)
def test_benchmark_cases_match_reference(n, name, s):
    got, want = both(complete_graph(n), PATTERNS[name], s)
    assert got == want


def test_seeded_instances_match_reference():
    rng = random.Random(11)
    exhaustive = 0
    for trial in range(200):
        host = random_host(rng, 6, 10)
        pattern = random_host(rng, 4, 6)
        s = rng.choice((1, 2, 3))
        # Exhaustive where the walk is at most 2^10 colourings, to keep the file fast.
        if s ** host.m <= 1024:
            exhaustive += 1
            got, want = both(host, pattern, s)
            assert got == want, trial
        for seed in (1, 2):
            got, want = both(host, pattern, s, mode="randomized", trials=50, seed=seed)
            assert got == want, (trial, seed)
    assert exhaustive >= 150


@pytest.mark.parametrize("host,pattern", [
    (Graph(5), path_graph(2)),  # edgeless host: one colouring, no copy
    (Graph(5), Graph(3)),  # edgeless host and pattern
    (path_graph(3), complete_graph(4)),  # pattern larger than the host
    (complete_graph(4), Graph(2)),  # edgeless pattern
    (complete_graph(3), Graph(0)),  # empty pattern
], ids=["edgeless-host", "both-edgeless", "pattern-larger", "edgeless-pattern", "empty-pattern"])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_degenerate_inputs_match_reference(host, pattern, s):
    got, want = both(host, pattern, s)
    assert got == want
    got, want = both(host, pattern, s, mode="randomized", trials=20, seed=3)
    assert got == want


@pytest.mark.parametrize("host,pattern,s", [
    (complete_graph(4), path_graph(3), 2), (path_graph(5), path_graph(3), 3), (Graph(3), Graph(1), 2),
])
def test_budget_boundary(host, pattern, s):
    total = s ** host.m
    got, want = both(host, pattern, s, budget=total)
    assert got == want
    with pytest.raises(BudgetExceededError) as exc:
        arrow_check(host, pattern, s, budget=total - 1)
    assert str(exc.value).startswith(f"{total} colourings")
