"""Differential tests: the mask-based neighbourhood readers against the copies in
graph_reference, and components inside a vertex set against networkx."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from pathramsey import (
    Graph,
    complete_graph,
    cycle_graph,
    distances,
    max_degree,
    path_graph,
    power,
    random_graph,
)
from pathramsey.colouring import _pattern_order
from pathramsey.partition import _blue_components
from pathramsey.pseudorandom import prune_to_size

from conftest import to_nx

from graph_reference import (
    ref_adjacency,
    ref_distances,
    ref_pattern_order,
    ref_power,
    ref_prune_to_size,
)


def _disjoint_union(parts: list[Graph]) -> Graph:
    edges, offset = [], 0
    for g in parts:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return Graph(offset, edges)


def _graphs():
    """320 seeded graphs: empty and edgeless ones, paths and cycles, G(n, p), disjoint unions."""
    yield Graph(0)
    yield Graph(1)
    yield Graph(7)
    yield path_graph(9)
    yield cycle_graph(10)
    yield complete_graph(6)
    rng = random.Random(10)
    for _ in range(250):
        yield random_graph(rng.randint(0, 24), rng.choice((0.05, 0.15, 0.3, 0.6)), seed=rng.randrange(10**6))
    for _ in range(64):
        parts = [
            random_graph(rng.randint(1, 8), rng.choice((0.2, 0.5, 0.9)), seed=rng.randrange(10**6))
            for _ in range(rng.randint(2, 4))
        ]
        yield _disjoint_union([*parts, Graph(rng.randint(0, 3))])


GRAPHS = list(_graphs())


def test_graph_family_covers_the_edge_cases():
    assert len(GRAPHS) >= 300
    assert any(g.n == 0 for g in GRAPHS)
    assert any(g.n > 0 and max_degree(g) == 0 for g in GRAPHS)
    assert sum(any(d == float("inf") for d in ref_distances(g, 0)) for g in GRAPHS if g.n) >= 50


def test_neighbours_and_degree_match_sorted_lists():
    for i, g in enumerate(GRAPHS):
        adj = ref_adjacency(g)
        assert [g.neighbours(v) for v in range(g.n)] == list(adj), i
        assert [g.degree(v) for v in range(g.n)] == [len(a) for a in adj], i
        assert max_degree(g) == max(map(len, adj), default=0), i


def test_distances_match_reference():
    for i, g in enumerate(GRAPHS):
        for source in range(g.n):
            assert distances(g, source) == ref_distances(g, source), (i, source)


def test_power_matches_reference_up_to_and_past_the_diameter():
    for i, g in enumerate(GRAPHS):
        finite = [d for s in range(g.n) for d in ref_distances(g, s) if d != float("inf")]
        diameter = int(max(finite, default=0))
        for k in sorted({1, 2, 3, diameter, diameter + 1, diameter + 5} - {0}):
            assert power(g, k) == ref_power(g, k), (i, k)


def test_prune_to_size_matches_reference_for_every_keep():
    rng = random.Random(11)
    for i, g in enumerate(GRAPHS):
        for keep in sorted({0, g.n, g.n // 2, rng.randint(0, g.n)}):
            got, kept, removed = prune_to_size(g, keep)
            want, want_kept, want_removed = ref_prune_to_size(g, keep)
            assert (got, kept, removed) == (want, want_kept, want_removed), (i, keep)


def test_pattern_order_matches_reference():
    for i, g in enumerate(GRAPHS):
        assert _pattern_order(g) == ref_pattern_order(g), i


def test_components_inside_a_vertex_set_match_networkx():
    rng = random.Random(13)
    for i, g in enumerate(GRAPHS):
        h = to_nx(g)
        for rmask in {(1 << g.n) - 1, rng.getrandbits(g.n) if g.n else 0, rng.getrandbits(g.n) if g.n else 0}:
            inside = [v for v in range(g.n) if rmask >> v & 1]
            comps = [sum(1 << v for v in c) for c in nx.connected_components(h.subgraph(inside))]
            assert _blue_components(g.adjacency_masks(), rmask) == sorted(comps, key=lambda c: c & -c), (i, rmask)


@pytest.mark.parametrize("k", [1, 2, 3, 23, 30])
def test_power_of_long_cycle_matches_reference(k):
    assert power(cycle_graph(48), k) == ref_power(cycle_graph(48), k)
