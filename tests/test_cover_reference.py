"""Differential tests: the cover search and the host build against the copies in cover_reference."""

from __future__ import annotations

import random

import pytest

from pathramsey import (
    Graph,
    complete_graph,
    cycle_graph,
    partition_two_coloured,
    path_power,
    power,
    random_graph,
    sheared_blowup,
)
from pathramsey.errors import GraphFormatError
from pathramsey.partition import (
    _cover_tables,
    _group_components,
    _partition_exhaustive,
    _partition_heuristic,
)

from cover_reference import (
    ref_cover_with_paths,
    ref_graph_edges,
    ref_group_components,
    ref_partition_exhaustive,
    ref_partition_heuristic,
    ref_sheared_blowup,
)
from graph_reference import mask_adjacency, removed_pairs
from step_reference import ref_ham_path_table


@pytest.mark.parametrize("n", [0, 1, 2, 5, 8, 10, 12])
@pytest.mark.parametrize("p", [0, 0.2, 0.5, 0.8])
def test_exhaustive_cover_matches_reference(n, p):
    # ell = n + 1: the cover tables stop at n layers, since n paths cover every set.
    blue = random_graph(n, p, seed=1000 * n + int(10 * p))
    for ell in (1, 2, 3, 4, n + 1):
        assert _partition_exhaustive(blue, ell) == ref_partition_exhaustive(blue, ell), ell


@pytest.mark.parametrize("n", range(13))
def test_exhaustive_cover_of_complete_graph_matches_reference(n):
    blue = complete_graph(n)
    for ell in (1, 2, 3, 4):
        assert _partition_exhaustive(blue, ell) == ref_partition_exhaustive(blue, ell), ell


@pytest.mark.parametrize("n", range(9))
def test_cover_tables_match_brute_force(n):
    # Bit S of covs[j] says at most j blue paths cover S; the reference splits S by brute force.
    rng = random.Random(n)
    for blue in [Graph(n), complete_graph(n)] + [random_graph(n, p, rng.randrange(10**6)) for p in (0.2, 0.4, 0.6)]:
        masks = blue.adjacency_masks()
        dp, memo = ref_ham_path_table(masks, n), {}
        covs, _ = _cover_tables(masks, n, 4)
        for j in range(5):
            cov = covs[min(j, len(covs) - 1)]
            for mask in range(1 << n):
                want = ref_cover_with_paths(dp, masks, mask, j, memo) is not None
                assert cov >> mask & 1 == want, (blue.edges, j, mask)


def test_heuristic_cover_matches_reference():
    # The reference restarts and makes a second, unbalanced pass; the search
    # keeps the first attempt's stream and takes the largest split of the rest
    # when no cut balances, so the two agree wherever the reference returns.
    fallbacks = 0
    for seed in range(600):
        rng = random.Random(seed)
        n, ell = rng.randint(0, 40), rng.randint(1, 5)
        blue = random_graph(n, rng.random() ** 2, seed)
        want = ref_partition_heuristic(blue, ell, seed)
        assert want is not None, seed
        assert _partition_heuristic(blue, ell, seed) == want, seed
        fallbacks += any(want.red_classes) and not all(want.red_classes)
    assert fallbacks >= 50


def test_empty_twelve_vertex_blue_graph_matches_reference():
    # Every support but the empty one lacks a blue path: the whole scan runs.
    blue = Graph(12)
    result = partition_two_coloured(blue, 1, "exhaustive")
    assert result == ref_partition_exhaustive(blue, 1)
    assert result.blue_paths == ()
    assert result.red_classes == ((6, 7, 8, 9, 10, 11), (0, 1, 2, 3, 4, 5))


def test_group_components_matches_reference():
    # Components of 1 to 6 vertices are hard enough to pack that some
    # placements must be undone (sizes 4, 4, 3, 3, 3, 3 into two groups).
    rng = random.Random(5)
    for _ in range(400):
        comps, v = [], 0
        for _ in range(rng.randint(0, 9)):
            size = rng.randint(1, 6)
            comps.append(((1 << size) - 1) << v)
            v += size
        rng.shuffle(comps)
        classes = rng.randint(1, 5)
        for exact in (True, False):
            assert _group_components(comps, classes, exact) == ref_group_components(
                comps, classes, exact
            ), (comps, classes, exact)


def test_group_components_always_returns_a_split():
    # The largest m that packs: m = 1 always does, so no component list is refused.
    rng = random.Random(6)
    for _ in range(400):
        comps, v = [], 0
        for _ in range(rng.randint(0, 12)):
            size = rng.randint(1, 7)
            comps.append(((1 << size) - 1) << v)
            v += size
        classes = rng.randint(1, 6)
        groups = _group_components(comps, classes)
        assert groups is not None and len(groups) == classes, (comps, classes)
        assert len({g.bit_count() for g in groups if g}) <= 1
        assert sorted(comps) == sorted(c for g in groups for c in comps if c & g)
        assert all(c & g in (0, c) for c in comps for g in groups)
        assert sum(groups) == (1 << v) - 1


@pytest.mark.parametrize("h,t", [
    (power(cycle_graph(24), 2), 24),
    (random_graph(9, 0.5, seed=3), 5),
    (path_power(6, 2), 1),
    (Graph(3), 4),
])
@pytest.mark.parametrize("seed", [None, 0, 17])
def test_sheared_blowup_matches_reference(h, t, seed):
    host, bmap = sheared_blowup(h, t, seed=seed)
    edges, removed = ref_sheared_blowup(h, t, seed=seed)
    assert host.n == h.n * t
    assert host.edges == edges
    assert removed_pairs(bmap) == removed
    assert list(removed_pairs(bmap)) == list(removed)


@pytest.mark.parametrize("n,edges", [
    (4, [(0, 1), (2, 2), (1, 7)]),
    (4, [(0, 1), (1, 7), (2, 2)]),
    (4, [(3, 3)]),
    (4, [(0, -1), (1, 1)]),
    (3, iter([(0, 1), (0, 3)])),
    (0, [(0, 0)]),
    (0, [(0, 1)]),
])
def test_graph_rejects_first_bad_edge_like_reference(n, edges):
    edges = list(edges)
    with pytest.raises(GraphFormatError) as want:
        ref_graph_edges(n, iter(edges))
    with pytest.raises(type(want.value)) as got:
        Graph(n, iter(edges))
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_graph_edges_match_reference():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 30)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 60))]
        edges = [e for e in edges if e[0] != e[1]]
        g = Graph(n, edges)
        assert g.edges == ref_graph_edges(n, edges)
        adj = mask_adjacency(g)
        for v in range(n):
            assert adj[v] == tuple(sorted({b for a, b in g.edges if a == v}
                                          | {a for a, b in g.edges if b == v}))

