"""Differential tests: the mask-based neighbourhood readers and the blow-ups
against the copies in graph_reference, and components inside a vertex set
against networkx."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from pathramsey import (
    Graph,
    ParameterError,
    check_template_containment,
    complete_blowup,
    complete_graph,
    cycle_graph,
    distances,
    max_degree,
    path_graph,
    power,
    random_graph,
    sheared_blowup,
)
from pathramsey.colouring import _prepare_pattern
from pathramsey.graphs import _checked_edges
from pathramsey.partition import _blue_components
from pathramsey.pseudorandom import prune_to_size

from conftest import to_nx

from graph_reference import (
    mask_adjacency,
    ref_adjacency,
    ref_complete_blowup,
    ref_distances,
    ref_linear_template,
    ref_pattern_order,
    ref_power,
    ref_prune_to_size,
    ref_sheared_blowup,
    ref_validate_blowup_map,
    removed_pairs,
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
        assert mask_adjacency(g) == adj, i
        assert [m.bit_count() for m in g.adjacency_masks()] == [len(a) for a in adj], i
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
        assert _prepare_pattern(g)[0] == ref_pattern_order(g), i


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


def _blowup_bases():
    """Seeded bases: edgeless ones, paths, cycles, G(n, p) and their powers."""
    yield from (Graph(0), Graph(1), Graph(5), path_graph(2), path_graph(7), cycle_graph(3), cycle_graph(8))
    yield power(cycle_graph(9), 2)
    rng = random.Random(14)
    for _ in range(24):
        g = random_graph(rng.randint(2, 10), rng.choice((0.15, 0.4, 0.7, 1.0)), seed=rng.randrange(10**6))
        yield g
        yield power(g, rng.randint(2, 3))


@pytest.mark.parametrize("t", range(1, 7))
def test_blowups_match_reference(t):
    for i, h in enumerate(_blowup_bases()):
        host, bmap = complete_blowup(h, t)
        want, want_map = ref_complete_blowup(h, t)
        assert (host, host.sorted_edges()) == (want, want.sorted_edges()), (i, t)
        assert list(host.edges) == sorted(frozenset(want.edges)), (i, t)
        assert (bmap.clique_of, bmap.matchings, bmap.matching_rule) == (want_map.clique_of, (), "none")
        assert frozenset(_checked_edges(host.n, host.edges)) == host.edges
        ref_validate_blowup_map(bmap)
        for seed in (None, 3, 1000 + i):
            host, bmap = sheared_blowup(h, t, seed)
            want, want_map, want_removed = ref_sheared_blowup(h, t, seed)
            assert (host, host.sorted_edges()) == (want, want.sorted_edges()), (i, t, seed)
            # Both iterate in lexicographic order, so colour rules that walk
            # host.edges meet the edges in the same sequence.
            assert list(host.edges) == list(want.edges) == sorted(frozenset(want.edges)), (i, t, seed)
            assert bmap.clique_of == want_map.clique_of
            assert bmap.matchings == want_map.matchings
            assert list(removed_pairs(bmap).items()) == list(want_removed.items())
            assert bmap.matching_rule == want_map.matching_rule
            assert frozenset(_checked_edges(host.n, host.edges)) == host.edges
            ref_validate_blowup_map(bmap)


def test_blowups_of_the_seeded_graphs_come_out_sorted():
    for i, g in enumerate(GRAPHS):
        t = 1 + i % 3
        for host, want in ((complete_blowup(g, t)[0], ref_complete_blowup(g, t)[0]),
                           (sheared_blowup(g, t)[0], ref_sheared_blowup(g, t)[0]),
                           (sheared_blowup(g, t, i)[0], ref_sheared_blowup(g, t, i)[0])):
            assert host == want and list(host.edges) == sorted(frozenset(want.edges)), (i, t)


def test_blowup_bases_cover_the_edge_cases():
    bases = list(_blowup_bases())
    assert any(h.n == 0 for h in bases) and any(h.n and not h.m for h in bases)
    assert sum(h.m >= 10 for h in bases) >= 20


def test_blowups_refuse_clique_size_zero():
    for build in (complete_blowup, sheared_blowup, ref_complete_blowup, ref_sheared_blowup):
        with pytest.raises(ParameterError):
            build(path_graph(3), 0)


def test_template_linearisation_matches_reference():
    # Segments are shuffled blocks of a complete j; each base pair at distance
    # <= r gets a random perfect matching of blue pairs, which the containment
    # check takes as is, so the reference can be handed the same matchings.
    # With no blue pair, the check removes the aligned matchings.
    rng = random.Random(15)
    for trial in range(80):
        n, t, r = rng.randint(1, 6), rng.randint(1, 4), rng.randint(1, 2)
        h = random_graph(n, rng.choice((0.3, 0.6, 1.0)), seed=rng.randrange(10**6))
        hr = power(h, r)
        order = rng.sample(range(n * t), n * t)
        segments = [tuple(order[i * t:(i + 1) * t]) for i in range(n)]
        j = complete_graph(n * t)
        blue_pairs = []
        matchings = {}
        for i1, i2 in hr.sorted_edges():
            perm = rng.sample(range(t), t)
            matchings[(i1, i2)] = {(a, perm[a]) for a in range(t)}
            blue_pairs += [(segments[i1][a], segments[i2][perm[a]]) for a in range(t)]
        aligned = {e: {(a, a) for a in range(t)} for e in hr.sorted_edges()}
        for blue, removed in ((Graph(n * t), aligned), (Graph(n * t, blue_pairs), matchings)):
            template, distance_ok = check_template_containment(h, r, t, segments, j, blue, j)
            want = ref_linear_template(hr, t, removed)
            assert distance_ok, trial
            assert template == want and list(template.edges) == list(want.edges), trial


def test_template_blowups_match_set_filter_reference():
    # Each segment pair gets a random partial matching of blue pairs, which
    # check_template_containment extends to a perfect matching (free right
    # positions in ascending order) and removes.  The reference template is
    # the complete blow-up of h^r less those matchings' pairs, as a set.  With
    # no blue pair, every extension is the aligned matching.
    rng = random.Random(23)
    for trial in range(80):
        n, t, r = rng.randint(1, 6), rng.randint(1, 5), rng.randint(1, 2)
        h = random_graph(n, rng.choice((0.3, 0.6, 1.0)), seed=rng.randrange(10**6))
        hr = power(h, r)
        order = rng.sample(range(n * t), n * t)
        segments = [tuple(order[i * t:(i + 1) * t]) for i in range(n)]
        j = complete_graph(n * t)
        blue_pairs = []
        want_removed = {}
        for i1, i2 in hr.sorted_edges():
            perm = rng.sample(range(t), t)
            match = {a: perm[a] for a in range(t) if rng.random() < 0.5}
            blue_pairs += [(segments[i1][a], segments[i2][b]) for a, b in match.items()]
            free = [b for b in range(t) if b not in match.values()]
            full = [match[a] if a in match else free.pop(0) for a in range(t)]
            want_removed[(i1, i2)] = frozenset((i1 * t + a, i2 * t + full[a]) for a in range(t))
        complete, _ = ref_complete_blowup(hr, t)
        aligned = {(i1, i2): frozenset((i1 * t + a, i2 * t + a) for a in range(t)) for i1, i2 in hr.sorted_edges()}
        for blue, removed in ((Graph(n * t), aligned), (Graph(n * t, blue_pairs), want_removed)):
            template, distance_ok = check_template_containment(h, r, t, segments, j, blue, j)
            assert distance_ok, trial
            want = set(complete.edges) - frozenset().union(*removed.values())
            assert list(template.edges) == sorted(want), trial
