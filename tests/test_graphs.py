"""Graph core: powers, blow-ups, girth, witnesses, edge-list IO."""

from __future__ import annotations

import collections.abc
import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from pathramsey import (
    EdgeColouring,
    Graph,
    GraphFormatError,
    ParameterError,
    complete_blowup,
    complete_graph,
    cycle_graph,
    distances,
    girth_violation,
    graph_from_text,
    graph_to_text,
    induced_subgraph,
    max_degree,
    path_graph,
    path_power,
    power,
    random_graph,
    sheared_blowup,
)

from pathramsey.graphs import _seed, validate_path

from conftest import floyd_warshall, oracle_girth
from graph_reference import mask_adjacency, ref_validate_blowup_map


def power_oracle(g: Graph, k: int) -> set[tuple[int, int]]:
    d = floyd_warshall(g)
    return {
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if 1 <= d[u][v] <= k
    }


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphFormatError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphFormatError):
            Graph(3, [(0, 3)])

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0)])
        assert g.m == 1

    def test_adjacency_symmetric_and_degree_sum(self):
        g = random_graph(12, 0.4, seed=3)
        adj = mask_adjacency(g)
        for v in range(g.n):
            for w in adj[v]:
                assert v in adj[w]
        assert sum(map(len, adj)) == 2 * g.m

    def test_immutable_value_semantics(self):
        g = path_graph(4)
        h = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g == h and hash(g) == hash(h)

    @pytest.mark.parametrize("vertices,bad", [([0, 5, -2], -2), ([0, 3], 3), ([1, 2, 9, 0], 9), ([0, 1.5], 1.5)])
    def test_induced_subgraph_refuses_a_vertex_outside_g(self, vertices, bad):
        # It used to return a graph whose ids named vertices g does not have.
        with pytest.raises(ParameterError, match=f"^vertex {bad} out of range for n=3$"):
            induced_subgraph(path_graph(3), vertices)
        assert induced_subgraph(path_graph(3), [2, 0, 2]) == (Graph(2), (0, 2))


def _order_cases():
    """Graphs from every builder, and the constructor fed pairs out of order."""
    rng = random.Random(19)
    pairs = [(u, v) for u in range(9) for v in range(u + 1, 9) if rng.random() < 0.5]
    shuffled = pairs[:]
    rng.shuffle(shuffled)
    yield "shuffled", Graph(9, shuffled)
    yield "reversed", Graph(9, [(v, u) for u, v in reversed(pairs)])
    yield "duplicated", Graph(9, shuffled + [(v, u) for u, v in pairs] + pairs)
    yield "path", path_graph(7)
    yield "cycle", cycle_graph(8)
    yield "complete", complete_graph(6)
    yield "path_power", path_power(9, 3)
    g = random_graph(14, 0.3, seed=5)
    yield "random", g
    yield "power", power(g, 2)
    yield "induced", induced_subgraph(g, [13, 2, 7, 4, 11, 0, 9, 5])[0]
    host, _ = sheared_blowup(cycle_graph(5), 3, seed=2)
    edges = list(host.edges)
    rng.shuffle(edges)  # the colour map's own order is not the subgraph's
    yield "colour_subgraph", EdgeColouring(host, 2, {e: 1 + sum(e) % 2 for e in edges}).colour_subgraph(2)
    h = power(cycle_graph(7), 2)
    yield "complete_blowup", complete_blowup(h, 3)[0]
    yield "sheared_aligned", sheared_blowup(h, 4)[0]
    yield "sheared_seeded", sheared_blowup(h, 4, seed=11)[0]


class TestEdgeOrder:
    @pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in _order_cases()])
    def test_edges_iterate_in_lexicographic_order(self, g):
        assert list(g.edges) == sorted(g.edges) == g.sorted_edges()
        assert g.edges == frozenset(g.edges) and hash(g.edges) == hash(frozenset(g.edges))
        assert isinstance(g.edges, collections.abc.Set) and not isinstance(g.edges, (set, frozenset))
        assert g.m > 0

    @pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in _order_cases()])
    def test_membership_agrees_with_frozenset(self, g):
        plain = frozenset(g.edges)
        pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
        probes = pairs + [(v, u) for u, v in pairs] + [(-1, 0), (0, g.n), (g.n, g.n + 1), (-2, -1)]
        assert [e in g.edges for e in probes] == [e in plain for e in probes]

    @pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in _order_cases()])
    def test_set_algebra_returns_frozensets(self, g):
        plain = frozenset(g.edges)
        other = frozenset(list(g.edges)[::2] + [(0, g.n)])
        for op in ("__or__", "__and__", "__sub__", "__xor__"):
            got = getattr(g.edges, op)(other)
            assert type(got) is frozenset and got == getattr(plain, op)(other), op

    @pytest.mark.parametrize("probe", [("a", "b"), None, (0, "x"), [0, 1]])
    def test_membership_never_raises(self, probe):
        for _, g in _order_cases():
            assert probe not in g.edges

    def test_colour_map_with_a_string_key_names_the_non_edge(self):
        g = path_graph(3)
        with pytest.raises(ParameterError, match=r"^colouring mentions non-edge \('a', 'b'\)$"):
            EdgeColouring(g, 2, {(0, 1): 1, (1, 2): 2, ("a", "b"): 1})

    def test_no_edge_set_holds_a_hash_table(self):
        # The largest host of the step benchmark: its edge set is the sorted list alone.
        host = sheared_blowup(power(cycle_graph(24), 2), 24, seed=0)[0]
        assert host.m == 33_120
        assert not {set, frozenset} & set(type(host.edges).__mro__)
        assert sys.getsizeof(host.edges) < 100

    def test_constructor_keeps_the_edge_set(self):
        pairs = [(3, 1), (0, 2), (1, 3), (2, 0), (0, 1)]
        g = Graph(4, pairs)
        assert list(g.edges) == [(0, 1), (0, 2), (1, 3)]
        assert g == Graph(4, reversed(pairs)) and hash(g) == hash(Graph(4, reversed(pairs)))
        assert list(dict.fromkeys(g.edges)) == [(0, 1), (0, 2), (1, 3)]


class TestPower:
    def test_power_identity_at_k1(self):
        g = path_graph(4)
        assert power(g, 1) == g

    def test_power_beyond_diameter_is_clique(self):
        assert power(path_graph(4), 3) == complete_graph(4)

    def test_p5_squared(self):
        got = power(path_graph(5), 2)
        assert got.edges == frozenset(power_oracle(path_graph(5), 2))
        assert got.m == 7

    def test_components_never_joined(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        p = power(g, 5)
        assert not p.has_edge(2, 3)
        assert p.has_edge(0, 2) and p.has_edge(3, 5)

    @given(st.integers(0, 2 ** 20), st.integers(2, 14), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_power_matches_distance_oracle(self, seed, n, k):
        g = random_graph(n, 0.3, seed)
        assert power(g, k).edges == frozenset(power_oracle(g, k))

    def test_power_oracle_at_fifty_vertices(self):
        g = random_graph(50, 0.08, seed=123)
        for k in (1, 2, 3, 7):
            assert power(g, k).edges == frozenset(power_oracle(g, k))

    @given(st.integers(0, 2 ** 20), st.integers(2, 10), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_iterated_power_contained_in_product_power(self, seed, n, j, k):
        g = random_graph(n, 0.3, seed)
        iterated = power(power(g, j), k)
        product = power(g, j * k)
        assert iterated.edges <= product.edges


class TestPathPower:
    def test_p3_line(self):
        assert path_power(3, 1) == path_graph(3)

    def test_k_at_least_n_gives_clique(self):
        assert path_power(4, 5) == complete_graph(4)
        assert path_power(4, 5).m == 6

    def test_edge_count_formula(self):
        for n in range(2, 20):
            for k in range(1, n):
                assert path_power(n, k).m == n * k - k * (k + 1) // 2
        assert path_power(5, 2).m == 7

    def test_matches_power_of_path(self):
        for n in range(1, 12):
            for k in range(1, n + 2):
                assert path_power(n, k) == power(path_graph(n), k) if n > 1 else True


class TestBlowups:
    def test_complete_blowup_of_edge(self):
        host, _ = complete_blowup(complete_graph(2), 2)
        assert host == complete_graph(4)
        assert host.m == 6

    def test_complete_blowup_p3_t3(self):
        host, bmap = complete_blowup(path_graph(3), 3)
        assert host.m == 2 * 9 + 3 * 3 == 27
        ref_validate_blowup_map(bmap)

    def test_complete_blowup_t1_identity(self):
        g = random_graph(8, 0.4, seed=1)
        host, _ = complete_blowup(g, 1)
        assert host == g

    def test_sheared_blowup_edge_counts_both_rules(self):
        for seed in (None, 9):
            host, bmap = sheared_blowup(complete_graph(2), 2, seed=seed)
            assert host.m == 4
            ref_validate_blowup_map(bmap)

    def test_sheared_blowup_t1_edgeless(self):
        g = path_graph(5)
        host, _ = sheared_blowup(g, 1)
        assert host.n == 5 and host.m == 0

    def test_sheared_blowup_p3_t3(self):
        host, _ = sheared_blowup(path_graph(3), 3)
        assert host.m == 2 * 6 + 3 * 3 == 21

    def test_formulas_random_sweep(self):
        rng = random.Random(2024)
        for _ in range(60):
            n = rng.randint(1, 12)
            t = rng.randint(1, 4)
            h = random_graph(n, rng.random(), rng.randrange(2 ** 30))
            full, m1 = complete_blowup(h, t)
            shear, m2 = sheared_blowup(h, t, seed=rng.randrange(2 ** 30))
            assert full.m == h.m * t * t + n * t * (t - 1) // 2
            assert shear.m == h.m * (t * t - t) + n * t * (t - 1) // 2
            ref_validate_blowup_map(m1)
            ref_validate_blowup_map(m2)

    def test_sheared_is_subgraph_missing_exactly_matchings(self):
        rng = random.Random(7)
        for _ in range(20):
            h = random_graph(rng.randint(2, 8), 0.5, rng.randrange(2 ** 30))
            t = rng.randint(1, 4)
            full, _ = complete_blowup(h, t)
            shear, _ = sheared_blowup(h, t, seed=rng.randrange(2 ** 30))
            assert shear.edges <= full.edges
            assert len(full.edges - shear.edges) == h.m * t

    def test_clique_map_linearisation(self):
        _, bmap = complete_blowup(path_graph(3), 4)
        assert bmap.clique_of[2] == (8, 9, 10, 11)
        assert bmap.clique_of[1] == (4, 5, 6, 7)



class TestSeedMix:
    """graphs._seed against the literal mix that every replay digest was recorded with."""

    @pytest.mark.parametrize("seed", [0, 1, 13, -7, 2 ** 70])
    def test_matches_the_literal_formula(self, seed):
        assert _seed(seed) == seed
        assert _seed(seed, 11) == seed * 1_000_003 + 11
        assert _seed(seed, 4, -9) == (seed * 1_000_003 + 4) * 1_000_003 - 9


class TestGirth:
    def test_c5_above_limit(self):
        assert girth_violation(cycle_graph(5), 4) is None

    def test_c5_at_limit_returns_cycle(self):
        cyc = girth_violation(cycle_graph(5), 5)
        assert cyc is not None and len(cyc) == 5
        assert sorted(cyc) == [0, 1, 2, 3, 4]

    def test_k4_triangle(self):
        cyc = girth_violation(complete_graph(4), 3)
        assert cyc is not None and len(cyc) == 3
        g = complete_graph(4)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert g.has_edge(a, b)

    def test_acyclic_graph(self):
        assert girth_violation(path_graph(6), 6) is None

    def test_limit_below_three_rejected(self):
        with pytest.raises(ParameterError):
            girth_violation(complete_graph(3), 2)

    @given(st.integers(0, 2 ** 20), st.integers(3, 10))
    @settings(max_examples=60, deadline=None)
    def test_matches_girth_oracle(self, seed, n):
        g = random_graph(n, 0.4, seed)
        truth = oracle_girth(g)
        found = girth_violation(g, n)
        if truth == math.inf:
            assert found is None
        else:
            assert found is not None and len(found) == truth
            for a, b in zip(found, found[1:] + found[:1]):
                assert g.has_edge(a, b)
            assert len(set(found)) == len(found)


class TestMeasurements:
    def test_max_degree(self):
        assert max_degree(cycle_graph(5)) == 2
        assert max_degree(complete_graph(5)) == 4
        assert max_degree(Graph(3)) == 0

    def test_distances_path(self):
        assert distances(path_graph(4), 0) == [0, 1, 2, 3]

    def test_distances_unreachable_infinite(self):
        g = Graph(4, [(0, 1)])
        d = distances(g, 0)
        assert d[2] == math.inf and d[3] == math.inf

    @given(st.integers(0, 2 ** 20), st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_distances_match_floyd_warshall(self, seed, n):
        g = random_graph(n, 0.3, seed)
        fw = floyd_warshall(g)
        for s in range(g.n):
            assert distances(g, s) == fw[s]


class TestPathWitness:
    def test_valid_path(self):
        validate_path(path_graph(3), (0, 1, 2))

    def test_rejects_non_edge_step(self):
        with pytest.raises(GraphFormatError):
            validate_path(path_graph(3), (0, 2))

    def test_rejects_repeat(self):
        with pytest.raises(GraphFormatError):
            validate_path(path_graph(3), (0, 1, 0))

    def test_parts_checked_by_position(self):
        # Position i must lie in parts[i mod t]: the same path fails once the parts swap.
        g = cycle_graph(6)
        path = (0, 1, 2, 3)
        validate_path(g, path, [[0, 2, 4], [1, 3, 5]])
        with pytest.raises(GraphFormatError, match="vertex 0 at position 0 is not in part 0"):
            validate_path(g, path, [[1, 3, 5], [0, 2, 4]])
        with pytest.raises(GraphFormatError, match="is not in part 0"):
            validate_path(g, path, [])


class TestEdgeListFormat:
    def test_round_trip_byte_stable(self):
        g = random_graph(10, 0.5, seed=11)
        text = graph_to_text(g)
        again = graph_to_text(graph_from_text(text))
        assert text == again
        assert text.endswith("\n")
        header = text.splitlines()[0]
        assert header == f"{g.n} {g.m}"

    def test_write_read_stream(self):
        g = path_graph(5)
        assert graph_from_text(graph_to_text(g)) == g

    def test_lines_end_at_newline_only(self):
        # Form feed, vertical tab, \x1c-\x1e, \x85 and \u2028 are whitespace
        # inside a line, not line breaks: the edge parses, and a bad line is
        # counted by newlines alone.
        for brk in "\f\v\x1c\x1d\x1e\x85\u2028":
            assert graph_from_text(f"2 1\n0{brk}1\n") == path_graph(2)
            with pytest.raises(GraphFormatError, match="^line 2: expected 'u v'$"):
                graph_from_text(f"3 2\n0 1{brk}1 2\n")

    def test_rejects_bad_header(self):
        with pytest.raises(GraphFormatError):
            graph_from_text("nonsense\n")

    def test_rejects_unsorted_pair(self):
        with pytest.raises(GraphFormatError):
            graph_from_text("3 1\n2 1\n")

    def test_rejects_wrong_count(self):
        with pytest.raises(GraphFormatError):
            graph_from_text("3 2\n0 1\n")
