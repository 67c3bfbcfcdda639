"""Colouring machinery: mono cliques, bicliques, the biclique-free bound,
the blue/grey auxiliary colouring, path promotion, subgraph search, arrowing."""

from __future__ import annotations

import dataclasses
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from pathramsey import (
    BudgetExceededError,
    ConstructionError,
    EdgeColouring,
    Graph,
    ParameterError,
    PreconditionError,
    arrow_check,
    blue_path_to_blue_power,
    build_aux_colouring,
    complete_blowup,
    complete_graph,
    cycle_graph,
    find_blue_biclique,
    find_subgraph,
    kst_bound_check,
    mono_clique_in_clique,
    path_graph,
    path_power,
    random_graph,
    sheared_blowup,
    validate_embedding,
)
from pathramsey.errors import _count_text

from conftest import has_k22
from step_reference import ref_find_blue_biclique, ref_validate_aux_colouring


def pentagon_colouring() -> EdgeColouring:
    """K_5 split into the 5-cycle (colour 1) and its complement cycle (colour 2)."""
    host = complete_graph(5)
    ring = {(i, (i + 1) % 5) for i in range(5)}
    ring = {tuple(sorted(e)) for e in ring}
    return EdgeColouring(host, 2, {e: (1 if e in ring else 2) for e in host.edges})


def blue_rows(side_a, side_b, blue) -> list[int]:
    """find_blue_biclique's rows for a blue test: bit i of row a is blue(a, side_b[i])."""
    return [sum(1 << i for i, b in enumerate(side_b) if blue(a, b)) for a in side_a]


class TestEdgeColouring:
    def test_total_coverage_required(self):
        host = path_graph(3)
        with pytest.raises(ParameterError):
            EdgeColouring(host, 2, {(0, 1): 1})

    def test_colour_range_checked(self):
        host = path_graph(3)
        with pytest.raises(ParameterError):
            EdgeColouring(host, 2, {(0, 1): 3, (1, 2): 1})

    def test_edge_given_in_both_orientations_rejected(self):
        host = complete_graph(3)
        with pytest.raises(ParameterError, match=r"edge \(0, 1\) twice"):
            EdgeColouring(host, 2, {(0, 1): 1, (1, 0): 2, (0, 2): 1, (1, 2): 1})

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, "1", None])
    def test_non_integer_colour_rejected(self, bad):
        host = complete_graph(3)
        with pytest.raises(ParameterError, match="not an integer"):
            EdgeColouring(host, 2, {(0, 1): 1, (0, 2): bad, (1, 2): 2})

    def test_string_round_trip(self):
        host = complete_graph(4)
        col = EdgeColouring.random(host, 3, seed=5)
        text = col.to_string()
        assert text.startswith("s=3;m=6;")
        again = EdgeColouring.from_string(host, text)
        assert again.to_string() == text

    def test_from_integer_little_endian(self):
        host = path_graph(4)  # edges (0,1),(1,2),(2,3)
        col = EdgeColouring.from_integer(host, 2, 2)  # digits 0,1,0
        assert col.colour(0, 1) == 1
        assert col.colour(1, 2) == 2
        assert col.colour(2, 3) == 1

    def test_colour_subgraph(self):
        col = pentagon_colouring()
        assert col.colour_subgraph(1) == cycle_graph(5)

    def test_string_round_trip_many_colours(self):
        host = complete_graph(6)
        col = EdgeColouring.random(host, 12, seed=2)
        again = EdgeColouring.from_string(host, col.to_string())
        for u, v in host.edges:
            assert again.colour(u, v) == col.colour(u, v)


class TestMonoCliqueInClique:
    def test_constant_colouring_any_triple(self):
        col = EdgeColouring.constant(complete_graph(5), 2, 1)
        hit = mono_clique_in_clique(col, range(5), 3)
        assert hit is not None
        c, verts = hit
        assert c == 1 and len(verts) == 3

    def test_pentagon_has_no_mono_triangle(self):
        assert mono_clique_in_clique(pentagon_colouring(), range(5), 3) is None

    def test_k6_two_colourings_always_contain_mono_triangle(self):
        host = complete_graph(6)
        for x in range(2 ** 15):
            col = EdgeColouring.from_integer(host, 2, x)
            hit = mono_clique_in_clique(col, range(6), 3)
            assert hit is not None, x
        # spot-check witness validity on a sample
        rng = random.Random(0)
        for _ in range(100):
            col = EdgeColouring.from_integer(host, 2, rng.randrange(2 ** 15))
            c, verts = mono_clique_in_clique(col, range(6), 3)
            for a, b in combinations(verts, 2):
                assert col.colour(a, b) == c

    def test_requires_clique_input(self):
        col = EdgeColouring.constant(path_graph(4), 1, 1)
        with pytest.raises(ParameterError):
            mono_clique_in_clique(col, range(4), 2)

    def test_target_larger_than_clique(self):
        col = EdgeColouring.constant(complete_graph(3), 1, 1)
        with pytest.raises(ParameterError):
            mono_clique_in_clique(col, range(3), 4)

    def test_negative_target_refused(self):
        # It used to return None, claiming that no monochromatic clique exists.
        col = EdgeColouring.constant(complete_graph(3), 1, 1)
        with pytest.raises(ParameterError, match="target must be >= 0"):
            mono_clique_in_clique(col, range(3), -1)


class TestFindBlueBiclique:
    def test_all_blue_full_sides(self):
        w = find_blue_biclique(blue_rows([0, 1], [2, 3], lambda a, b: True), 2)
        assert w == ((0, 1), 0b11)

    def test_witness_takes_the_first_vertices_of_each_side(self):
        w = find_blue_biclique(blue_rows([0, 1, 2], [10, 11, 12, 13], lambda a, b: True), 2)
        assert w == ((0, 1), 0b1111)
        j = Graph(2, [(0, 1)])
        host, bmap = complete_blowup(j, 4)
        aux = build_aux_colouring(j, bmap.clique_of, EdgeColouring.constant(host, 2, 1), 1, 1)
        assert aux.witnesses == {(0, 1): ((0, 1), (4, 5))}

    def test_no_blue(self):
        assert find_blue_biclique(blue_rows([0, 1, 2, 3], [4, 5, 6, 7], lambda a, b: False), 2) is None

    def test_c4_witness_in_sides_of_five(self):
        blue_pairs = {(0, 5), (5, 1), (1, 6), (6, 0)}  # a 4-cycle across

        def blue(a, b):
            return (a, b) in blue_pairs or (b, a) in blue_pairs

        w = find_blue_biclique(blue_rows([0, 1, 2, 3, 4], [5, 6, 7, 8, 9], blue), 2)
        assert w == ((0, 1), 0b11)

    def test_sides_too_small_vacuous(self):
        assert find_blue_biclique(blue_rows([0], [1], lambda a, b: True), 2) is None

    def test_negative_k_refused(self):
        # k = -1 asks for -2 rows: empty rows, so a search that took it would stop.
        with pytest.raises(ParameterError, match="need must be >= 1"):
            find_blue_biclique([], -2)

    def test_need_zero_refused(self):
        # The loop test cand.bit_count() >= 0 always holds, so the search
        # that took need = 0 never returned.
        with pytest.raises(ParameterError, match="need must be >= 1"):
            find_blue_biclique([0b1, 0b11], 0)

    @given(st.integers(0, 2 ** 20))
    @settings(max_examples=40, deadline=None)
    def test_matches_exhaustive_scan(self, seed):
        rng = random.Random(seed)
        na, nb = rng.randint(2, 5), rng.randint(2, 5)
        side_a = list(range(na))
        side_b = list(range(100, 100 + nb))
        blue_pairs = {
            (a, b) for a in side_a for b in side_b if rng.random() < 0.5
        }
        found = find_blue_biclique(blue_rows(side_a, side_b, lambda a, b: (a, b) in blue_pairs), 2)
        exists = any(
            all((a, b) in blue_pairs for a in pa for b in pb)
            for pa in combinations(side_a, 2)
            for pb in combinations(side_b, 2)
        )
        assert (found is not None) == exists
        if found:
            picks, common = found
            assert len(picks) == 2 and common.bit_count() >= 2
            for i in picks:
                for p, b in enumerate(side_b):
                    if common >> p & 1:
                        assert (side_a[i], b) in blue_pairs


class TestKstBound:
    def test_edgeless_holds_with_full_margin(self):
        assert kst_bound_check(4, [], 1) is True

    def test_complete_bipartite_not_applicable(self):
        edges = [(i, j) for i in range(3) for j in range(3)]
        assert kst_bound_check(3, edges, 1) is None

    def test_sweep_x_up_to_4(self):
        from itertools import combinations_with_replacement

        for x in range(1, 5):
            for nbhds in combinations_with_replacement(range(1 << x), x):
                edges = [(i, j) for j, nb in enumerate(nbhds) for i in range(x) if (nb >> i) & 1]
                holds = kst_bound_check(x, edges, 1)
                assert (holds is None) == has_k22(x, set(edges))
                if holds is not None:
                    assert holds

    def test_exact_comparison_not_float(self):
        # 12 edges on a 5+5 biclique-free graph: 12^2 = 144 <= 16 * 125 = 2000
        edges = [(i, (i + d) % 5) for i in range(5) for d in (0, 1)] + [(i, (i + 2) % 5) for i in range(2)]
        holds = kst_bound_check(5, edges, 1)
        if holds is not None:
            assert holds == (len(set(edges)) ** 2 <= 16 * 5 ** 3)


def two_vertex_aux(seed: int, k: int = 1, clique: int = 5, sub: int = 4):
    """A one-edge base graph blown up, and the first sub vertices of each clique;
    within-clique edges blue, cross random."""
    j = Graph(2, [(0, 1)])
    host, bmap = sheared_blowup(j, clique)
    rng = random.Random(seed)
    colours = {}
    for (u, v) in host.sorted_edges():
        if u // clique == v // clique:
            colours[(u, v)] = 1
        else:
            colours[(u, v)] = rng.randint(1, 2)
    chi = EdgeColouring(host, 2, colours)
    return j, host, [cl[:sub] for cl in bmap.clique_of], chi


class TestBuildAuxColouring:
    def test_all_blue_host_gives_all_blue_labels(self):
        j = path_graph(3)
        host, bmap = sheared_blowup(j, 5)
        chi = EdgeColouring.constant(host, 2, 1)
        aux = build_aux_colouring(j, [clique[:4] for clique in bmap.clique_of], chi, 1, 1)
        assert aux.blue == j and aux.witnesses.keys() == j.edges
        ref_validate_aux_colouring(aux, j)

    def test_no_blue_cross_gives_all_grey(self):
        j, host, subs, _ = two_vertex_aux(0)
        colours = {
            e: (1 if e[0] // 5 == e[1] // 5 else 2) for e in host.sorted_edges()
        }
        chi = EdgeColouring(host, 2, colours)
        aux = build_aux_colouring(j, subs, chi, 1, 1)
        assert aux.blue.m == 0 and not aux.witnesses
        ref_validate_aux_colouring(aux, j)

    def test_label_matches_exhaustive_biclique_scan(self):
        for seed in range(20):
            j, host, subs, chi = two_vertex_aux(seed)
            aux = build_aux_colouring(j, subs, chi, 1, 1)
            ba, bb = subs
            exists = any(
                all(host.has_edge(a, b) and chi.colour(a, b) == 1 for a in pa for b in pb)
                for pa in combinations(ba, 2)
                for pb in combinations(bb, 2)
            )
            assert aux.blue.has_edge(0, 1) == exists
            want = ref_find_blue_biclique(ba, bb, lambda a, b: host.has_edge(a, b) and chi.colour(a, b) == 1, 1)
            assert aux.witnesses.get((0, 1)) == want
            ref_validate_aux_colouring(aux, j)

    def test_non_monochromatic_subclique_names_vertex(self):
        j = Graph(2, [(0, 1)])
        host, bmap = sheared_blowup(j, 3)
        colours = {e: 2 for e in host.sorted_edges()}
        chi = EdgeColouring(host, 2, colours)
        with pytest.raises(PreconditionError) as exc:
            build_aux_colouring(j, [clique[:2] for clique in bmap.clique_of], chi, 1, 1)
        assert "base vertex 0" in str(exc.value)

    def test_one_subclique_per_vertex_of_j(self):
        j, host, subs, chi = two_vertex_aux(0)
        with pytest.raises(ParameterError, match="one subclique per vertex"):
            build_aux_colouring(j, subs[:1], chi, 1, 1)

    def test_k_zero_makes_every_edge_blue_and_negative_k_is_refused(self):
        j, host, subs, chi = two_vertex_aux(0)
        aux = build_aux_colouring(j, subs, chi, 0, 1)
        assert aux.blue == j and aux.witnesses == {(0, 1): ((), ())}
        # An edgeless j, so the unmended search is never entered.
        with pytest.raises(ParameterError, match="k must be >= 0"):
            build_aux_colouring(Graph(2, []), subs, chi, -1, 1)

    @pytest.mark.parametrize("blue,size", [(9, 1), (0, 1), (3, 4), (-1, 4)])
    def test_blue_colour_outside_the_colouring_is_refused(self, blue, size):
        # With one-vertex subcliques every edge used to come out grey; with
        # larger ones the refusal blamed a subclique, not the colour.
        j, host, subs, chi = two_vertex_aux(0)
        with pytest.raises(ParameterError, match=f"blue colour {blue} outside 1..2"):
            build_aux_colouring(j, [s[:size] for s in subs], chi, 1, blue)


class TestBluePathPromotion:
    def test_one_edge_path_gives_blue_p4(self):
        j = path_graph(2)
        host, bmap = sheared_blowup(j, 5)
        chi = EdgeColouring.constant(host, 2, 1)
        aux = build_aux_colouring(j, [clique[:4] for clique in bmap.clique_of], chi, 1, 1)
        emb = blue_path_to_blue_power((0, 1), aux)
        assert emb.pattern == path_power(4, 1)
        # direct scan: every pair within ordering distance k is a blue host edge
        for i in range(4):
            for jdx in range(i + 1, min(i + 2, 4)):
                assert host.has_edge(emb.mapping[i], emb.mapping[jdx])
                assert chi.colour(emb.mapping[i], emb.mapping[jdx]) == 1

    def test_all_blue_long_path_k2(self):
        # subcliques need >= 4k vertices: 2k chosen rows exclude their 2k
        # removed-matching partners on the other side
        j = path_graph(4)
        host, bmap = sheared_blowup(j, 9)
        chi = EdgeColouring.constant(host, 3, 1)
        aux = build_aux_colouring(j, [clique[:8] for clique in bmap.clique_of], chi, 2, 1)
        emb = blue_path_to_blue_power((0, 1, 2, 3), aux)
        assert emb.pattern == path_power(16, 2)
        assert validate_embedding(emb) is None
        for i in range(16):
            for jdx in range(i + 1, min(i + 3, 16)):
                assert chi.colour(emb.mapping[i], emb.mapping[jdx]) == 1

    def test_grey_edge_on_path_raises(self):
        j, host, subs, _ = two_vertex_aux(0)
        colours = {e: (1 if e[0] // 5 == e[1] // 5 else 2) for e in host.sorted_edges()}
        chi = EdgeColouring(host, 2, colours)
        aux = build_aux_colouring(j, subs, chi, 1, 1)
        with pytest.raises(PreconditionError):
            blue_path_to_blue_power((0, 1), aux)

    def test_single_vertex_path(self):
        j, host, subs, chi = two_vertex_aux(3)
        chi_blue = EdgeColouring.constant(host, 2, 1)
        aux = build_aux_colouring(j, subs, chi_blue, 1, 1)
        emb = blue_path_to_blue_power((0,), aux)
        assert emb.pattern == path_power(2, 1)
        assert validate_embedding(emb) is None

    def test_witness_side_below_2k_is_a_fault(self):
        # build_aux_colouring stores 2k vertices per side; with 2k - 1 holding
        # the vertex the previous witness leaves in subclique 1, the split
        # keeps k - 1 vertices and the ordering comes out one short
        j = path_graph(3)
        host, bmap = sheared_blowup(j, 5)
        aux = build_aux_colouring(j, [c[:4] for c in bmap.clique_of], EdgeColouring.constant(host, 2, 1), 1, 1)
        shared = min(aux.witnesses[(0, 1)][1])
        short = dataclasses.replace(aux, witnesses={**aux.witnesses, (1, 2): ((shared,), aux.witnesses[(1, 2)][1])})
        with pytest.raises(ConstructionError,
                           match="^promoted embedding failed validation: mapping length differs from pattern order$"):
            blue_path_to_blue_power((0, 1, 2), short)

    @pytest.mark.parametrize("path", [(-1,), (5,), (3,), (0.5,), (0, 1, 0), (1, 2, 3)])
    def test_path_vertex_outside_or_repeated_is_refused(self, path):
        # (-1,) used to embed into vertex 2's subclique through a negative
        # index, (5,) raised a bare IndexError and (0, 1, 0) a ConstructionError.
        j = path_graph(3)
        host, bmap = sheared_blowup(j, 5)
        aux = build_aux_colouring(j, [c[:4] for c in bmap.clique_of], EdgeColouring.constant(host, 2, 1), 1, 1)
        with pytest.raises(PreconditionError, match=r"repeats a vertex or leaves 0\.\.2"):
            blue_path_to_blue_power(path, aux)


class TestFindSubgraph:
    def test_single_edge_pattern(self):
        emb = find_subgraph(cycle_graph(5), path_graph(2))
        assert emb is not None and validate_embedding(emb) is None

    def test_identity_sized_pattern(self):
        g = path_power(5, 2)
        emb = find_subgraph(g, g)
        assert emb is not None and validate_embedding(emb) is None

    def test_no_triangle_in_c5(self):
        assert find_subgraph(cycle_graph(5), complete_graph(3)) is None
        # exhaustive triple oracle
        c5 = cycle_graph(5)
        for a, b, c in combinations(range(5), 3):
            assert not (c5.has_edge(a, b) and c5.has_edge(b, c) and c5.has_edge(a, c))

    def test_colour_class_restriction(self):
        col = pentagon_colouring()
        blue = col.colour_subgraph(1)
        emb = find_subgraph(blue, path_graph(3))
        assert emb is not None
        u, v, w = emb.mapping
        assert col.colour(u, v) == 1 and col.colour(v, w) == 1
        assert find_subgraph(blue, complete_graph(3)) is None

    @given(st.integers(0, 2 ** 20))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_networkx_isomorphism(self, seed):
        import networkx as nx
        from networkx.algorithms.isomorphism import GraphMatcher

        from conftest import to_nx

        rng = random.Random(seed)
        host = random_graph(rng.randint(3, 8), 0.5, seed)
        pattern = random_graph(rng.randint(2, 4), 0.6, seed + 1)
        ours = find_subgraph(host, pattern)
        theirs = GraphMatcher(to_nx(host), to_nx(pattern)).subgraph_monomorphisms_iter()
        exists = next(theirs, None) is not None
        assert (ours is not None) == exists


class TestArrowCheck:
    def test_k3_arrows_p3_two_colours(self):
        v = arrow_check(complete_graph(3), path_graph(3), 2)
        assert v.arrows is True and v.searched == 8
        assert v.witness is not None

    def test_p4_does_not_arrow_p3(self):
        v = arrow_check(path_graph(4), path_graph(3), 2)
        assert v.arrows is False
        assert v.counterexample is not None
        # lowest-index counterexample alternates around the middle edge
        assert v.counterexample.to_string() == "s=2;m=3;010"

    def test_k6_k5_triangle_classics(self):
        assert arrow_check(complete_graph(5), complete_graph(3), 2).arrows is False

    def test_counterexample_revalidates(self):
        v = arrow_check(path_graph(4), path_graph(3), 2)
        col = v.counterexample
        for c in (1, 2):
            assert find_subgraph(col.colour_subgraph(c), path_graph(3)) is None

    def test_single_colour_reduces_to_subgraph_search(self):
        rng = random.Random(9)
        for _ in range(20):
            host = random_graph(rng.randint(2, 6), 0.5, rng.randrange(2 ** 30))
            pattern = random_graph(rng.randint(2, 3), 0.7, rng.randrange(2 ** 30))
            v = arrow_check(host, pattern, 1)
            assert v.arrows == (find_subgraph(host, pattern) is not None)

    def test_monotone_in_host_edges(self):
        rng = random.Random(4)
        for _ in range(10):
            host = random_graph(5, 0.5, rng.randrange(2 ** 30))
            pattern = path_graph(3)
            v = arrow_check(host, pattern, 2)
            if v.arrows:
                bigger = Graph(5, set(host.edges) | {(0, 1), (2, 4)})
                assert arrow_check(bigger, pattern, 2).arrows is True

    @pytest.mark.parametrize("n,calls", [(6, 1), (5, 1 + 2)])
    def test_pattern_prepared_once_per_search(self, monkeypatch, n, calls):
        # Once for the walk; a counterexample adds one per colour class it re-checks.
        from pathramsey import colouring

        seen = []
        original = colouring._prepare_pattern

        def counted(pattern):
            seen.append(pattern)
            return original(pattern)

        monkeypatch.setattr(colouring, "_prepare_pattern", counted)
        v = arrow_check(complete_graph(n), complete_graph(3), 2)
        assert v.arrows is (n == 6)
        assert len(seen) == calls

    def test_colourings_keeping_the_watched_copy_are_not_searched(self, monkeypatch):
        # The ten cases of the benchmark's arrow workload.  Searching every
        # colour class of every colouring made 185,381 class searches; a
        # colouring that keeps the last copy found monochromatic is only
        # counted.  A false case adds one search per colour class it re-checks.
        from pathramsey import colouring
        from test_arrow_reference import ARROW_CASES, PATTERNS

        calls = 0
        original = colouring._embed_masks

        def counted(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(colouring, "_embed_masks", counted)
        work = []
        for n, name, s in ARROW_CASES:
            before = calls
            v = arrow_check(complete_graph(n), PATTERNS[name], s)
            work.append((v.searched, calls - before))
        assert work == [(32768, 10220), (32768, 19143), (32768, 11823), (1024, 851), (59049, 8683),
                        (221, 103), (60, 39), (221, 99), (8, 11), (157, 44)]
        assert calls == 51_016

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError) as exc:
            arrow_check(complete_graph(6), complete_graph(3), 2, budget=100)
        assert str(exc.value).startswith(f"{2 ** 15} colourings")

    def test_budget_refusal_past_the_digit_limit(self, digit_limit):
        # 2^19,900 colourings of K200 have 5,991 digits, more than the interpreter prints.
        with pytest.raises(BudgetExceededError, match=r"^at least 10\*\*4300 colourings exceed the budget 16777216$"):
            arrow_check(complete_graph(200), complete_graph(3), 2)

    def test_count_prints_within_the_digit_limit(self, digit_limit):
        assert _count_text(10 ** 4300 - 1) == "9" * 4300
        assert _count_text(10 ** 4300) == "at least 10**4300"
        sys.set_int_max_str_digits(0)  # no limit
        assert _count_text(10 ** 4300) == "1" + "0" * 4300

    def test_randomized_mode_is_inconclusive_or_refutes(self):
        v = arrow_check(path_graph(4), path_graph(3), 2, mode="randomized", trials=200, seed=1)
        assert v.arrows is False and v.counterexample is not None
        v = arrow_check(complete_graph(3), path_graph(3), 2, mode="randomized", trials=50, seed=1)
        assert v.arrows is None

    @pytest.mark.parametrize("trials", [0, -5])
    def test_randomized_mode_rejects_fewer_than_one_trial(self, trials):
        with pytest.raises(ParameterError, match="trial count"):
            arrow_check(complete_graph(3), path_graph(3), 2, mode="randomized", trials=trials)

    def test_verdict_serialises(self):
        v = arrow_check(complete_graph(3), path_graph(3), 2)
        doc = v.to_dict()
        assert doc["arrows"] is True and doc["searched"] == 8
