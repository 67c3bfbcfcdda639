"""Two-coloured covers, constrained paths, segments, and the segment graph."""

from __future__ import annotations

import random
import signal
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from pathramsey import (
    BudgetExceededError,
    ConstructionError,
    EdgeColouring,
    Graph,
    NoPathFoundError,
    ParameterError,
    PartitionResult,
    PreconditionError,
    auxiliary_graph,
    complete_graph,
    cycle_graph,
    girth_violation,
    long_path_through_sets,
    partition_two_coloured,
    path_graph,
    prune_top,
    random_graph,
    segment_path,
    sparsify,
    verify_partition,
)

from pathramsey import partition, pseudorandom
from pathramsey.graphs import validate_path

from conftest import oracle_cross_edges


def blue_of_int(n: int, x: int) -> Graph:
    return EdgeColouring.from_integer(complete_graph(n), 2, x).colour_subgraph(1)


class TestPartitionExamples:
    def test_all_blue_k4_yields_hamilton_path(self):
        blue = EdgeColouring.constant(complete_graph(4), 2, 1).colour_subgraph(1)
        res = partition_two_coloured(blue, 1, mode="exhaustive")
        assert verify_partition(blue, res, 1) is None
        assert len(res.blue_paths) == 1 and len(res.blue_paths[0]) == 4
        assert all(len(c) == 0 for c in res.red_classes)

    def test_all_red_k4_yields_balanced_bipartition(self):
        blue = EdgeColouring.constant(complete_graph(4), 2, 2).colour_subgraph(1)
        res = partition_two_coloured(blue, 1, mode="exhaustive")
        assert verify_partition(blue, res, 1) is None
        assert res.blue_paths == ()
        assert sorted(len(c) for c in res.red_classes) == [2, 2]

    def test_k3_single_blue_edge(self):
        host = complete_graph(3)
        col = EdgeColouring(host, 2, {(0, 1): 1, (0, 2): 2, (1, 2): 2})
        blue = col.colour_subgraph(1)
        res = partition_two_coloured(blue, 1, mode="exhaustive")
        assert verify_partition(blue, res, 1) is None
        covered = {v for p in res.blue_paths for v in p}
        covered |= {v for c in res.red_classes for v in c}
        assert covered == {0, 1, 2}

    def test_full_enumeration_small(self):
        # every 2-colouring of K_n admits a verified cover, n <= 5, ell in {1,2}
        for n in range(2, 6):
            m = n * (n - 1) // 2
            for ell in (1, 2):
                for x in range(2 ** m):
                    blue = blue_of_int(n, x)
                    res = partition_two_coloured(blue, ell, mode="exhaustive")
                    problem = verify_partition(blue, res, ell)
                    assert problem is None, (n, ell, x, problem)

    def test_exhaustive_cover_of_every_graph_on_at_most_7_vertices_splits_evenly(self):
        # Pokrovskiy's path-cover lemma: ell blue paths plus ell + 1 red classes
        # of one size always cover.  The atlas holds one graph per isomorphism
        # class (1,253 graphs), which suffices: whether an equal split exists
        # does not depend on the labels, and the scan tries every covered support.
        atlas = nx.graph_atlas_g()
        assert len(atlas) == 1253 and max(g.number_of_nodes() for g in atlas) == 7
        for i, g in enumerate(atlas):
            blue = Graph(g.number_of_nodes(), list(g.edges()))
            for ell in range(1, 5):
                res = partition_two_coloured(blue, ell, mode="exhaustive")
                assert verify_partition(blue, res, ell) is None, (i, ell)
                assert len(res.red_classes) == ell + 1, (i, ell)
                assert len({len(c) for c in res.red_classes}) == 1, (i, ell, res)

    def test_heuristic_mode_on_larger_instance(self):
        rng = random.Random(5)
        host = complete_graph(20)
        col = EdgeColouring(host, 2, {e: rng.randint(1, 2) for e in host.edges})
        blue = col.colour_subgraph(1)
        res = partition_two_coloured(blue, 2, mode="heuristic", seed=3)
        assert verify_partition(blue, res, 2) is None

    def test_heuristic_on_large_edgeless_blue_graph(self):
        # Grouping 1,100 singleton components used to recurse once per component.
        blue = Graph(1100)
        result = partition_two_coloured(blue, 1, "heuristic")
        assert verify_partition(blue, result, 1) is None

    @pytest.mark.parametrize("mode,largest", [("exhaustive", 9), ("heuristic", 30)])
    def test_every_cover_has_ell_plus_one_classes(self, mode, largest):
        # induction_step threads its long path through the t = ell + 1 classes
        # of its cover without counting them; empty classes pad a short split.
        # Every search returns a cover.
        for seed in range(40):
            rng = random.Random(seed)
            n, ell = rng.randint(1, largest), rng.randint(1, 3)
            blue = random_graph(n, rng.random(), seed)
            res = partition_two_coloured(blue, ell, mode=mode, seed=seed)
            assert len(res.red_classes) == ell + 1, (seed, n, ell)

    @pytest.mark.parametrize("mode", ["exhaustive", "heuristic"])
    def test_a_million_paths_return_a_cover(self, mode):
        # The check compares nonempty classes only, and the exhaustive tables
        # stop at n layers, so a huge ell costs time linear in ell.  The alarm
        # turns a hang into a failure.
        blue = Graph(4, [(0, 1), (2, 3)])
        handler = signal.signal(signal.SIGALRM, lambda *_: pytest.fail("cover with ell = 10**6 took over 30 s"))
        signal.alarm(30)
        try:
            res = partition_two_coloured(blue, 10**6, mode=mode)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, handler)
        assert verify_partition(blue, res, 10**6) is None
        assert len(res.red_classes) == 10**6 + 1 and not any(res.red_classes)

    def test_exhaustive_cap(self):
        blue = EdgeColouring.constant(complete_graph(13), 2, 1).colour_subgraph(1)
        with pytest.raises(ParameterError):
            partition_two_coloured(blue, 1, mode="exhaustive")

    @pytest.mark.parametrize("mode", ["auto", "exhaustive", "heuristic"])
    @pytest.mark.parametrize("n", [0, 5, 12, 20])
    def test_no_path_leaves_one_class(self, mode, n):
        # ell = 0 (the step at t = 1) has nothing to search, even for an
        # explicit exhaustive search above its cap: one class and no path.
        blue = random_graph(n, 0.5, n)
        res = partition_two_coloured(blue, 0, mode=mode)
        assert res == PartitionResult((), (tuple(range(n)),))
        assert verify_partition(blue, res, 0) is None


class TestVerifyPartition:
    def test_red_edge_inside_blue_path_rejected(self):
        blue = EdgeColouring.constant(complete_graph(4), 2, 2).colour_subgraph(1)
        bad = PartitionResult(((0, 1),), ((2,), (3,)))
        problem = verify_partition(blue, bad, 1)
        assert "not blue" in problem

    def test_unbalanced_classes_rejected(self):
        blue = EdgeColouring.constant(complete_graph(5), 2, 2).colour_subgraph(1)
        bad = PartitionResult((), ((0, 1, 2), (3,)))
        problem = verify_partition(blue, bad, 1)
        # vertex 4 missing would hit first, so cover it via a path: still unbalanced
        bad = PartitionResult(((4,),), ((0, 1, 2), (3,)))
        problem = verify_partition(blue, bad, 1)
        assert "unbalanced" in problem

    def test_missing_vertex_rejected(self):
        blue = EdgeColouring.constant(complete_graph(4), 2, 2).colour_subgraph(1)
        bad = PartitionResult((), ((0, 1), (2,)))
        assert verify_partition(blue, bad, 1) is not None

    def test_blue_cross_class_pair_rejected(self):
        host = complete_graph(4)
        col = EdgeColouring(host, 2, {e: (1 if e == (0, 2) else 2) for e in host.edges})
        bad = PartitionResult((), ((0, 1), (2, 3)))
        problem = verify_partition(col.colour_subgraph(1), bad, 1)
        assert "not red" in problem

    def test_too_many_classes_rejected(self):
        blue = Graph(4)
        bad = PartitionResult((), ((0,), (1,), (2,), (3,)))
        assert verify_partition(blue, bad, 2) == "4 classes exceed ell+1"

    @pytest.mark.parametrize("paths,classes,v", [
        (((0, 1), (1,)), ((2, 3),), 1),
        (((0, 1, 4),), ((2, 3),), 4),
        (((0, 1),), ((2, 0), (3, 1)), 0),
        (((0, 1),), ((2, 3), (-1, 4)), -1),
    ], ids=["path-repeated", "path-out-of-range", "class-repeated", "class-out-of-range"])
    def test_repeated_or_out_of_range_vertex_rejected(self, paths, classes, v):
        blue = complete_graph(4)
        bad = PartitionResult(paths, classes)
        assert verify_partition(blue, bad, 2) == f"vertex {v} repeated or out of range"

    def test_too_many_paths_rejected(self):
        blue = EdgeColouring.constant(complete_graph(4), 2, 1).colour_subgraph(1)
        bad = PartitionResult(((0,), (1,)), ((2,), (3,)))
        assert verify_partition(blue, bad, 1) is not None

    def test_accepted_cover_covers_each_vertex_once(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(2, 6)
            x = rng.randrange(2 ** (n * (n - 1) // 2))
            res = partition_two_coloured(blue_of_int(n, x), 1, mode="exhaustive")
            seen = [v for p in res.blue_paths for v in p]
            seen += [v for c in res.red_classes for v in c]
            assert sorted(seen) == list(range(n))


class TestLongPath:
    def test_hamilton_in_k4(self):
        w = long_path_through_sets(complete_graph(4), [range(4)], 4)
        assert len(w) == 4

    def test_c6_alternating(self):
        w = long_path_through_sets(cycle_graph(6), [[0, 2, 4], [1, 3, 5]], 6)
        assert len(w) == 6
        validate_path(cycle_graph(6), w, [[0, 2, 4], [1, 3, 5]])
        for i, v in enumerate(w):
            assert v % 2 == i % 2

    def test_two_triangles_rejected_by_expansion_check(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        with pytest.raises(PreconditionError):
            long_path_through_sets(g, [[0, 1, 2], [3, 4, 5]], 6, gamma=Fraction(1, 3))

    @pytest.mark.parametrize("spare", [0, 1])
    def test_expansion_pre_check_runs_within_its_budget(self, monkeypatch, spare):
        # P8 at gamma = 1/4 pre-checks its 210 disjoint pairs of 2-sets: at or
        # below the budget the first pair with no cross edge refuses the call.
        monkeypatch.setattr(pseudorandom, "EXPANSION_PAIR_BUDGET", 210 + spare)
        assert partition.check_expansion(path_graph(8), 2) == (0b11, 0b11000)
        with pytest.raises(PreconditionError, match=r"^expansion hypothesis fails: no edge between \[0, 1\] and \[3, 4\]$"):
            long_path_through_sets(path_graph(8), [range(8)], 8, gamma=Fraction(1, 4))

    def test_expansion_pre_check_is_asserted_above_its_budget(self, monkeypatch):
        # One pair over the budget nothing is checked: the path is found, and a
        # direct caller tells that apart from an expanding graph.
        monkeypatch.setattr(pseudorandom, "EXPANSION_PAIR_BUDGET", 209)
        assert long_path_through_sets(path_graph(8), [range(8)], 8, gamma=Fraction(1, 4)) == tuple(range(8))
        with pytest.raises(BudgetExceededError, match="^210 pairs exceed the exhaustive budget 209$"):
            partition.check_expansion(path_graph(8), 2)
        monkeypatch.setattr(pseudorandom, "EXPANSION_PAIR_BUDGET", 210)
        assert partition.check_expansion(complete_graph(8), 2) is None

    def test_expansion_pre_check_past_the_digit_limit_is_asserted(self, digit_limit):
        # P10000 at gamma = 1/4 has a pre-check family with 4,512 digits, more
        # than the interpreter prints: the refusal still names it, so the
        # hypothesis is asserted and the path searched.
        g = path_graph(10_000)
        assert long_path_through_sets(g, [[0, 1, 2, 3]], 2, gamma=Fraction(1, 4)) == (0, 1)
        with pytest.raises(BudgetExceededError, match=r"^at least 10\*\*4300 pairs exceed the exhaustive budget "):
            partition.check_expansion(g, 2500)

    def test_honest_failure_carries_longest(self):
        g = path_graph(4)
        with pytest.raises(NoPathFoundError) as exc:
            long_path_through_sets(g, [[0, 1, 2, 3]], 5)
        assert exc.value.longest is not None
        assert len(exc.value.longest) == 4

    def test_part_pattern_enforced(self):
        # a path exists, but not one matching the residue pattern
        g = path_graph(4)
        with pytest.raises(NoPathFoundError):
            long_path_through_sets(g, [[0, 1], [2, 3]], 4)

    def test_overlapping_parts_rejected(self):
        with pytest.raises(ParameterError):
            long_path_through_sets(complete_graph(4), [[0, 1], [1, 2]], 3)

    @pytest.mark.parametrize("node_budget", [0, -3])
    def test_budget_below_one_rejected(self, node_budget):
        with pytest.raises(ParameterError, match="node budget"):
            long_path_through_sets(path_graph(4), [range(4)], 2, node_budget=node_budget)

    @pytest.mark.parametrize("gamma", [Fraction(0), Fraction(-1), Fraction(1), Fraction(2)])
    def test_gamma_outside_open_unit_interval_rejected(self, gamma):
        # gamma <= 0 would pre-check 1-sets and report a bogus witness; gamma >= 1
        # asks for sets too large to be disjoint, so the pre-check passed vacuously.
        with pytest.raises(ParameterError, match=r"gamma must lie in \(0, 1\)"):
            long_path_through_sets(cycle_graph(6), [range(6)], 3, gamma=gamma)

    def test_budget_pays_for_every_path_entered(self):
        # The walk enters [0], [0, 1], [0, 1, 2] and [0, 1, 2, 3]: the start
        # vertex and the complete path cost one unit each, like the rest.
        g = path_graph(4)
        assert long_path_through_sets(g, [range(4)], 4, node_budget=4) == (0, 1, 2, 3)
        with pytest.raises(NoPathFoundError) as exc:
            long_path_through_sets(g, [range(4)], 4, node_budget=3)
        assert exc.value.longest == (0, 1, 2)

    def test_search_yielding_a_non_path_is_a_fault(self, monkeypatch):
        # the search's own result can fail the path check only through a bug
        monkeypatch.setattr(partition, "_depth_first", lambda roots, budget: iter([(0, 2)]))
        with pytest.raises(ConstructionError, match=r"^search produced an invalid path: path step \(0,2\) is not an edge$"):
            long_path_through_sets(path_graph(4), [range(4)], 2)

    @given(st.integers(0, 2 ** 20))
    @settings(max_examples=25, deadline=None)
    def test_found_witness_always_validates(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 10)
        g = random_graph(n, 0.7, seed)
        t = rng.choice([1, 2])
        parts = [[v for v in range(n) if v % t == i] for i in range(t)]
        target = rng.randint(2, n // t * t)
        try:
            w = long_path_through_sets(g, parts, target)
        except NoPathFoundError:
            return
        validate_path(g, w, parts)
        assert len(w) == target


class TestSegments:
    def test_six_into_three(self):
        assert segment_path((0, 1, 2, 3, 4, 5), 3) == [(0, 1, 2), (3, 4, 5)]

    def test_singletons(self):
        assert segment_path([3, 1, 4, 1 + 4, 9, 2], 1) == [(3,), (1,), (4,), (5,), (9,), (2,)]

    def test_twelve_into_four(self):
        segs = segment_path(tuple(range(12)), 4)
        assert segs == [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)]

    def test_indivisible_rejected(self):
        with pytest.raises(ParameterError):
            segment_path((0, 1, 2), 2)

    @pytest.mark.parametrize("vertices,message", [
        ((0, 0), "path repeats a vertex"),
        ((2, 5, 2, 7), "path repeats a vertex"),
        ((-1, 2), "path vertex -1 is negative"),
    ])
    def test_repeated_or_negative_vertex_rejected(self, vertices, message):
        # Both used to split into segments: a repeat landed in two of them.
        with pytest.raises(ParameterError, match=message):
            segment_path(vertices, 1)


class TestAuxiliaryGraph:
    def test_consecutive_segments_adjacent(self):
        g = path_graph(12)
        segs = segment_path(tuple(range(12)), 3)
        h = auxiliary_graph(g, segs)
        for i in range(len(segs) - 1):
            assert h.has_edge(i, i + 1)

    def test_absent_cross_edges(self):
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        h = auxiliary_graph(g, [(0, 1), (2, 3), (4, 5)])
        assert h.m == 0

    def test_overlap_rejected(self):
        with pytest.raises(ParameterError):
            auxiliary_graph(path_graph(4), [(0, 1), (1, 2)])

    @given(st.integers(0, 2 ** 20))
    @settings(max_examples=40, deadline=None)
    def test_matches_quadratic_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 16)
        g = random_graph(n, 0.4, seed)
        ids = list(range(n))
        rng.shuffle(ids)
        k = n // 2
        segments = [tuple(ids[2 * i: 2 * i + 2]) for i in range(k)]
        h = auxiliary_graph(g, segments)
        for i in range(k):
            for j in range(i + 1, k):
                expected = oracle_cross_edges(g, segments[i], segments[j]) > 0
                assert h.has_edge(i, j) == expected

    def test_simple_even_with_many_cross_edges(self):
        g = complete_graph(8)
        h = auxiliary_graph(g, [(0, 1), (2, 3), (4, 5), (6, 7)])
        assert h == complete_graph(4)

    def test_girth_constrained_hosts_have_single_cross_edges(self):
        # when the host has no short cycles, two segments share at most one edge
        rng = random.Random(3)
        for _ in range(20):
            g = random_graph(14, 0.25, rng.randrange(2 ** 30))
            if girth_violation(g, 8) is not None:
                continue
            segments = [(i, i + 1) for i in range(0, 14, 2)]
            for i in range(7):
                for j in range(i + 1, 7):
                    assert oracle_cross_edges(g, segments[i], segments[j]) <= 1


class TestSparsifyPrune:
    def test_sparsify_identity_at_one(self):
        g = random_graph(10, 0.5, seed=4)
        assert sparsify(g, 1, seed=9) == g

    def test_sparsify_rejects_bad_p(self):
        g = path_graph(3)
        with pytest.raises(ParameterError):
            sparsify(g, 0, seed=1)
        with pytest.raises(ParameterError):
            sparsify(g, 1.5, seed=1)

    def test_sparsify_checks_p_exactly(self):
        # 10^-400 lies in (0, 1], as PipelineConfig accepts it, though it
        # rounds to the float 0.0: no edge is kept, and nothing is raised.
        assert sparsify(path_graph(3), Fraction(1, 10 ** 400), 0) == Graph(3)
        with pytest.raises(ParameterError):
            sparsify(path_graph(3), 1 + Fraction(1, 10 ** 400), 0)

    def test_sparsify_binomial_statistics(self):
        g = complete_graph(16)  # 120 edges
        p = 0.4
        counts = [sparsify(g, p, seed=s).m for s in range(100)]
        mean = sum(counts) / 100
        sigma = (g.m * p * (1 - p)) ** 0.5
        assert abs(mean - g.m * p) < 5 * sigma / 10  # mean of 100: sd/10
        for c in counts:
            assert abs(c - g.m * p) < 5 * sigma

    def test_sparsify_deterministic(self):
        g = complete_graph(10)
        assert sparsify(g, 0.3, seed=7) == sparsify(g, 0.3, seed=7)

    def test_prune_star_removes_centre(self):
        star = Graph(6, [(0, i) for i in range(1, 6)])
        pruned, kept = prune_top(star, 1)
        assert kept == (1, 2, 3, 4, 5)
        assert pruned.m == 0

    def test_prune_reports_kept_ids(self):
        g = complete_graph(5)
        pruned, kept = prune_top(g, 2)
        assert len(kept) == 3 and pruned.n == 3
        assert pruned == complete_graph(3)

