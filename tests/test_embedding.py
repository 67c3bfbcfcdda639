"""Embedding engines: validator, constants chain, greedy base case,
template containment, resample-until-clean embedding."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest

from pathramsey import (
    ConstructionError,
    EdgeColouring,
    Embedding,
    Graph,
    LLLFailureError,
    ParameterError,
    PreconditionError,
    check_template_containment,
    complete_graph,
    constants_chain,
    cycle_graph,
    embed_base_case,
    is_good,
    lll_embed,
    make_lll_instance,
    path_graph,
    path_power,
    power,
    quad,
    random_graph,
    validate_embedding,
)

from conftest import complete_bipartite, floyd_warshall, random_graph_with_path
from graph_reference import mask_adjacency


class TestValidateEmbedding:
    def test_constructor_output_passes(self):
        emb = embed_base_case(path_graph(4), 1, (0, 1, 2, 3))
        assert validate_embedding(emb) is None

    def test_collision_rejected(self):
        g = complete_graph(3)
        emb = Embedding(path_graph(2), g, (1, 1))
        assert "injective" in validate_embedding(emb)

    def test_non_edge_rejected(self):
        g = path_graph(4)
        emb = Embedding(path_graph(2), g, (0, 2))
        assert "non-edge" in validate_embedding(emb)

    def test_colour_constraint_enforced(self):
        host = complete_graph(3)
        col = EdgeColouring(host, 2, {(0, 1): 1, (0, 2): 2, (1, 2): 2})
        emb = Embedding(path_graph(2), host, (0, 2), (col, frozenset({1})))
        assert "colour" in validate_embedding(emb)
        ok = Embedding(path_graph(2), host, (0, 1), (col, frozenset({1})))
        assert validate_embedding(ok) is None

    def test_wrong_length_rejected(self):
        emb = Embedding(path_graph(3), complete_graph(3), (0, 1))
        assert validate_embedding(emb) is not None

    def test_names_the_lexicographically_first_failing_edge(self):
        # P6 into P6 less (2,3) and (3,4): both pattern edges fail, and a
        # plain frozenset of P6's edges meets (3,4) first.
        host = Graph(6, [(0, 1), (1, 2), (4, 5)])
        problem = validate_embedding(Embedding(path_graph(6), host, tuple(range(6))))
        assert problem == "pattern edge (2,3) maps to non-edge (2,3)"


GOOD = quad(3, 950400, 1, "1/20")


class TestConstantsChain:
    def test_radius_is_product(self):
        chain = constants_chain(1, 2, 2, 3, GOOD, 1)
        assert chain.big_r == 6

    def test_delta_halves_eps(self):
        chain = constants_chain(1, 2, 1, 2, GOOD, 1)
        assert chain.delta == Fraction(1, 40)

    def test_exact_tower_small(self):
        chain = constants_chain(1, 2, 1, 2, quad(2, 2, "1/2", "1/20"), 1)
        assert chain.t_prime == 16
        assert chain.clique_log == 32
        assert chain.clique_size == 2 ** 32 == 4294967296

    def test_symbolic_when_huge(self):
        chain = constants_chain(2, 3, 2, 4, GOOD, 1)
        assert chain.clique_size is None
        assert chain.clique_log == 3 * GOOD.b ** 8 * 4 ** 4

    def test_formulas_exact(self):
        q = quad(3, 950400, 1, "1/20")
        chain = constants_chain(2, 2, 1, 3, q, "3/2")
        assert chain.big_a == 2 * Fraction(3, 2) * 4 * 2 * 3
        assert chain.big_c == min(Fraction(1, 12), q.eps ** 2 * q.c ** 2 / (240 * q.a))
        assert chain.big_b == 264 * chain.big_a ** 2 / (chain.delta ** 2 * chain.big_c ** 2)

    def test_derived_quadruple_good_on_grid(self):
        for a in (3, 5, 7):
            for c in (1, Fraction(1, 2)):
                for eps in (Fraction(1, 20), Fraction(1, 12)):
                    if a < 2 * c + 1:
                        continue
                    b = 264 * Fraction(a) ** 2 / (eps ** 2 * Fraction(c) ** 2)
                    q = quad(a, b, c, eps)
                    assert is_good(q) == ()
                    for d0 in (1, 2, 10):
                        for s in (1, 2, 3):
                            for t in (1, 2):
                                chain = constants_chain(1, s, 1, t, q, d0)
                                derived = quad(chain.big_a, chain.big_b, chain.big_c, chain.delta)
                                assert is_good(derived) == ()
                                assert chain.to_dict()["derivedGood"] is True

    def test_rejects_bad_d0(self):
        with pytest.raises(ParameterError):
            constants_chain(1, 2, 1, 2, GOOD, 0)

    def test_d0_too_small_for_the_derived_quadruple_is_refused(self):
        # A = 2 d0 (a+1) s t = 8/1000 < 2C+1 used to raise ConstructionError,
        # the class for internal faults.  The least d0 named is exact.
        q = quad(3, 950400, 1, "1/20")
        with pytest.raises(ParameterError, match=r"^d0 = 1/1000 is too small: .* so d0 >= 144001/1152000$"):
            constants_chain(1, 1, 1, 1, q, "1/1000")
        assert constants_chain(1, 1, 1, 1, q, Fraction(144001, 1152000)).big_a == 2 * q.eps ** 2 / 720 + 1
        with pytest.raises(ParameterError, match="^d0 = 144000/1152001 is too small"):
            constants_chain(1, 1, 1, 1, q, Fraction(144000, 1152001))

    @pytest.mark.parametrize("eps", ["1/2", "1/5"])
    def test_eps_too_large_for_the_derived_quadruple_is_refused(self, eps):
        # delta = eps/2 must stay below 1/10; this used to raise ConstructionError.
        with pytest.raises(ParameterError, match=f"^eps = {eps} is too large: .* so eps < 1/5$"):
            constants_chain(1, 1, 1, 1, quad(3, 950400, 1, eps), 1)
        assert constants_chain(1, 1, 1, 1, quad(3, 950400, 1, "19/100"), 1).delta == Fraction(19, 200)

    def test_input_goodness_reported(self):
        assert constants_chain(1, 2, 1, 2, GOOD, 1).to_dict()["inputGood"] is True
        bad = quad(2, 2, "1/2", "1/20")
        assert constants_chain(1, 2, 1, 2, bad, 1).input_failing == is_good(bad) != ()
        assert constants_chain(1, 2, 1, 2, bad, 1).to_dict()["inputGood"] is False

    @pytest.mark.parametrize("k,r", [(40, 1), (1, 40)])
    def test_exponent_beyond_float_range(self, k, r):
        # log2 T = 2 T' has over 300 digits, past any float: the size test
        # used to raise OverflowError.
        chain = constants_chain(k, 2, r, 2, GOOD, 1)
        assert chain.clique_log == 2 * chain.t_prime > 10 ** 400
        assert chain.clique_size is None
        assert chain.to_dict()["T"] is None

    def test_clique_size_held_only_within_the_digit_limit(self):
        # T = 2^32768 fits MAX_EXACT_BITS but has 9,865 decimal digits.
        q = quad(2, 2, "1/2", "1/20")
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            chain = constants_chain(7, 2, 1, 1, q, 1)
            assert chain.clique_log == 32768 and chain.clique_size is None
            assert chain.to_dict()["TDigits"] is None
            sys.set_int_max_str_digits(0)  # no limit
            chain = constants_chain(7, 2, 1, 1, q, 1)
            assert chain.clique_size == 2 ** 32768
            assert chain.to_dict()["TDigits"] == 9865
        finally:
            sys.set_int_max_str_digits(limit)

    def test_fields_too_long_to_print_are_refused(self):
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            # T' = b^2 = 10^638 has 639 digits; log T = 1000 T' has 642.
            chain = constants_chain(1, 1, 1, 1, quad(3, 10 ** 319, 1, "1/20"), 1)
            assert chain.t_prime == 10 ** 638
            with pytest.raises(ParameterError, match="^logT_base_s has more than 640 decimal digits"):
                constants_chain(1, 1000, 1, 1, quad(3, 10 ** 319, 1, "1/20"), 1)
            with pytest.raises(ParameterError, match="^Tprime has more than 640 decimal digits"):
                constants_chain(1, 1, 1, 1, quad(3, 10 ** 320, 1, "1/20"), 1)
            # Every printed rational is checked, inputs and derived values alike:
            # a = 10^200 fits, but B = 264 A^2 / (delta C)^2 has about 816 digits.
            with pytest.raises(ParameterError, match="^a has more than 640 decimal digits"):
                constants_chain(1, 1, 1, 1, quad(10 ** 640, 2, 1, "1/20"), 1)
            with pytest.raises(ParameterError, match="^d0 has more than 640 decimal digits"):
                constants_chain(1, 1, 1, 1, quad(3, 2, 1, "1/20"), Fraction(1, 10 ** 640))
            with pytest.raises(ParameterError, match="^B has more than 640 decimal digits"):
                constants_chain(1, 1, 1, 1, quad(10 ** 200, 2, 1, "1/20"), 1)
        finally:
            sys.set_int_max_str_digits(limit)


    def test_tprime_refused_unbuilt_only_past_the_digit_limit(self):
        # A long T' is refused from the bit lengths of b and t before it is
        # built; every T' that the digit check lets through is still built.
        limit, rng, refused = sys.get_int_max_str_digits(), random.Random(5), 0
        try:
            sys.set_int_max_str_digits(640)
            for _ in range(400):
                b = Fraction(rng.getrandbits(rng.randint(1, 40)) + 1, rng.getrandbits(rng.randint(1, 40)) + 1)
                k, r, t = rng.randint(1, 12), rng.randint(1, 12), rng.randint(1, 2 ** rng.randint(0, 30))
                want = b ** (2 * r * k) * Fraction(t) ** (2 * k)
                if max(want.numerator, want.denominator) < 10 ** 640:
                    assert constants_chain(k, 1, r, t, quad(3, b, 1, "1/20"), 1).t_prime == want
                else:
                    refused += 1
                    with pytest.raises(ParameterError, match="^Tprime has more than 640 decimal digits"):
                        constants_chain(k, 1, r, t, quad(3, b, 1, "1/20"), 1)
        finally:
            sys.set_int_max_str_digits(limit)
        assert 100 < refused < 300


class TestEmbedBaseCase:
    def test_k1_along_any_path(self):
        g, perm = random_graph_with_path(3, 10, extra=8)
        emb = embed_base_case(g, 1, perm)
        assert validate_embedding(emb) is None
        assert emb.pattern == path_power(10, 1)

    def test_p6_squared_with_independent_scan(self):
        g = path_graph(6)
        emb = embed_base_case(g, 2, (0, 1, 2, 3, 4, 5))
        host = emb.host
        assert host.n == 6 * 3
        d = floyd_warshall(host)
        for i in range(6):
            for j in range(i + 1, min(i + 3, 6)):
                assert d[emb.mapping[i]][emb.mapping[j]] == 1

    def test_single_vertex(self):
        emb = embed_base_case(path_graph(3), 2, (1,))
        assert len(emb.mapping) == 1

    def test_path_must_be_valid(self):
        with pytest.raises(Exception):
            embed_base_case(path_graph(3), 1, (0, 2))

    def test_short_greedy_window_is_a_fault(self, monkeypatch):
        # each clique has k + 1 vertices and each earlier pick excludes at most
        # one, so a window that stops short is a bug of the embedding itself
        from pathramsey import embedding

        monkeypatch.setattr(embedding, "_greedy_window", lambda host, bmap, vertices, k: (0, 2))
        with pytest.raises(ConstructionError,
                           match="^greedy embedding failed validation: mapping length differs from pattern order$"):
            embed_base_case(path_graph(4), 1, (0, 1, 2, 3))

    def test_seeded_hosts_sweep(self):
        for i in range(30):
            rng = random.Random(1000 + i)
            k = i % 3 + 1
            n = rng.randint(k + 1, 20)
            g, perm = random_graph_with_path(1000 + i, n, extra=n)
            emb = embed_base_case(g, k, perm, matching_seed=i)
            assert validate_embedding(emb) is None
            assert emb.pattern == path_power(n, k)

    def test_deterministic_tie_break(self):
        g = path_graph(5)
        e1 = embed_base_case(g, 2, (0, 1, 2, 3, 4))
        e2 = embed_base_case(g, 2, (0, 1, 2, 3, 4))
        assert e1.mapping == e2.mapping


class TestTemplateContainment:
    def test_single_edge_base_extracts_sheared_k4(self):
        # 6-vertex toy base: a path 0-1-2-3 plus two spare vertices
        base = Graph(6, [(0, 1), (1, 2), (2, 3)])
        j = power(base, 3)
        h = Graph(2, [(0, 1)])
        segments = [(0, 1), (2, 3)]
        blue = Graph(6, [(0, 2), (1, 3)])
        tmpl, distance_ok = check_template_containment(h, 1, 2, segments, j, blue, base)
        assert tmpl.n == 4
        # cliques (0,1) and (2,3) plus a complete bipartite minus the blue matching
        assert tmpl.m == 2 + 4 - 2
        assert not tmpl.has_edge(0, 2) and not tmpl.has_edge(1, 3)
        assert tmpl.has_edge(0, 3) and tmpl.has_edge(1, 2)
        assert distance_ok

    def test_large_radius_covers_all_pairs(self):
        base = path_graph(8)
        j = power(base, 7)
        h = complete_graph(2)
        segments = [(0, 1), (4, 5)]
        tmpl, _ = check_template_containment(h, 7, 2, segments, j, Graph(8), base)
        assert tmpl.m == 2 + 4 - 2  # no blue pair: the aligned matching goes

    def test_missing_pair_named(self):
        base = path_graph(6)
        j = power(base, 2)
        h = Graph(2, [(0, 1)])
        segments = [(0, 1), (2, 3)]
        with pytest.raises(PreconditionError, match=r"^containment fails at \(\(0, 1\), \(0, 3\)\)$"):
            check_template_containment(h, 1, 2, segments, j, Graph(6), base)

    def test_excess_non_grey_reported(self):
        base = Graph(4, [(0, 1), (1, 2), (2, 3)])
        j = power(base, 3)
        h = Graph(2, [(0, 1)])
        segments = [(0, 1), (2, 3)]
        with pytest.raises(PreconditionError, match="segment"):
            check_template_containment(h, 1, 2, segments, j, j, base)

    def test_segment_shape_validation(self):
        h, j, no_blue = Graph(2, [(0, 1)]), complete_graph(4), Graph(4)
        with pytest.raises(ParameterError):
            check_template_containment(h, 1, 2, [(0, 1)], j, no_blue, j)
        with pytest.raises(ParameterError):
            check_template_containment(h, 1, 2, [(0, 1), (1, 2)], j, no_blue, j)

    @pytest.mark.parametrize("v", [-1, 4, 9])
    def test_out_of_range_segment_vertex_is_a_parameter_error(self, v):
        # before the segment clique check, which would report it as a containment failure
        h, j, no_blue = Graph(2, [(0, 1)]), complete_graph(4), Graph(4)
        with pytest.raises(ParameterError, match=rf"^segment vertex {v} out of range for n=4$"):
            check_template_containment(h, 1, 2, [(0, 1), (2, v)], j, no_blue, j)


def biased_instance(seed: int, bad_per_edge: int = 2, clique: int = 6):
    """Cycle template over blown-up cliques with a few planted blue cross pairs."""
    template = cycle_graph(8)
    from pathramsey import complete_blowup

    host, bmap = complete_blowup(template, clique)
    rng = random.Random(seed)
    colours = {}
    planted: dict = {}
    for (u, v) in host.sorted_edges():
        colours[(u, v)] = 2
    for (a, b) in template.sorted_edges():
        pairs = [(x, y) for x in bmap.clique_of[a] for y in bmap.clique_of[b]]
        for x, y in rng.sample(pairs, bad_per_edge):
            colours[(min(x, y), max(x, y))] = 1
    chi = EdgeColouring(host, 2, colours)
    return make_lll_instance(template, list(bmap.clique_of), host, chi, 1)


class TestLLLEmbed:
    def test_no_bad_pairs_accepts_first_sample(self):
        template = path_graph(3)
        from pathramsey import complete_blowup

        host, bmap = complete_blowup(template, 3)
        chi = EdgeColouring.constant(host, 2, 2)
        inst = make_lll_instance(template, list(bmap.clique_of), host, chi, 1)
        assert inst.condition_value == 0
        emb = lll_embed(inst, seed=0, max_resamples=1)
        assert validate_embedding(emb) is None

    def test_single_event_sixteen_outcomes(self):
        template = Graph(2, [(0, 1)])
        host = complete_bipartite(4, 4)
        chi = EdgeColouring(host, 2, {e: (1 if e == (0, 4) else 2) for e in host.edges})
        inst = make_lll_instance(template, [(0, 1, 2, 3), (4, 5, 6, 7)], host, chi, 1)
        assert inst.bad_pairs[(0, 1)] == frozenset({(0, 4)})
        for seed in range(16):
            emb = lll_embed(inst, seed=seed, max_resamples=64)
            assert (emb.mapping[0], emb.mapping[1]) != (0, 4)
            assert validate_embedding(emb) is None

    def test_condition_value_and_dependency_degree(self):
        inst = biased_instance(7)
        assert inst.dependency_degree == 2
        assert inst.condition_value == 4 * 2 * Fraction(2, 36)
        assert inst.feasible

    def test_dependency_degree_bounded_by_twice_max_degree(self):
        inst = biased_instance(3)
        deg = max(map(len, mask_adjacency(inst.template)))
        assert inst.dependency_degree <= 2 * deg

    def test_feasible_instances_succeed(self):
        for seed in range(10):
            inst = biased_instance(seed)
            emb = lll_embed(inst, seed=seed, max_resamples=100 * inst.template.m)
            assert validate_embedding(emb) is None
            for (u, v) in inst.template.edges:
                assert inst.chi.colour(emb.mapping[u], emb.mapping[v]) != 1

    def test_dense_bad_pairs_fail_honestly(self):
        template = Graph(2, [(0, 1)])
        host = complete_bipartite(2, 2)
        chi = EdgeColouring.constant(host, 2, 1)  # every cross pair blue
        inst = make_lll_instance(template, [(0, 1), (2, 3)], host, chi, 1)
        assert not inst.feasible or inst.condition_value == 0
        with pytest.raises(LLLFailureError) as exc:
            lll_embed(inst, seed=1, max_resamples=25)
        assert exc.value.stats["resamples"] == 25
        assert exc.value.stats["violations"]

    def test_replayable_for_fixed_seed(self):
        inst = biased_instance(5)
        e1 = lll_embed(inst, seed=9, max_resamples=500)
        e2 = lll_embed(inst, seed=9, max_resamples=500)
        assert e1.mapping == e2.mapping

    def test_empty_candidate_set_rejected(self):
        template = Graph(2, [(0, 1)])
        host = complete_bipartite(2, 2)
        with pytest.raises(ParameterError):
            make_lll_instance(template, [(0, 1), ()], host)

    @pytest.mark.parametrize("blue", [0, 3, 9, -3, None])
    def test_blue_colour_outside_the_colouring_is_refused(self, blue):
        # An out-of-range colour used to make no pair blue, and the instance passed.
        template, host = Graph(2, [(0, 1)]), complete_bipartite(2, 2)
        chi = EdgeColouring.constant(host, 2, 1)
        with pytest.raises(ParameterError, match=f"blue colour {blue} outside 1..2"):
            make_lll_instance(template, [(0, 1), (2, 3)], host, chi, blue)

    def test_blue_colour_without_colouring_is_refused(self):
        # It used to be ignored silently.
        with pytest.raises(ParameterError, match="a blue colour needs a colouring"):
            make_lll_instance(Graph(2, [(0, 1)]), [(0, 1), (2, 3)], complete_bipartite(2, 2), None, 1)

    @pytest.mark.parametrize("cliques,shared", [
        ([(0, 1), (3, 4), (2, 0)], "0 and 2 share host vertex 0"),
        ([(0,), (0,), (1,)], "0 and 1 share host vertex 0"),
        ([(0, 1), (5, 3), (2, 4, 3)], "1 and 2 share host vertex 3"),
    ])
    def test_overlapping_candidate_sets_are_refused(self, cliques, shared):
        # Template vertices with no edge between them share no bad event, so
        # nothing kept them from drawing the same host vertex.
        with pytest.raises(ParameterError, match=f"^candidate sets of template vertices {shared}$"):
            make_lll_instance(path_graph(3), cliques, complete_graph(6))

    def test_adjacency_only_instance_without_colouring(self):
        template = Graph(2, [(0, 1)])
        host = Graph(4, [(0, 2), (0, 3), (1, 2)])
        inst = make_lll_instance(template, [(0, 1), (2, 3)], host)
        assert inst.bad_pairs[(0, 1)] == frozenset({(1, 3)})
        emb = lll_embed(inst, seed=2, max_resamples=50)
        assert emb.colour_constraint is None
        assert host.has_edge(emb.mapping[0], emb.mapping[1])
