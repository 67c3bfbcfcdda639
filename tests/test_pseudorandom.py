"""Class membership: goodness, generation pipeline, verifiers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pathramsey import (
    BudgetExceededError,
    CertificationError,
    ClassPParams,
    GenerationConfig,
    Graph,
    ParameterError,
    complete_graph,
    cycle_graph,
    fit_density_certificate,
    generate_class_p,
    girth_violation,
    is_good,
    max_degree,
    path_graph,
    quad,
    random_graph,
    verify_class_p,
    verify_edgeboost,
)
from pathramsey.pseudorandom import disjoint_pair_count, prune_to_size

from classp_reference import ref_iter_disjoint_pairs
from conftest import oracle_cross_edges

TOY_QUAD = quad(1, 64, "1/2", "4/5")


def toy_params(n: int = 16, t: int = 1) -> ClassPParams:
    return ClassPParams(TOY_QUAD, t=t, n=n)


class TestGoodness:
    def test_exact_boundary_is_good(self):
        # 264 * 3^2 * (1/20)^-2 * 1^-2 = 264 * 9 * 400 = 950400
        assert 264 * 9 * 400 == 950400
        assert is_good(quad(3, 950400, 1, "1/20")) == ()

    def test_b_too_small(self):
        failing = is_good(quad(3, 1000, 1, "1/20"))
        assert failing == ("b >= 264 a^2 eps^-2 c^-2",)

    def test_a_below_threshold(self):
        failing = is_good(quad(2, 10 ** 9, 1, "1/20"))
        assert failing == ("a >= 2c+1",)

    def test_eps_must_be_small(self):
        failing = is_good(quad(3, 10 ** 9, 1, "1/5"))
        assert failing == ("eps < 1/10",)

    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ParameterError):
            quad(0, 1, 1, "1/20")
        with pytest.raises(ParameterError):
            quad(1, 1, 1, "3/2")


class TestParams:
    def test_floor_rounding(self):
        p = ClassPParams(quad(2, 10, "1/3", "1/2"), t=2, n=7)
        assert p.an == 14 and p.cn == 2 and p.two_an == 28

    def test_rejects_small_cn(self):
        with pytest.raises(ParameterError):
            ClassPParams(quad(1, 10, "1/10", "1/2"), t=1, n=5)

    def test_paper_mode_probability(self):
        p = ClassPParams(quad(3, 950400, 1, "1/20"), t=2, n=100)
        expected = 60 * Fraction(3) / (Fraction(1, 400) * 1 * 100)
        assert GenerationConfig.closed_form_p(p) == expected
        with pytest.raises(ParameterError, match=r"edge probability .* outside \(0, 1\]"):
            GenerationConfig(p=GenerationConfig.closed_form_p(p), seed=0)

    def test_paper_mode_feasible_at_large_n(self):
        p = ClassPParams(quad(3, 950400, 1, "1/20"), t=2, n=10 ** 6)
        cfg = GenerationConfig(p=GenerationConfig.closed_form_p(p), seed=0)
        assert cfg.p == Fraction(9, 125)


class TestPairEnumeration:
    def test_count_matches_enumeration(self):
        for n, k in [(6, 2), (8, 3), (10, 2), (16, 8)]:
            assert disjoint_pair_count(n, k) == sum(1 for _ in ref_iter_disjoint_pairs(n, k))

    def test_pairs_are_disjoint_and_unordered(self):
        seen = set()
        for x, y in ref_iter_disjoint_pairs(7, 2):
            assert x & y == 0 and x < y
            assert (x, y) not in seen
            seen.add((x, y))


class TestDensityCertificate:
    def test_complete_graph_exact(self):
        cert = fit_density_certificate(complete_graph(8), 2, Fraction(1, 10))
        assert cert.passed and cert.f_ref == 1 and cert.max_rel_dev == 0

    def test_edgeless_fails_positive_reference(self):
        cert = fit_density_certificate(Graph(8), 2, Fraction(1, 2))
        assert not cert.passed

    def test_zero_pair_with_tolerance_below_one_fails(self):
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)])
        cert = fit_density_certificate(g, 2, Fraction(1, 2))
        assert not cert.passed

    def test_vacuous_when_no_pairs_fit(self):
        cert = fit_density_certificate(complete_graph(3), 2, Fraction(1, 2))
        assert cert.passed and cert.mode == "vacuous" and cert.pairs_checked == 0

    @pytest.mark.parametrize("g", [Graph(3, [(0, 1)]), complete_graph(6)], ids=["no-pairs", "pairs"])
    def test_unknown_mode_is_a_parameter_error(self, g):
        # Also when no pair fits, where the certificate would be vacuous.
        with pytest.raises(ParameterError, match="unknown certification mode 'bogus'"):
            fit_density_certificate(g, 2, Fraction(1, 2), mode="bogus")

    def test_exhaustive_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            fit_density_certificate(Graph(40), 10, Fraction(1, 2), mode="exhaustive")

    def test_sample_count_below_one_is_a_parameter_error(self):
        g = random_graph(12, 0.5, seed=1)
        with pytest.raises(ParameterError):
            fit_density_certificate(g, 3, Fraction(1, 2), mode="sampled", sample_count=0)
        with pytest.raises(ParameterError):
            verify_class_p(g, toy_params(n=12), mode="sampled", sample_count=0)
        with pytest.raises(ParameterError):
            GenerationConfig(p=Fraction(1, 2), seed=0, cert_samples=0)

    @pytest.mark.parametrize("budget", [0, -3])
    def test_retry_budget_below_one_is_a_parameter_error(self, budget):
        with pytest.raises(ParameterError, match="retry budget must be >= 1"):
            GenerationConfig(p=Fraction(1, 2), seed=0, retry_budget=budget)

    def test_fitted_reference_within_feasible_interval(self):
        g = random_graph(12, 0.6, seed=9)
        cert = fit_density_certificate(g, 3, Fraction(1, 2))
        if cert.passed:
            assert cert.feasible_low <= cert.f_ref <= cert.feasible_high


class TestGeneration:
    def test_toy_run_passes_independent_checks(self):
        params = toy_params()
        g, cert, log = generate_class_p(params, GenerationConfig(p=Fraction(7, 10), seed=7))
        assert g.n == params.an
        assert cert.passed and cert.mode == "exhaustive"
        # independent re-checks, not via verify_class_p
        assert max_degree(g) <= params.quad.b
        lo = (1 - params.quad.eps) * cert.f_ref
        hi = (1 + params.quad.eps) * cert.f_ref
        for x, y in ref_iter_disjoint_pairs(g.n, params.cn):
            xs = [v for v in range(g.n) if (x >> v) & 1]
            ys = [v for v in range(g.n) if (y >> v) & 1]
            d = Fraction(oracle_cross_edges(g, xs, ys), params.cn ** 2)
            assert lo <= d <= hi

    def test_girth_condition_enforced_with_t2(self):
        params = ClassPParams(TOY_QUAD, t=2, n=16)
        g, _, log = generate_class_p(params, GenerationConfig(p=Fraction(7, 10), seed=3))
        assert girth_violation(g, 4) is None
        assert len(log.removed_edges) == log.cycles_found == log.to_dict()["cyclesFound"] > 0
        with pytest.raises(AttributeError):  # derived from removed_edges, never stored
            log.cycles_found = 0

    def test_acyclic_sample_removes_nothing(self):
        # c > a makes the certification family vacuous, so a near-empty sample
        # passes and the cycle cleaner must find nothing to do.
        params = ClassPParams(quad("1/2", 64, 1, "4/5"), t=2, n=8)
        g, _, log = generate_class_p(params, GenerationConfig(p=Fraction(1, 100), seed=5))
        assert log.cycles_found == 0 and log.removed_edges == []
        assert g.n == params.an

    def test_complete_sample_cleans_to_large_girth(self):
        # p = 1 certifies trivially; the cleaner must then break every short cycle.
        params = ClassPParams(TOY_QUAD, t=2, n=8)
        g, cert, log = generate_class_p(params, GenerationConfig(p=Fraction(1), seed=1))
        assert girth_violation(g, 4) is None
        assert g.n == params.an
        assert max_degree(g) <= params.quad.b
        assert log.cycles_found > 0

    def test_deterministic_per_seed(self):
        params = toy_params()
        cfg = GenerationConfig(p=Fraction(7, 10), seed=42)
        g1, c1, _ = generate_class_p(params, cfg)
        g2, c2, _ = generate_class_p(params, cfg)
        assert g1 == g2 and c1.f_ref == c2.f_ref

    def test_retry_budget_exhaustion_reports_worst_pair(self):
        # eps tiny and p strictly between grid values: counts can never satisfy the band.
        params = ClassPParams(quad(1, 64, "1/2", "1/100"), t=1, n=8)
        with pytest.raises(CertificationError) as exc:
            generate_class_p(params, GenerationConfig(p=Fraction(1, 3), seed=0, retry_budget=3))
        # The band for 16/3 expected cross edges with slack 1/200 holds no integer.
        assert str(exc.value).endswith("cross edges, outside [6, 5]")
        assert " X=[" in str(exc.value) and "], Y=[" in str(exc.value)


class TestPruning:
    def test_prune_star_removes_centre(self):
        star = Graph(6, [(0, i) for i in range(1, 6)])
        pruned, kept, removed = prune_to_size(star, 5)
        assert removed == [0]
        assert pruned.m == 0

    def test_prune_tie_breaks_smallest_id(self):
        g = cycle_graph(4)
        _, kept, removed = prune_to_size(g, 3)
        assert removed == [0]

    def test_degree_bound_after_prune(self):
        # removing half the vertices of max degree caps the survivor degree by |E|/kept
        g = random_graph(20, 0.5, seed=8)
        pruned, _, _ = prune_to_size(g, 10)
        assert max_degree(pruned) <= g.m / 10


class TestVerifyClassP:
    def test_generated_graph_verifies_exhaustively(self):
        params = toy_params()
        g, _, _ = generate_class_p(params, GenerationConfig(p=Fraction(7, 10), seed=11))
        rep = verify_class_p(g, params, mode="exhaustive")
        assert rep.passed and rep.density.mode == "exhaustive"

    def test_edgeless_fails_density(self):
        params = ClassPParams(TOY_QUAD, t=1, n=16)
        rep = verify_class_p(Graph(16), params, mode="exhaustive")
        assert not rep.passed and not rep.density.passed
        assert rep.size_found == rep.size_wanted and rep.short_cycle is None
        assert rep.to_dict()["size"]["ok"] and rep.to_dict()["girth"]["ok"]

    def test_k5_fails_girth_with_t2(self):
        params = ClassPParams(quad(1, 64, "2/5", "4/5"), t=2, n=5)
        rep = verify_class_p(complete_graph(5), params, mode="exhaustive")
        assert rep.short_cycle is not None and not rep.to_dict()["girth"]["ok"]
        assert len(rep.short_cycle) == 3

    def test_wrong_size_detected(self):
        params = toy_params()
        rep = verify_class_p(complete_graph(10), params, mode="exhaustive")
        assert rep.size_found != rep.size_wanted and not rep.to_dict()["size"]["ok"]

    def test_exhaustive_refusal_past_the_digit_limit(self, digit_limit):
        # an = 10,000 and cn = 2,500 on P10000: the family has more digits
        # than the interpreter prints, and the refusal still says so.
        params = ClassPParams(quad(1, 64, "1/4", "4/5"), t=1, n=10_000)
        with pytest.raises(BudgetExceededError, match=r"^at least 10\*\*4300 pairs exceed the exhaustive budget 200000$"):
            verify_class_p(path_graph(10_000), params, mode="exhaustive")

    def test_degree_violation_detected(self):
        params = ClassPParams(quad(1, 2, "1/2", "4/5"), t=1, n=16)
        rep = verify_class_p(complete_graph(16), params, mode="exhaustive")
        assert not rep.degree_ok

    def test_sampled_never_passes_what_exhaustive_fails(self):
        params = toy_params()
        rng = random.Random(0)
        for trial in range(100):
            base, _, _ = generate_class_p(
                params, GenerationConfig(p=Fraction(7, 10), seed=trial)
            )
            if trial % 2 == 0:
                g = base
            else:
                # corrupted: strip the graph down to a thin star, every pair breaks
                g = Graph(base.n, [(0, v) for v in range(1, 4)])
            exhaustive = verify_class_p(g, params, mode="exhaustive").passed
            sampled = verify_class_p(
                g, params, mode="sampled", sample_count=250, seed=rng.randrange(2 ** 30)
            ).passed
            if sampled:
                assert exhaustive, f"sampled passed but exhaustive failed on trial {trial}"
            assert sampled == exhaustive


class TestEdgeBoost:
    def test_complete_graph_holds(self):
        rep = verify_edgeboost(complete_graph(10), 10, 4, 2)
        assert rep.hypothesis_witness is None and (rep.min_cross is None or rep.min_cross >= rep.bound)
        assert rep.bound == Fraction(16, 4)

    def test_c5_two_set_hypothesis_holds(self):
        # every disjoint (2,2) pair of the 5-cycle spans an edge: a 0-edge pair
        # would need two vertices sharing both neighbours in the complement cycle
        from pathramsey.partition import check_expansion

        assert check_expansion(cycle_graph(5), 2) is None
        rep = verify_edgeboost(cycle_graph(5), 5, 4, 2)
        assert rep.hypothesis_witness is None
        assert rep.min_cross is None  # (4,4)-pairs do not fit in 5 vertices

    def test_two_triangles_fail_hypothesis(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        rep = verify_edgeboost(g, 6, 2, 1)
        assert rep.hypothesis_witness is not None and rep.min_cross is None

    def test_toy_expander_meets_bound(self):
        found = 0
        seed = 0
        from pathramsey.partition import check_expansion

        while found < 5:
            g = random_graph(14, 0.9, seed)
            seed += 1
            if check_expansion(g, 2) is None:
                rep = verify_edgeboost(g, 14, 4, 2)
                assert rep.hypothesis_witness is None
                assert rep.min_cross is None or rep.min_cross >= rep.bound
                found += 1

    def test_size_preconditions(self):
        with pytest.raises(ParameterError):
            verify_edgeboost(complete_graph(6), 7, 4, 2)
        with pytest.raises(ParameterError):
            verify_edgeboost(complete_graph(6), 6, 2, 2)
