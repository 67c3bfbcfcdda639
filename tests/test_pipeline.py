"""End-to-end induction step, base-case driver, and pipeline config."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest

from pathramsey import (
    BaseCaseError,
    ClassPParams,
    ConstructionError,
    EdgeColouring,
    GenerationConfig,
    Graph,
    LLLFailureError,
    ParameterError,
    PartitionResult,
    PipelineConfig,
    PreconditionError,
    base_case_driver,
    build_step_host,
    cycle_graph,
    generate_class_p,
    induction_step,
    path_graph,
    quad,
    validate_embedding,
    verify_class_p,
)
from pathramsey import embedding, partition, pipeline
from pathramsey.serialize import dump_report


def toy_cfg(**overrides) -> PipelineConfig:
    base = dict(
        k=1, s=2, r=1, t=2, n=4, clique_size=5, mono_target=4,
        out_quad=quad(1, 64, "1/2", "4/5"),
        in_quad=quad(1, 1000, "1/2", "4/5"),
        seed=11,
    )
    base.update(overrides)
    return PipelineConfig(**base)


def clique_cross_colouring(host: Graph, clique_size: int) -> EdgeColouring:
    """Blow-up cliques in colour 1, all cross edges in colour 2."""
    return EdgeColouring(
        host, 2,
        {e: (1 if e[0] // clique_size == e[1] // clique_size else 2) for e in host.edges},
    )


class TestInductionStep:
    def test_monochromatic_colouring_promotes_blue_power(self):
        cfg = toy_cfg()
        g = path_graph(6)
        host, bmap = build_step_host(g, cfg)
        assert host.n == 30
        chi = EdgeColouring.constant(host, 2, 1)
        out = induction_step(g, host, bmap, chi, cfg)
        assert out.kind == "monoPowerFound"
        emb = out.embedding
        assert emb.pattern.n == 2 * cfg.k * cfg.n
        assert validate_embedding(emb) is None
        col, allowed = emb.colour_constraint
        assert allowed == frozenset({1})
        stages = [t["stage"] for t in out.trace]
        assert stages == ["inputs", "mono-cliques", "aux-colouring", "partition", "blue-power"]

    def test_single_colour_bypasses_to_greedy_embedding(self):
        cfg = toy_cfg(s=1, n=5, clique_size=3)
        g = path_graph(8)
        host, bmap = build_step_host(g, cfg)
        chi = EdgeColouring.constant(host, 1, 1)
        out = induction_step(g, host, bmap, chi, cfg)
        assert out.kind == "monoPowerFound"
        assert out.embedding.pattern.n == 5
        assert validate_embedding(out.embedding) is None

    def test_single_colour_bypass_reports_stuck_greedy_position(self):
        # the host blows up g^(t*r) = g itself, so path vertices two apart
        # share no host edge and the k = 3 window is stuck at position 2
        cfg = toy_cfg(s=1, k=3, t=1, r=1, n=6, clique_size=4)
        g = path_graph(6)
        host, bmap = build_step_host(g, cfg)
        chi = EdgeColouring.constant(host, 1, 1)
        out = induction_step(g, host, bmap, chi, cfg)
        assert out.kind == "honestFailure"
        assert out.failure_stage == "bypass-embed"
        assert out.failure_reason == "greedy embedding stuck at path position 2"

    def test_single_colour_bypass_reports_missing_path(self):
        # P3 has no path on n = 4 vertices
        out = induction_step(*mono_step(path_graph(3), s=1, n=4))
        assert (out.kind, out.failure_stage, out.failure_reason) == (
            "honestFailure", "bypass-path", "no constrained path of length 4 found (longest 3)")
        assert [t["stage"] for t in out.trace] == ["inputs", "bypass-path"]

    def test_cliques_without_a_monochromatic_triangle_fail_honestly(self):
        # each blow-up clique is a colour-1 pentagon and a colour-2 pentagram,
        # and K5 so coloured has no monochromatic triangle
        cfg = toy_cfg(clique_size=5, mono_target=3)
        g = cycle_graph(6)
        host, bmap = build_step_host(g, cfg)
        colours = {e: 1 for e in host.edges}
        for clique in bmap.clique_of:
            for a, b in combinations(range(5), 2):
                colours[clique[a], clique[b]] = 1 if b - a in (1, 4) else 2
        out = induction_step(g, host, bmap, EdgeColouring(host, 2, colours), cfg)
        assert (out.kind, out.failure_stage, out.failure_reason) == (
            "honestFailure", "mono-cliques", "no blow-up clique yields a monochromatic clique")
        assert [t["stage"] for t in out.trace] == ["inputs", "mono-cliques"]

    def test_adversarial_grey_colouring_fails_honestly_with_trace(self):
        cfg = toy_cfg(n=3)
        g = cycle_graph(12)
        host, bmap = build_step_host(g, cfg)
        chi = clique_cross_colouring(host, cfg.clique_size)
        out = induction_step(g, host, bmap, chi, cfg)
        assert out.kind == "honestFailure"
        assert out.failure_stage in {
            "class-size", "long-path", "long-path-expansion",
            "segment-graph-class", "segment-graph-params", "pruned-class",
            "template", "lll-embed",
        }
        assert out.failure_reason
        statuses = [t["status"] for t in out.trace]
        assert statuses[-1] == "failed"
        assert all(s == "ok" for s in statuses[:-1])

    def test_grey_route_reaches_reduced_colours(self):
        params = ClassPParams(quad(1, 64, "1/2", "4/5"), t=1, n=16)
        g, cert, _ = generate_class_p(params, GenerationConfig(p=Fraction(7, 10), seed=7))
        assert cert.passed
        cfg = toy_cfg(
            t=1, n=3, out_quad=quad(1, 64, "2/3", "4/5"),
            in_quad=quad(1, 2000, "2/3", "4/5"), seed=0,
        )
        host, bmap = build_step_host(g, cfg)
        chi = clique_cross_colouring(host, cfg.clique_size)
        out = induction_step(g, host, bmap, chi, cfg)
        assert out.kind == "reducedColours"
        assert out.reduced_colours == frozenset({2})
        emb = out.template_embedding
        assert validate_embedding(emb) is None
        col, allowed = emb.colour_constraint
        assert 1 not in allowed
        used = {
            col.colour(emb.mapping[u], emb.mapping[v]) for u, v in emb.pattern.edges
        }
        assert len(used) <= cfg.s - 1 and 1 not in used
        # the reduced graph re-verifies under the output parameters
        rep = verify_class_p(out.reduced_graph, ClassPParams(cfg.out_quad, cfg.t, cfg.n))
        assert rep.passed
        stages = [t["stage"] for t in out.trace]
        assert stages.index("segments") < stages.index("template") < stages.index("lll-embed")

    def test_blue_path_promotion_without_cover_stage(self):
        # t = 1 skips the cover; a monochromatic colouring still promotes a
        # blue path found by the direct probe
        cfg = toy_cfg(t=1, n=4, out_quad=quad(1, 64, "2/3", "4/5"),
                      in_quad=quad(1, 1000, "2/3", "4/5"))
        g = path_graph(8)
        host, bmap = build_step_host(g, cfg)
        chi = EdgeColouring.constant(host, 2, 1)
        out = induction_step(g, host, bmap, chi, cfg)
        assert out.kind == "monoPowerFound"
        assert out.embedding.pattern.n == 2 * cfg.k * cfg.n
        assert validate_embedding(out.embedding) is None

    def test_blue_path_probe_propagates_broken_invariants(self, monkeypatch):
        # only "no path" is an honest negative; a construction error is a bug.
        # Later long-path stages run the real search, so the error must come
        # from the blue-path probe itself.
        real = pipeline.long_path_through_sets
        calls = []

        def broken_once(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise ConstructionError("broken invariant")
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "long_path_through_sets", broken_once)
        cfg = toy_cfg(t=1, n=4, out_quad=quad(1, 64, "2/3", "4/5"),
                      in_quad=quad(1, 1000, "2/3", "4/5"))
        g = path_graph(8)
        host, bmap = build_step_host(g, cfg)
        chi = EdgeColouring.constant(host, 2, 1)
        with pytest.raises(ConstructionError, match="broken invariant"):
            induction_step(g, host, bmap, chi, cfg)
        assert len(calls) == 1

    def test_unworkable_mid_parameters_fail_at_named_stage(self):
        params = ClassPParams(quad(1, 64, "1/2", "4/5"), t=1, n=16)
        g, _, _ = generate_class_p(params, GenerationConfig(p=Fraction(7, 10), seed=7))
        cfg = toy_cfg(
            t=1, n=3, out_quad=quad(1, 64, "2/3", "4/5"),
            in_quad=quad(1, 2000, "1/3", "4/5"), seed=0,  # floor(C*n) = 1 < 2
        )
        host, bmap = build_step_host(g, cfg)
        chi = clique_cross_colouring(host, cfg.clique_size)
        out = induction_step(g, host, bmap, chi, cfg)
        assert out.kind == "honestFailure"
        assert out.failure_stage == "segment-graph-params"

    def test_unworkable_output_parameters_fail_after_pruning(self):
        # The bench's grey member 3 with c = 1/2 in the output quadruple: the
        # step gets through sparsify-prune, then floor(c * n) = 1 leaves no
        # class to verify the pruned graph against.
        params = ClassPParams(quad(1, 64, "1/2", "4/5"), t=1, n=16)
        g, _, _ = generate_class_p(params, GenerationConfig(p=Fraction(7, 10), seed=3))
        cfg = toy_cfg(
            t=1, n=3, out_quad=quad(1, 64, "1/2", "4/5"),
            in_quad=quad(1, 2000, "2/3", "4/5"), seed=0,
        )
        host, bmap = build_step_host(g, cfg)
        chi = clique_cross_colouring(host, cfg.clique_size)
        out = induction_step(g, host, bmap, chi, cfg)
        assert (out.kind, out.failure_stage, out.failure_reason) == (
            "honestFailure", "pruned-params", "floor(c*n) = 1 < 2; pick larger n or c")
        assert [t["stage"] for t in out.trace][-2:] == ["sparsify-prune", "pruned-params"]

    def test_wrong_host_rejected(self):
        cfg = toy_cfg()
        g = path_graph(6)
        host, bmap = build_step_host(g, cfg)
        chi = EdgeColouring.constant(host, 2, 1)
        with pytest.raises(ParameterError):
            induction_step(path_graph(7), host, bmap, chi, cfg)

    def test_deterministic_outcome_and_trace(self):
        cfg = toy_cfg(n=3)
        g = cycle_graph(12)
        host, bmap = build_step_host(g, cfg)
        chi = clique_cross_colouring(host, cfg.clique_size)
        a = induction_step(g, host, bmap, chi, cfg)
        b = induction_step(g, host, bmap, chi, cfg)
        assert dump_report(a.to_dict()) == dump_report(b.to_dict())
        assert dump_report({"trace": a.trace}) == dump_report({"trace": b.trace})

    def test_every_stage_payload_revalidated(self):
        # the mono outcome's embedding re-validates against an independent scan
        cfg = toy_cfg()
        g = path_graph(6)
        host, bmap = build_step_host(g, cfg)
        chi = EdgeColouring.constant(host, 2, 1)
        out = induction_step(g, host, bmap, chi, cfg)
        emb = out.embedding
        for u, v in emb.pattern.edges:
            hu, hv = emb.mapping[u], emb.mapping[v]
            assert host.has_edge(hu, hv) and chi.colour(hu, hv) == 1


def _raising(error: type[Exception]):
    def broken(*args, **kwargs):
        raise error("broken invariant")

    return broken


def mono_step(g: Graph, **overrides):
    """induction_step's arguments for g with every host edge in colour 1."""
    cfg = toy_cfg(**overrides)
    host, bmap = build_step_host(g, cfg)
    return g, host, bmap, EdgeColouring.constant(host, cfg.s, 1), cfg


class TestStepFaultsRaise:
    """A fault of the step's own construction raises; only facts about the instance end honestly."""

    # Each subclique is a monochromatic clique in the chosen colour, so even a
    # precondition error from the aux colouring is a fault of the step.
    @pytest.mark.parametrize("name,error", [
        ("build_aux_colouring", ConstructionError),
        ("build_aux_colouring", PreconditionError),
        ("blue_path_to_blue_power", ConstructionError),
    ])
    def test_broken_construction_raises(self, monkeypatch, name, error):
        monkeypatch.setattr(pipeline, name, _raising(error))
        with pytest.raises(error, match="broken invariant"):
            induction_step(*mono_step(path_graph(6)))

    def test_bypass_embedding_failing_validation_raises(self, monkeypatch):
        monkeypatch.setattr(embedding, "validate_embedding", lambda emb: "pattern edge (0,1) unmapped")
        with pytest.raises(ConstructionError, match=r"pattern edge \(0,1\) unmapped"):
            induction_step(*mono_step(path_graph(8), s=1, n=5, clique_size=3))

    def test_bypass_greedy_window_fault_raises(self, monkeypatch):
        # a stuck window returns a short tuple, so an exception from it is a fault
        monkeypatch.setattr(pipeline, "_greedy_window", _raising(ConstructionError))
        with pytest.raises(ConstructionError, match="broken invariant"):
            induction_step(*mono_step(path_graph(8), s=1, n=5, clique_size=3))

    def test_invalid_cover_raises(self, monkeypatch):
        # W has all 13 vertices, above the exhaustive cap, so the cover search is heuristic
        monkeypatch.setattr(partition, "_partition_heuristic",
                            lambda blue, ell, seed: PartitionResult((), ((0,),)))
        with pytest.raises(ConstructionError, match="invalid cover: cover misses or exceeds the vertex set"):
            induction_step(*mono_step(path_graph(13)))

    def test_subclique_below_2k_for_a_one_vertex_path_fails_honestly(self):
        # n = 1 with monochromatic cliques of one vertex: the probe finds a
        # one-vertex blue path, and its subclique cannot hold the 2k = 2 vertices
        out = induction_step(*mono_step(path_graph(6), t=1, n=1, mono_target=1))
        assert (out.kind, out.failure_stage, out.failure_reason) == (
            "honestFailure", "blue-power", "subclique smaller than 2k")
        assert out.trace[-1] == {"stage": "blue-power", "status": "failed", "detail": "subclique smaller than 2k"}


def grey_step():
    """induction_step's arguments for a class-P member whose grey route ends in reducedColours."""
    params = ClassPParams(quad(1, 64, "1/2", "4/5"), t=1, n=16)
    g, _, _ = generate_class_p(params, GenerationConfig(p=Fraction(7, 10), seed=7))
    cfg = toy_cfg(t=1, n=3, out_quad=quad(1, 64, "2/3", "4/5"), in_quad=quad(1, 2000, "2/3", "4/5"), seed=0)
    host, bmap = build_step_host(g, cfg)
    return g, host, bmap, clique_cross_colouring(host, cfg.clique_size), cfg


class TestLateStagesFailHonestly:
    """The grey route's last stages end honestly on a fact about the instance.

    No small seeded instance fails there by itself, so each test injects what
    the stage's callee would report.
    """

    def _assert_failed(self, out, stage: str, reason: str):
        assert (out.kind, out.failure_stage, out.failure_reason) == ("honestFailure", stage, reason)
        assert out.trace[-1]["stage"] == stage and out.trace[-1]["status"] == "failed"
        assert all(t["status"] == "ok" for t in out.trace[:-1])

    def test_pruned_class(self, monkeypatch):
        # pruning that keeps one survivor too few fails the size condition
        real = pipeline.prune_top

        def one_short(h, size):
            h_final, kept = real(h, size)
            last = h_final.n - 1
            return Graph(last, [e for e in h_final.edges if last not in e]), kept[:-1]

        monkeypatch.setattr(pipeline, "prune_top", one_short)
        out = induction_step(*grey_step())
        self._assert_failed(out, "pruned-class", "reduced graph fails class membership")
        assert out.trace[-1]["detail"]["size"] == {"ok": False, "found": 2, "wanted": 3}

    def test_template(self, monkeypatch):
        def outside_j(*args):
            raise PreconditionError("containment fails at ((0, 1), (2, 5))")

        monkeypatch.setattr(pipeline, "check_template_containment", outside_j)
        out = induction_step(*grey_step())
        self._assert_failed(out, "template", "containment fails at ((0, 1), (2, 5))")

    def test_lll_embed(self, monkeypatch):
        stats = {"resamples": 100, "violations": {"0,1": 100}, "conditionValue": Fraction(1, 2)}

        def exhausted(*args):
            raise LLLFailureError("resample budget 100 exhausted", stats=stats)

        monkeypatch.setattr(pipeline, "lll_embed", exhausted)
        out = induction_step(*grey_step())
        self._assert_failed(out, "lll-embed", f"resample budget 100 exhausted ({stats})")


GOOD = quad(2, 1_700_000, "1/2", "1/20")


class TestBaseCaseDriver:
    def test_rejects_non_good_quadruple(self):
        bad = ClassPParams(quad(1, 10 ** 9, 1, "1/20"), t=2, n=4)
        with pytest.raises(ParameterError):
            base_case_driver(1, bad, GenerationConfig(p=Fraction(1), seed=0))

    def test_k1_with_supplied_member(self):
        params = ClassPParams(GOOD, t=2, n=12)
        emb = base_case_driver(
            1, params, GenerationConfig(p=Fraction(1), seed=0),
            base_graph=cycle_graph(24),
        )
        assert emb.pattern.n == 12
        assert validate_embedding(emb) is None

    def test_k2_with_supplied_member(self):
        params = ClassPParams(GOOD, t=3, n=8)
        emb = base_case_driver(
            2, params, GenerationConfig(p=Fraction(1), seed=0),
            base_graph=cycle_graph(16),
        )
        assert emb.pattern.n == 8
        assert emb.pattern.m == 8 * 2 - 3  # the squared path's edge count
        assert validate_embedding(emb) is None

    def test_generation_route_fails_honestly_at_desk_scale(self):
        params = ClassPParams(GOOD, t=2, n=6)
        with pytest.raises(BaseCaseError) as exc:
            base_case_driver(1, params, GenerationConfig(p=Fraction(1), seed=0))
        assert exc.value.achieved < 6

    @pytest.mark.parametrize("n_target", [-5, -1, 0])
    def test_n_target_below_one_is_refused(self, n_target):
        # A slice bound: -1 used to embed the cover's longest path less its last vertex.
        params = ClassPParams(GOOD, t=2, n=12)
        with pytest.raises(ParameterError, match="n_target must be >= 1"):
            base_case_driver(1, params, GenerationConfig(p=Fraction(1), seed=0),
                             base_graph=cycle_graph(24), n_target=n_target)

    def test_path_shortfall_reported(self):
        params = ClassPParams(GOOD, t=2, n=12)
        with pytest.raises(BaseCaseError) as exc:
            base_case_driver(
                1, params, GenerationConfig(p=Fraction(1), seed=0),
                base_graph=Graph(24, [(i, i + 1) for i in range(5)]),
                n_target=12,
            )
        assert 0 < exc.value.achieved < 12


class TestPipelineConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            toy_cfg(n=0)
        for p in (0, -1, Fraction(11, 10), 5):
            with pytest.raises(ParameterError, match=r"keep probability .* outside \(0, 1\]"):
                toy_cfg(sparsify_p=Fraction(p))
        toy_cfg(sparsify_p=Fraction(1, 10 ** 6))
