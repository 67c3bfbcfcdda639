"""End-to-end drivers: the colour-reduction induction step over a sheared
blow-up host and the base-case embedding driver.

Each stage's output is validated once, by the module that builds it, and
the stage appends one trace record through _ok or _fail.  An honest failure
is about the instance (no path, a failed hypothesis) and is an
outcome; a stage whose own construction breaks is a fault and raises.
Identical (config, seed) re-runs produce identical traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .colouring import (
    EdgeColouring,
    blue_path_to_blue_power,
    build_aux_colouring,
    mono_clique_in_clique,
)
from .embedding import (
    Embedding,
    _greedy_window,
    _validated,
    check_template_containment,
    embed_base_case,
    lll_embed,
    make_lll_instance,
)
from .errors import (
    BaseCaseError,
    LLLFailureError,
    NoPathFoundError,
    ParameterError,
    PreconditionError,
)
from .graphs import (
    BlowupMap,
    Graph,
    _seed,
    induced_subgraph,
    path_power,
    power,
    sheared_blowup,
)
from .partition import (
    auxiliary_graph,
    long_path_through_sets,
    partition_two_coloured,
    prune_top,
    segment_path,
    sparsify,
)
from .pseudorandom import (
    ClassPParams,
    GenerationConfig,
    GoodQuadruple,
    generate_class_p,
    is_good,
    verify_class_p,
)


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one induction step at desk scale.

    out_quad is the parameter quadruple the reduced graph must verify against;
    in_quad the one backing the segment-graph check.  clique_size and
    mono_target are the toy stand-ins for the astronomically large blow-up
    clique and monochromatic-clique sizes.  sparsify_p is the keep
    probability of the sparsify stage and must lie in (0, 1].
    """

    k: int
    s: int
    r: int
    t: int
    n: int
    clique_size: int
    mono_target: int
    out_quad: GoodQuadruple
    in_quad: GoodQuadruple
    sparsify_p: Fraction = Fraction(1)
    seed: int = 0

    def __post_init__(self):
        if min(self.k, self.s, self.r, self.t, self.n, self.clique_size, self.mono_target) < 1:
            raise ParameterError("all pipeline sizes must be positive")
        if not 0 < self.sparsify_p <= 1:
            raise ParameterError(f"keep probability {self.sparsify_p} outside (0, 1]")

    @property
    def big_r(self) -> int:
        return self.t * self.r

    @property
    def an(self) -> int:
        return math.floor(self.out_quad.a * self.n)


@dataclass
class StepOutcome:
    """Terminal result of one induction step plus its ordered stage trace."""

    kind: str  # "monoPowerFound" | "reducedColours" | "honestFailure"
    embedding: Embedding | None = None
    reduced_graph: Graph | None = None
    reduced_colours: frozenset[int] | None = None
    template_embedding: Embedding | None = None
    failure_stage: str | None = None
    failure_reason: str | None = None
    trace: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.embedding is not None:
            out["embedding"] = self.embedding.to_dict()
            out["patternVertices"] = self.embedding.pattern.n
        if self.reduced_graph is not None:
            out["reducedGraphVertices"] = self.reduced_graph.n
            out["reducedGraphEdges"] = [list(e) for e in self.reduced_graph.edges]
            out["allowedColours"] = sorted(self.reduced_colours or ())
            out["templateEmbedding"] = (
                self.template_embedding.to_dict() if self.template_embedding else None
            )
        if self.failure_stage is not None:
            out["failureStage"] = self.failure_stage
            out["failureReason"] = self.failure_reason
        return out


def build_step_host(g: Graph, cfg: PipelineConfig) -> tuple[Graph, BlowupMap]:
    """The sheared blow-up of g^(t*r) with clique_size-cliques the step colours."""
    return sheared_blowup(power(g, cfg.big_r), cfg.clique_size, seed=cfg.seed)


def _ok(trace: list[dict], stage: str, detail) -> None:
    trace.append({"stage": stage, "status": "ok", "detail": detail})


def _fail(trace: list[dict], stage: str, reason: str, detail=None) -> StepOutcome:
    """Record the stage as failed, with detail or else the reason, and end the step honestly."""
    trace.append({"stage": stage, "status": "failed", "detail": reason if detail is None else detail})
    return StepOutcome("honestFailure", failure_stage=stage, failure_reason=reason, trace=trace)


def induction_step(
    g: Graph,
    host: Graph,
    blowup: BlowupMap,
    chi: EdgeColouring,
    cfg: PipelineConfig,
) -> StepOutcome:
    """Run the colour-reduction step on an s-coloured sheared blow-up host.

    Outcomes: a monochromatic path-power embedding, a reduced graph whose
    blow-up template embeds without the dominant colour, or an honest failure
    naming the stage (expected at toy scale when the large-n hypotheses fail).
    A stage whose own construction breaks raises ConstructionError instead.
    """
    trace: list[dict] = []
    if chi.host != host:
        raise ParameterError("colouring does not belong to the given host")
    if blowup.base != power(g, cfg.big_r):
        raise ParameterError("blow-up base is not g^(t*r); host not built for this config")
    _ok(trace, "inputs", {"baseVertices": g.n, "hostVertices": host.n, "hostEdges": host.m,
                          "colours": chi.s, "cliqueSize": blowup.t})

    # Single colour: everything is monochromatic, embed directly.
    if chi.s == 1:
        try:
            path = long_path_through_sets(g, [list(range(g.n))], cfg.n)
        except NoPathFoundError as exc:
            return _fail(trace, "bypass-path", str(exc))
        mapping = _greedy_window(host, blowup, path, cfg.k)
        if len(mapping) < len(path):  # k can exceed t*r: a clique may offer no candidate
            return _fail(trace, "bypass-embed", f"greedy embedding stuck at path position {len(mapping)}")
        emb = _validated(Embedding(path_power(len(path), cfg.k), host, mapping, (chi, frozenset({1}))), "bypass")
        _ok(trace, "bypass", {"pathLength": len(path)})
        return StepOutcome("monoPowerFound", embedding=emb, trace=trace)

    # Monochromatic cliques inside each blow-up clique.
    found: dict[int, tuple[int, tuple[int, ...]]] = {}
    for v in range(g.n):
        hit = mono_clique_in_clique(chi, blowup.clique_of[v], cfg.mono_target)
        if hit is not None:
            found[v] = hit
    by_colour: dict[int, list[int]] = {}
    for v, (c, _) in sorted(found.items()):
        by_colour.setdefault(c, []).append(v)
    if not by_colour:
        return _fail(trace, "mono-cliques", "no blow-up clique yields a monochromatic clique")
    blue = max(by_colour, key=lambda c: (len(by_colour[c]), -c))
    w_set = sorted(by_colour[blue])
    _ok(trace, "mono-cliques", {
        "found": len(found), "colourCounts": {str(c): len(vs) for c, vs in sorted(by_colour.items())},
        "chosenColour": blue, "W": len(w_set), "fractionInequalityHolds": len(w_set) * cfg.s >= g.n,
    })

    # Derived graph on W and its blue/grey colouring; each subclique is blue by construction.
    g_w, ids = induced_subgraph(g, w_set)
    j = power(g_w, cfg.big_r)
    aux = build_aux_colouring(j, [found[v][1] for v in ids], chi, cfg.k, blue)
    _ok(trace, "aux-colouring", {"jVertices": j.n, "jEdges": j.m, "blueEdges": aux.blue.m})

    # Cover the blue/grey complete graph over W by t - 1 blue paths and t classes.
    part = partition_two_coloured(aux.blue, cfg.t - 1, seed=cfg.seed)
    _ok(trace, "partition", {"bluePaths": [len(p) for p in part.blue_paths],
                             "classSizes": [len(c) for c in part.red_classes]})

    # A blue path of n derived vertices promotes straight to a blue power.
    long_blue = next((p for p in part.blue_paths if len(p) >= cfg.n), None)
    if cfg.t == 1:  # the cover has no path: probe for one directly
        try:
            long_blue = long_path_through_sets(aux.blue, [list(range(j.n))], cfg.n)
        except NoPathFoundError:
            pass
    if long_blue is not None:
        try:
            emb = blue_path_to_blue_power(long_blue[: cfg.n], aux)
        except PreconditionError as exc:  # n = 1 with subcliques below 2k vertices
            return _fail(trace, "blue-power", str(exc))
        _ok(trace, "blue-power", {"pathLength": cfg.n, "patternVertices": emb.pattern.n})
        return StepOutcome("monoPowerFound", embedding=emb, trace=trace)
    _ok(trace, "blue-path", {"longest": max((len(p) for p in part.blue_paths), default=0),
                             "needed": cfg.n})

    # Classes must be large enough to thread the segment path through.
    an = cfg.an
    seg_count = 2 * an
    needed_len = seg_count * cfg.t
    sizes = [len(c) for c in part.red_classes]
    if min(sizes) < seg_count:
        return _fail(trace, "class-size", f"class sizes {sizes} below the per-class floor {seg_count}")
    _ok(trace, "class-size", {"classSizes": sizes, "floor": seg_count})

    # Long path through the classes inside G[W], on the class vertices only.
    g_c, ids_c = induced_subgraph(g_w, sorted(v for c in part.red_classes for v in c))
    to_c = {v: i for i, v in enumerate(ids_c)}
    try:
        path = long_path_through_sets(g_c, [[to_c[v] for v in c] for c in part.red_classes],
                                      needed_len, gamma=Fraction(1, 2 * cfg.t))
    except PreconditionError as exc:
        return _fail(trace, "long-path-expansion", str(exc))
    except NoPathFoundError as exc:
        return _fail(trace, "long-path", f"needed {needed_len}, achieved {len(exc.longest)}")
    _ok(trace, "long-path", {"length": needed_len})

    # Segments and the segment-adjacency graph.
    segments = segment_path([ids_c[v] for v in path], cfg.t)
    h_prime = auxiliary_graph(g_w, segments)
    _ok(trace, "segments", {"count": len(segments), "segmentSize": cfg.t,
                            "segmentGraphEdges": h_prime.m})
    try:
        params_mid = ClassPParams(
            GoodQuadruple(
                2 * cfg.out_quad.a, cfg.t * cfg.in_quad.b,
                cfg.in_quad.c, cfg.in_quad.eps,
            ),
            cfg.t, cfg.n,
        )
    except ParameterError as exc:
        return _fail(trace, "segment-graph-params", str(exc))
    rep_mid = verify_class_p(h_prime, params_mid, mode="auto", seed=cfg.seed)
    if not rep_mid.passed:
        return _fail(trace, "segment-graph-class", "segment graph fails class membership", rep_mid.to_dict())
    _ok(trace, "segment-graph-class", rep_mid.to_dict())

    # Sparsify then peel high-degree vertices down to an survivors.
    h_second = sparsify(h_prime, cfg.sparsify_p, _seed(cfg.seed, 11))
    h_final, kept = prune_top(h_second, h_second.n - an)
    _ok(trace, "sparsify-prune", {"keptEdges": h_second.m, "keptVertices": len(kept)})
    try:
        params_out = ClassPParams(cfg.out_quad, cfg.t, cfg.n)
    except ParameterError as exc:
        return _fail(trace, "pruned-params", str(exc))
    rep_out = verify_class_p(h_final, params_out, mode="auto", seed=cfg.seed)
    if not rep_out.passed:
        return _fail(trace, "pruned-class", "reduced graph fails class membership", rep_out.to_dict())
    _ok(trace, "pruned-class", rep_out.to_dict())

    # Grey template containment inside the derived graph.
    kept_segments = [segments[i] for i in kept]
    try:
        template, distance_ok = check_template_containment(h_final, cfg.r, cfg.t, kept_segments, j, aux.blue, g_w)
    except PreconditionError as exc:
        return _fail(trace, "template", str(exc))
    _ok(trace, "template", {"templateVertices": template.n, "templateEdges": template.m,
                            "distanceOk": distance_ok})

    # Resample-until-clean embedding of the template into the host.
    cliques = [aux.subcliques[jv] for seg in kept_segments for jv in seg]
    instance = make_lll_instance(template, cliques, host, chi, blue)
    budget = 100 * max(1, template.m)
    _ok(trace, "lll-instance", instance.to_dict())
    try:
        emb = lll_embed(instance, _seed(cfg.seed, 13), budget)
    except LLLFailureError as exc:
        return _fail(trace, "lll-embed", f"{exc} ({exc.stats})")
    allowed = frozenset(c for c in range(1, cfg.s + 1) if c != blue)
    _ok(trace, "lll-embed", {"allowedColours": sorted(allowed)})
    return StepOutcome(
        "reducedColours", reduced_graph=h_final, reduced_colours=allowed,
        template_embedding=emb, trace=trace,
    )


# -- base case ------------------------------------------------------------------


def base_case_driver(
    k: int,
    params: ClassPParams,
    gen: GenerationConfig,
    n_target: int | None = None,
    matching_seed: int | None = None,
    base_graph: Graph | None = None,
) -> Embedding:
    """Split a long path off a class member and greedily embed its power.

    Requires a good quadruple.  The member is generated from params/gen unless
    base_graph supplies one directly (desk-scale generation under a good
    quadruple prunes down to near-empty graphs, so callers with a concrete
    member in hand pass it here).  Honest failure (BaseCaseError) reports the
    achieved path length when the cover's longest path falls short.
    """
    failing = is_good(params.quad)
    if failing:
        raise ParameterError(f"quadruple is not good: {', '.join(failing)}")
    target = params.n if n_target is None else n_target
    if target < 1:  # a slice bound: -1 would keep all but one vertex
        raise ParameterError("n_target must be >= 1")
    if base_graph is not None:
        g = base_graph
    else:
        g, _cert, _log = generate_class_p(params, gen)
    cover = partition_two_coloured(g, ell=1, seed=gen.seed)
    longest = max(cover.blue_paths, key=len, default=())
    if len(longest) < target:
        raise BaseCaseError(
            f"longest path has {len(longest)} vertices, need {target}",
            achieved=len(longest),
        )
    return embed_base_case(g, k, longest[:target], matching_seed=matching_seed)
