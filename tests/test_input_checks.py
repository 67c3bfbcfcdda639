"""Every public input check that no other test reaches: each bad input is
refused with its documented error type and message, and
validate_embedding returns its problem instead of raising."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest

from pathramsey import (
    ClassPParams,
    EdgeColouring,
    Embedding,
    Graph,
    GraphFormatError,
    ParameterError,
    PipelineConfig,
    arrow_check,
    auxiliary_graph,
    blue_path_to_blue_power,
    build_aux_colouring,
    build_step_host,
    check_template_containment,
    complete_graph,
    constants_chain,
    cycle_graph,
    distances,
    embed_base_case,
    fit_density_certificate,
    graph_from_text,
    induction_step,
    kst_bound_check,
    lll_embed,
    long_path_through_sets,
    make_lll_instance,
    partition_two_coloured,
    path_graph,
    path_power,
    power,
    prune_top,
    quad,
    random_graph,
    segment_path,
    sheared_blowup,
    validate_embedding,
)

QUAD = quad(1, 64, "1/2", "4/5")


def _aux():
    j = path_graph(2)
    host, bmap = sheared_blowup(j, 5)
    return build_aux_colouring(j, [clique[:4] for clique in bmap.clique_of], EdgeColouring.constant(host, 2, 1), 1, 1)


def _step_on_another_hosts_colouring():
    g = path_graph(3)
    cfg = PipelineConfig(k=1, s=2, r=1, t=1, n=2, clique_size=2, mono_target=2, out_quad=QUAD, in_quad=QUAD)
    host, bmap = build_step_host(g, cfg)
    return induction_step(g, host, bmap, EdgeColouring.constant(complete_graph(3), 2, 1), cfg)


P3 = path_graph(3)

CASES = [
    # colouring
    ("colouring-no-colour", lambda: EdgeColouring(P3, 0, {}), ParameterError, "colour count must be >= 1"),
    ("to-string-37-colours", lambda: EdgeColouring.constant(P3, 37, 1).to_string(), ParameterError,
     "digit serialisation supports at most 36 colours"),
    ("from-string-malformed", lambda: EdgeColouring.from_string(P3, "s=2"), ParameterError,
     "malformed colouring string 's=2'"),
    ("from-string-length", lambda: EdgeColouring.from_string(P3, "s=2;m=2;0"), ParameterError,
     "colouring string length 1 != host edge count 2"),
    ("from-string-digit", lambda: EdgeColouring.from_string(P3, "s=2;m=2;0!"), ParameterError,
     "bad colour digit '!'"),
    ("kst-x-zero", lambda: kst_bound_check(0, [], 1), ParameterError, "need x >= 1 and k >= 1"),
    ("kst-k-zero", lambda: kst_bound_check(2, [], 0), ParameterError, "need x >= 1 and k >= 1"),
    ("kst-edge-outside", lambda: kst_bound_check(2, [(0, 2)], 1), ParameterError,
     "edge (0,2) outside the x-by-x grid"),
    ("blue-power-empty-path", lambda: blue_path_to_blue_power([], _aux()), ParameterError, "empty path"),
    ("arrow-no-colour", lambda: arrow_check(P3, path_graph(2), 0), ParameterError, "colour count must be >= 1"),
    ("arrow-mode", lambda: arrow_check(P3, path_graph(2), 2, mode="greedy"), ParameterError,
     "mode must be 'exhaustive' or 'randomized'"),
    # embedding
    ("validate-host-vertex", lambda: validate_embedding(Embedding(path_graph(2), P3, (0, 3))), None,
     "host vertex 3 out of range"),
    ("constants-k-zero", lambda: constants_chain(0, 2, 1, 2, QUAD, 1), ParameterError,
     "k, s, r, t must be positive integers"),
    ("embed-base-k-zero", lambda: embed_base_case(P3, 0, [0, 1, 2]), ParameterError, "k must be >= 1"),
    ("template-segment-size", lambda: check_template_containment(path_graph(2), 1, 2, [(0, 1), (2,)], P3, P3, P3),
     ParameterError, "every segment must have exactly t vertices"),
    ("lll-clique-count", lambda: make_lll_instance(path_graph(2), [(0,)], P3), ParameterError,
     "one candidate clique per template vertex required"),
    ("lll-no-resample", lambda: lll_embed(make_lll_instance(path_graph(2), [(0,), (1,)], P3), 0, 0),
     ParameterError, "max_resamples must be >= 1"),
    # graphs
    ("graph-negative-order", lambda: Graph(-1), ParameterError, "vertex count must be non-negative"),
    ("path-negative-order", lambda: path_graph(-1), ParameterError, "vertex count must be non-negative"),
    ("cycle-two-vertices", lambda: cycle_graph(2), ParameterError, "cycle needs at least 3 vertices"),
    ("random-probability", lambda: random_graph(3, 1.5, 0), ParameterError, "edge probability must lie in [0,1]"),
    ("distances-source", lambda: distances(P3, 3), ParameterError, "source out of range"),
    ("power-zero", lambda: power(P3, 0), ParameterError, "power exponent must be >= 1"),
    ("path-power-zero", lambda: path_power(0, 1), ParameterError, "need n >= 1 and k >= 1"),
    ("text-header", lambda: graph_from_text("2 x\n"), GraphFormatError, "header values must be integers"),
    ("text-vertex", lambda: graph_from_text("2 1\n0 x\n"), GraphFormatError, "line 2: vertices must be integers"),
    ("text-duplicate-edge", lambda: graph_from_text("2 2\n0 1\n0 1\n"), GraphFormatError, "duplicate edge in file"),
    # partition
    ("cover-negative-ell", lambda: partition_two_coloured(P3, -1), ParameterError, "ell must be >= 0"),
    ("cover-mode", lambda: partition_two_coloured(P3, 0, mode="greedy"), ParameterError,
     "mode must be 'auto', 'exhaustive', or 'heuristic'"),
    ("long-path-no-part", lambda: long_path_through_sets(P3, [], 2), ParameterError, "need at least one part"),
    ("long-path-target-zero", lambda: long_path_through_sets(P3, [[0, 1, 2]], 0), ParameterError,
     "target length must be >= 1"),
    ("long-path-part-vertex", lambda: long_path_through_sets(P3, [[0, 3]], 2), ParameterError,
     "part vertex 3 out of range"),
    ("segments-t-zero", lambda: segment_path([0, 1], 0), ParameterError, "segment size must be >= 1"),
    ("segment-graph-vertex", lambda: auxiliary_graph(P3, [(0,), (3,)]), ParameterError,
     "segment vertex 3 out of range"),
    ("prune-count", lambda: prune_top(P3, 4), ParameterError, "remove count out of range"),
    # pipeline
    ("step-other-host", _step_on_another_hosts_colouring, ParameterError,
     "colouring does not belong to the given host"),
    # pseudorandom
    ("class-p-t-zero", lambda: ClassPParams(QUAD, t=0, n=16), ParameterError, "t and n must be positive integers"),
    ("certificate-set-size", lambda: fit_density_certificate(P3, 0, Fraction(1, 2)), ParameterError,
     "set size must be >= 1"),
    ("certificate-tolerance-zero", lambda: fit_density_certificate(P3, 1, Fraction(0)), ParameterError,
     "tolerance must lie in (0,1)"),
    ("certificate-tolerance-one", lambda: fit_density_certificate(P3, 1, Fraction(1)), ParameterError,
     "tolerance must lie in (0,1)"),
]


@pytest.mark.parametrize("call,error,message", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_bad_input_is_refused_with_its_message(call, error, message):
    if error is None:  # a check that returns its problem
        assert call() == message
        return
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
