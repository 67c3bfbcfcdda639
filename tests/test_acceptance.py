"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are pinned here exactly as stated.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from pathramsey import (
    ClassPParams,
    EdgeColouring,
    GenerationConfig,
    arrow_check,
    complete_blowup,
    complete_graph,
    constants_chain,
    cycle_graph,
    embed_base_case,
    generate_class_p,
    kst_bound_check,
    lll_embed,
    make_lll_instance,
    partition_two_coloured,
    path_graph,
    quad,
    random_graph,
    sheared_blowup,
    validate_embedding,
    verify_class_p,
    verify_edgeboost,
    verify_partition,
)
from pathramsey.cli import main as cli_main
from pathramsey.partition import check_expansion

from conftest import random_graph_with_path


def report(num: int, ok: bool, elapsed: float, limit: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} ({elapsed:.2f}s / limit {limit:.0f}s) {detail}")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded its time budget"


def test_criterion_1_blowup_formulas_exact():
    t0 = time.time()
    rng = random.Random(20240)
    bad = 0
    for _ in range(200):
        n = rng.randint(1, 12)
        t = rng.randint(1, 4)
        h = random_graph(n, rng.random(), rng.randrange(2 ** 30))
        full, _ = complete_blowup(h, t)
        shear, _ = sheared_blowup(h, t, seed=rng.randrange(2 ** 30))
        if full.m != h.m * t * t + n * t * (t - 1) // 2:
            bad += 1
        if shear.m != h.m * (t * t - t) + n * t * (t - 1) // 2:
            bad += 1
    report(1, bad == 0, time.time() - t0, 5.0,
           f"200 random blow-ups, {bad} formula mismatches")


def test_criterion_2_base_case_embeddings():
    t0 = time.time()
    successes = 0
    for i in range(100):
        rng = random.Random(7000 + i)
        k = i % 3 + 1
        n = rng.randint(k + 1, 30)
        g, perm = random_graph_with_path(7000 + i, n, extra=n)
        emb = embed_base_case(g, k, perm, matching_seed=i)
        if validate_embedding(emb) is None and emb.pattern.n == n:
            successes += 1
    report(2, successes == 100, time.time() - t0, 30.0,
           f"{successes}/100 greedy power embeddings validated")


def test_criterion_3_arrow_classics():
    t0 = time.time()
    expected = [
        (complete_graph(3), path_graph(3), True),
        (path_graph(4), path_graph(3), False),
        (complete_graph(6), complete_graph(3), True),
        (complete_graph(5), complete_graph(3), False),
    ]
    results = []
    for host, pattern, want in expected:
        verdict = arrow_check(host, pattern, 2, mode="exhaustive")
        ok = verdict.arrows is want
        if want is False:
            ok = ok and verdict.counterexample is not None
        results.append(ok)
    report(3, all(results), time.time() - t0, 60.0,
           "K3->(P3)2 true, P4->(P3)2 false, K6->(K3)2 true, K5->(K3)2 false")


def test_criterion_4_two_colour_cover_sweep():
    t0 = time.time()
    checked = 0
    failures = 0
    for n in range(1, 7):
        host = complete_graph(n)
        m = n * (n - 1) // 2
        for x in range(2 ** m):
            blue = EdgeColouring.from_integer(host, 2, x).colour_subgraph(1)
            res = partition_two_coloured(blue, 1, mode="exhaustive")
            if verify_partition(blue, res, 1) is not None:
                failures += 1
            checked += 1
    report(4, failures == 0, time.time() - t0, 600.0,
           f"{checked} colourings covered and verified (includes all 2^15 at n=6)")


def test_criterion_5_biclique_free_bound_sweep():
    t0 = time.time()
    violations = 0
    free_graphs = 0
    for x in range(1, 6):
        # right-vertex neighbourhoods up to permutation: a sound isomorphism pruning
        for nbhds in combinations_with_replacement(range(1 << x), x):
            edges = [
                (i, j) for j, nb in enumerate(nbhds) for i in range(x) if (nb >> i) & 1
            ]
            holds = kst_bound_check(x, edges, 1)
            if holds is not None:
                free_graphs += 1
                if not holds:
                    violations += 1
    report(5, violations == 0, time.time() - t0, 600.0,
           f"{free_graphs} biclique-free bipartite graphs with x <= 5, {violations} bound violations")


def test_criterion_6_class_verifier_soundness():
    t0 = time.time()
    params = ClassPParams(quad(1, 64, "1/2", "4/5"), t=1, n=16)
    passes = 0
    for seed in range(50):
        g, cert, _ = generate_class_p(params, GenerationConfig(p=Fraction(7, 10), seed=seed))
        rep = verify_class_p(g, params, mode="exhaustive")
        size_ok, girth_ok = rep.size_found == rep.size_wanted, rep.short_cycle is None
        if rep.passed and size_ok and rep.degree_ok and girth_ok and rep.density.mode == "exhaustive":
            passes += 1
    report(6, passes == 50, time.time() - t0, 120.0,
           f"{passes}/50 generated members verified exhaustively at an = 16")


def test_criterion_7_edge_boost_on_expanders():
    t0 = time.time()
    passes = 0
    found = 0
    seed = 0
    while found < 50:
        g = random_graph(14, 0.9, seed)
        seed += 1
        if check_expansion(g, 2) is not None:
            continue
        found += 1
        rep = verify_edgeboost(g, 14, 4, 2)
        if rep.hypothesis_witness is None and rep.min_cross >= rep.bound == 4:
            passes += 1
    report(7, passes == 50, time.time() - t0, 300.0,
           f"{passes}/50 expanders meet the beta^2/(2 mu) * n = 4 edge floor on every pair")


def test_criterion_8_lll_instances():
    t0 = time.time()
    successes = 0
    for seed in range(50):
        rng = random.Random(seed)
        template = cycle_graph(rng.randint(6, 10))
        clique = 6
        host, bmap = complete_blowup(template, clique)
        colours = {e: 2 for e in host.sorted_edges()}
        for (a, b) in template.sorted_edges():
            pairs = [(x, y) for x in bmap.clique_of[a] for y in bmap.clique_of[b]]
            for x, y in rng.sample(pairs, 2):
                colours[(min(x, y), max(x, y))] = 1
        chi = EdgeColouring(host, 2, colours)
        inst = make_lll_instance(template, list(bmap.clique_of), host, chi, 1)
        assert inst.condition_value <= 1
        emb = lll_embed(inst, seed=seed, max_resamples=100 * inst.template.m)
        ok = validate_embedding(emb) is None
        ok = ok and all(
            chi.colour(emb.mapping[u], emb.mapping[v]) != 1 for u, v in template.edges
        )
        if ok:
            successes += 1
    report(8, successes == 50, time.time() - t0, 60.0,
           f"{successes}/50 certified instances embedded with zero blue edges")


def test_criterion_9_constants_chain():
    t0 = time.time()
    chain1 = constants_chain(1, 2, 2, 3, quad(3, 950400, 1, "1/20"), 1)
    ok = chain1.big_r == 2 * 3 and chain1.delta == Fraction(1, 40)
    chain2 = constants_chain(1, 2, 1, 2, quad(2, 2, "1/2", "1/20"), 1)
    ok = ok and chain2.t_prime == 16 and chain2.clique_size == 2 ** 32
    report(9, ok, time.time() - t0, 5.0,
           f"R = {chain1.big_r}, delta = {chain1.delta}, T = {chain2.clique_size}")


STEP_DOC = {
    "pipeline": {
        "k": 1, "s": 2, "r": 1, "t": 2, "n": 4,
        "cliqueSize": 5, "monoTarget": 4,
        "outQuad": {"a": "1", "b": "64", "c": "1/2", "eps": "4/5"},
        "inQuad": {"a": "1", "b": "1000", "c": "1/2", "eps": "4/5"},
        "sparsifyP": "1", "seed": 11,
    },
    "base": {"kind": "path", "n": 6},
    "chi": {"kind": "constant", "colour": 1},
}


def test_criterion_10_step_determinism(tmp_path):
    t0 = time.time()
    cfg = tmp_path / "step.json"
    cfg.write_text(json.dumps(STEP_DOC))
    codes = []
    for name in ("one", "two"):
        codes.append(cli_main([
            "step", "--config", str(cfg), "--out", str(tmp_path / name)
        ]))
    same_outcome = (
        (tmp_path / "one.outcome.json").read_bytes()
        == (tmp_path / "two.outcome.json").read_bytes()
    )
    same_trace = (
        (tmp_path / "one.trace.json").read_bytes()
        == (tmp_path / "two.trace.json").read_bytes()
    )
    ok = codes == [0, 0] and same_outcome and same_trace
    report(10, ok, time.time() - t0, 60.0,
           "two step runs with identical config+seed are byte-identical")
