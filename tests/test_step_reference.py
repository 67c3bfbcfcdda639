"""Differential tests: the step path's colouring and cover kernels against the copies in step_reference."""

from __future__ import annotations

import dataclasses
import random

import pytest

from pathramsey import (
    ConstructionError,
    EdgeColouring,
    Graph,
    NoPathFoundError,
    ParameterError,
    PipelineConfig,
    PreconditionError,
    build_aux_colouring,
    build_step_host,
    check_template_containment,
    complete_graph,
    cycle_graph,
    find_blue_biclique,
    find_subgraph,
    induction_step,
    kst_bound_check,
    long_path_through_sets,
    mono_clique_in_clique,
    path_graph,
    power,
    quad,
    random_graph,
    sheared_blowup,
)
from pathramsey.colouring import _embed_masks, _grow_clique, _prepare_pattern
from pathramsey.graphs import _depth_first, _mask_vertices, validate_path
from pathramsey.partition import _cover_tables, _ham_path_table

from step_reference import (
    frozen_colour_map,
    ref_colour_map,
    ref_embed_masks,
    ref_find_blue_biclique,
    ref_ham_path_table,
    ref_long_path,
    ref_max_clique_at_least,
    ref_mono_clique_in_clique,
    ref_template_containment,
    ref_validate_aux_colouring,
)


def _disjoint_union(parts: list[Graph]) -> Graph:
    edges, offset = [], 0
    for g in parts:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        offset += g.n
    return Graph(offset, edges)


def _table_graphs():
    yield Graph(0)
    yield Graph(1)
    yield Graph(12)
    rng = random.Random(9)
    for n in range(2, 13):
        for p in (0.2, 0.5, 0.9):
            yield random_graph(n, p, seed=rng.randrange(10**6))
    # 2 to 4 components: dense random pieces, a path and isolated vertices.
    for count in (2, 3, 4):
        for trial in range(4):
            sizes = [rng.randint(1, 12 // count) for _ in range(count)]
            yield _disjoint_union([random_graph(k, 0.7, seed=rng.randrange(10**6)) for k in sizes])
    yield _disjoint_union([path_graph(5), complete_graph(4), Graph(3)])


@pytest.mark.parametrize("g", list(_table_graphs()), ids=repr)
def test_ham_path_table_matches_reference(g):
    masks = g.adjacency_masks()
    ends = _ham_path_table(masks, g.n, 1)
    assert len(ends) == g.n
    # Every mask's end set, rebuilt from the per-vertex ints.
    table = [sum(1 << v for v in range(g.n) if ends[v] >> mask & 1) for mask in range(1 << g.n)]
    assert table == ref_ham_path_table(masks, g.n)
    assert all(e >> (1 << g.n) == 0 for e in ends)
    # cov_1: the sets one blue path covers, and the empty set, which no path needs.
    cov1 = _cover_tables(masks, g.n, 1)[0][1]
    assert [cov1 >> mask & 1 for mask in range(1 << g.n)] == [int(bool(x) or not mask) for mask, x in enumerate(table)]


@pytest.mark.parametrize("s", [1, 2, 3])
def test_mono_clique_matches_reference(s):
    rng = random.Random(s)
    host, bmap = sheared_blowup(cycle_graph(4), 8, seed=3)
    for trial in range(30):
        chi = EdgeColouring.random(host, s, seed=rng.randrange(10**6))
        for clique in bmap.clique_of:
            for target in range(0, 9):
                assert mono_clique_in_clique(chi, clique, target) == ref_mono_clique_in_clique(
                    chi, clique, target
                ), (trial, clique, target)


def test_clique_search_matches_recursive_reference():
    # Every target on random graphs, dense and sparse: the same first clique, or None.
    rng = random.Random(7)
    compared = found = 0
    for _ in range(300):
        n = rng.randint(0, 14)
        masks = random_graph(n, rng.choice([0.3, 0.6, 0.9]), rng.randrange(10**6)).adjacency_masks()
        for target in range(n + 2):
            want = ref_max_clique_at_least(masks, list(range(n)), target)
            # the search mono_clique_in_clique runs per colour class
            got = next(_depth_first(_grow_clique(masks, target, (), (1 << n) - 1)), None)
            assert got == (None if want is None else tuple(want)), (n, target)
            compared, found = compared + 1, found + (want is not None)
    assert compared > 2000 and 0.3 < found / compared < 0.8


def test_biclique_search_matches_combination_walk():
    # Random sides up to 9 x 9, k = 0-3, some with repeated entries; the blue
    # test is a fixed random relation on the entries, so repeats agree.
    rng = random.Random(11)
    found = 0
    for _ in range(3000):
        side_a = [rng.randrange(12) for _ in range(rng.randint(0, 9))]
        side_b = [rng.randrange(100, 112) for _ in range(rng.randint(0, 9))]
        if rng.random() < 0.5:
            side_a, side_b = sorted(set(side_a)), sorted(set(side_b))
        p = rng.choice([0.5, 0.8, 0.95])
        blue_pairs = {(a, b) for a in range(12) for b in range(100, 112) if rng.random() < p}
        k = rng.randint(0, 3)
        want = ref_find_blue_biclique(side_a, side_b, lambda a, b: (a, b) in blue_pairs, k)
        rows = [sum(1 << i for i, b in enumerate(side_b) if (a, b) in blue_pairs) for a in side_a]
        if k == 0:  # build_aux_colouring's empty witness; the search refuses need 0
            assert want == ((), ())
            with pytest.raises(ParameterError):
                find_blue_biclique(rows, 0)
            continue
        got = find_blue_biclique(rows, 2 * k)
        if got is not None:
            picks, common = got
            got = tuple(side_a[i] for i in picks), tuple(side_b[i] for i in _mask_vertices(common)[: 2 * k])
        assert got == want
        found += want is not None
    assert found > 300


def _kst_instance(x: int, p: float, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    return [(i, j) for i in range(x) for j in range(x) if rng.random() < p]


def test_kst_reports_match_combination_walk():
    rng = random.Random(3)
    for _ in range(200):
        x, k = rng.randint(1, 9), rng.randint(1, 2)
        edges = _kst_instance(x, rng.choice([0.5, 0.8]), rng.randrange(10**6))
        blue = set(edges)
        want = ref_find_blue_biclique(range(x), range(x), lambda a, b: (a, b) in blue, k)
        assert (kst_bound_check(x, edges, k) is None) == (want is not None)


def test_kst_report_without_a_biclique_is_unchanged():
    # 488 edges of a 40 x 40 grid with no K_{6,6}: the combination walk took
    # over a second to rule out every 6-set of rows.
    edges = _kst_instance(40, 0.3, 11)
    assert len(edges) == 488
    assert kst_bound_check(40, edges, 3) is True


def test_aux_check_names_the_lexicographically_first_witness_off_the_blue_graph():
    # (2,3) and (3,4) leave the blue graph but keep their witnesses, stored
    # with (3,4) first, so the check must not name them in dict order.
    j = path_graph(6)
    host, bmap = sheared_blowup(j, 5)
    chi = EdgeColouring.constant(host, 2, 1)
    aux = build_aux_colouring(j, [clique[:4] for clique in bmap.clique_of], chi, 1, 1)
    ref_validate_aux_colouring(aux, j)
    assert aux.blue == j
    blue = Graph(6, [(0, 1), (1, 2), (4, 5)])
    witnesses = {e: aux.witnesses[e] for e in ((3, 4), (0, 1), (2, 3), (1, 2), (4, 5))}
    with pytest.raises(ConstructionError, match=r"^witness stored for non-blue edge \(2, 3\)$"):
        ref_validate_aux_colouring(dataclasses.replace(aux, blue=blue, witnesses=witnesses), j)


@pytest.mark.parametrize("clique", [(0, 1, 17), (0, 0, 1), (0, 1, 2, 40)])
def test_mono_clique_names_missing_pair_like_reference(clique):
    host, _ = sheared_blowup(cycle_graph(4), 8, seed=3)
    chi = EdgeColouring.random(host, 2, seed=1)
    with pytest.raises(ParameterError) as want:
        ref_mono_clique_in_clique(chi, clique, 2)
    with pytest.raises(ParameterError) as got:
        mono_clique_in_clique(chi, clique, 2)
    assert str(got.value) == str(want.value)


def _bad_maps():
    host = complete_graph(4)
    good = {e: 1 + (e[0] + e[1]) % 2 for e in host.sorted_edges()}
    yield "non-edge", path_graph(4), {(0, 1): 1, (1, 2): 2, (0, 2): 1, (2, 3): 1}
    yield "non-edge reversed", path_graph(4), {(1, 0): 1, (3, 1): 2, (1, 2): 1, (2, 3): 1}
    yield "out of range", host, {**good, (1, 3): 3}
    yield "zero colour", host, {**good, (0, 1): 0}
    yield "range before non-edge", path_graph(4), {(0, 1): 5, (0, 3): 1, (1, 2): 1, (2, 3): 1}
    yield "missing edge", host, {e: c for e, c in good.items() if e != (2, 3)}
    yield "missing, reversed keys", host, {(v, u): c for (u, v), c in good.items() if u}
    yield "empty map", host, {}


@pytest.mark.parametrize("name,host,colour_of", list(_bad_maps()), ids=lambda x: x if isinstance(x, str) else "")
def test_bad_colour_map_rejected_like_reference(name, host, colour_of):
    with pytest.raises(ParameterError) as want:
        ref_colour_map(host, 2, colour_of)
    with pytest.raises(ParameterError) as got:
        EdgeColouring(host, 2, colour_of)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_good_colour_maps_match_reference():
    rng = random.Random(4)
    for trial in range(40):
        host = random_graph(rng.randint(0, 9), 0.5, seed=trial)
        s = rng.randint(1, 4)
        colour_of = {}
        for u, v in host.sorted_edges():
            colour_of[(u, v) if rng.random() < 0.5 else (v, u)] = rng.randint(1, s)
        want = ref_colour_map(host, s, colour_of)
        chi = EdgeColouring(host, s, colour_of)
        assert {e: chi.colour(*e) for e in host.edges} == want


def _colour_map_cases():
    rng = random.Random(22)
    hosts = [Graph(0), complete_graph(2), sheared_blowup(cycle_graph(4), 3, seed=1)[0]]
    hosts += [random_graph(rng.randint(1, 10), rng.choice((0.3, 0.7)), seed=rng.randrange(10**6))
              for _ in range(24)]
    for host in hosts:
        s = rng.randint(1, 4)
        edges = host.sorted_edges()
        good = {e: rng.randint(1, s) for e in edges}
        yield "host order", host, s, good
        yield "host order, fresh tuples", host, s, {(u + 0, v + 0): c for (u, v), c in good.items()}
        items = list(good.items())
        rng.shuffle(items)
        yield "shuffled", host, s, dict(items)
        yield "(v, u) keys", host, s, {(v, u): c for (u, v), c in good.items()}
        if edges:
            e = rng.choice(edges)
            yield "missing edge", host, s, {f: c for f, c in good.items() if f != e}
            yield "edge twice", host, s, {**good, (e[1], e[0]): 1}
            for label, bad in (("True", True), ("1.0", 1.0), ("0", 0), ("s + 1", s + 1)):
                yield f"colour {label}", host, s, {f: bad if f == e else c for f, c in good.items()}
        non_edges = [(u, v) for u in range(host.n) for v in range(u + 1, host.n) if (u, v) not in host.edges]
        if non_edges:
            at = rng.randint(0, len(items))
            yield "non-edge key", host, s, dict(items[:at] + [(rng.choice(non_edges), 1)] + items[at:])


def _checked(check, *args):
    try:
        return "ok", list(check(*args).items())
    except ParameterError as exc:
        return "error", str(exc)


def test_colour_map_check_matches_frozen_copy():
    seen = set()
    for name, host, s, colour_of in _colour_map_cases():
        want = _checked(frozen_colour_map, host, s, colour_of)
        got = _checked(lambda *a: EdgeColouring(*a)._col, host, s, colour_of)
        assert got == want, name
        seen.add((name, want[0]))
    # Every kind of map reached the check, and the bad ones were refused.
    assert {name for name, verdict in seen if verdict == "ok"} == {
        "host order", "host order, fresh tuples", "shuffled", "(v, u) keys"}
    assert len(seen) == 11


def test_embed_masks_matches_recursive_reference():
    rng = random.Random(6)
    for trial in range(300):
        host = random_graph(rng.randint(1, 11), rng.choice((0.3, 0.6, 0.9)), seed=rng.randrange(10**6))
        pattern = random_graph(rng.randint(0, 6), rng.choice((0.3, 0.6)), seed=rng.randrange(10**6))
        masks = host.adjacency_masks()
        got = _embed_masks(host.n, masks, _prepare_pattern(pattern))
        assert got == ref_embed_masks(host.n, masks, pattern), trial


def test_deep_pattern_embeds_without_recursion():
    host, pattern = path_graph(1200), path_graph(1100)
    emb = find_subgraph(host, pattern)
    assert emb is not None
    mapping = emb.mapping
    assert len(set(mapping)) == pattern.n
    assert all(host.has_edge(mapping[u], mapping[v]) for u, v in pattern.edges)


def _long_path_outcome(g: Graph, parts, target_len: int, node_budget: int):
    try:
        w = long_path_through_sets(g, parts, target_len, node_budget=node_budget)
    except NoPathFoundError as exc:
        validate_path(g, exc.longest, parts)
        return False, exc.longest
    return True, w


def test_long_path_matches_recursive_reference():
    rng = random.Random(12)
    found = exhausted = 0
    for trial in range(300):
        n = rng.randint(1, 14)
        g = random_graph(n, rng.choice((0.2, 0.4, 0.7)), seed=rng.randrange(10**6))
        vertices = rng.sample(range(n), rng.randint(1, n))
        t = rng.randint(1, min(3, len(vertices)))
        parts = [vertices[i::t] for i in range(t)]
        target_len = rng.randint(1, len(vertices) + 1)
        node_budget = rng.choice((1, 3, 10, 50, 1_000_000))
        want = ref_long_path(g, parts, target_len, node_budget)
        assert _long_path_outcome(g, parts, target_len, node_budget) == want, trial
        found += want[0]
        exhausted += not want[0]
    assert found >= 50 and exhausted >= 50


@pytest.mark.parametrize("node_budget", [100, 500, 1_000_000])
def test_long_path_memo_saves_the_budget_for_a_late_branch(node_budget):
    # From vertex 0 the walk first enters a K6 trap too small for the target,
    # then escapes along 7-8-...-14.  The memo of failed (vertex, used) states
    # cuts the trap from about 2,000 walk steps to under 200, so a budget of 500
    # reaches the escape only when failed states are remembered.
    trap = [(a, b) for a in range(1, 7) for b in range(a + 1, 7)] + [(0, v) for v in range(1, 7)]
    escape = [(0, 7)] + [(v, v + 1) for v in range(7, 14)]
    g = Graph(15, trap + escape)
    parts = [list(range(15))]
    want = ref_long_path(g, parts, 9, node_budget)
    assert want[0] == (node_budget >= 500)
    assert _long_path_outcome(g, parts, 9, node_budget) == want


def test_long_path_on_p1500_does_not_recurse():
    g = path_graph(1500)
    w = long_path_through_sets(g, [list(range(1500))], 1500)
    assert w == tuple(range(1500))
    validate_path(g, w, [list(range(1500))])


def test_step_host_never_builds_adjacency_masks():
    cfg = PipelineConfig(k=1, s=2, r=1, t=2, n=3, clique_size=24, mono_target=4,
                         out_quad=quad(1, 64, "1/2", "4/5"), in_quad=quad(1, 2000, "1/2", "4/5"))
    g = cycle_graph(24)
    host, bmap = build_step_host(g, cfg)
    rng = random.Random(0)
    chi = EdgeColouring(host, 2, {e: rng.randint(1, 2) for e in host.sorted_edges()})
    # floor(c*n) = 1 < 2, so neither class-P parameter set of the step exists,
    # yet the step finds a power: PipelineConfig must not refuse such a config.
    outcome = induction_step(g, host, bmap, chi, cfg)
    # The outcome embeds a path power into the host and validates it there.
    assert host.m == 33_120 and outcome.kind == "monoPowerFound"
    assert host._masks is None


def _template_instance(rng: random.Random):
    """A random template check: h, r, t, segments and j, blue, base on N vertices.

    j is complete less a few pairs, so containment fails inside segments and
    across edges of h^r, or holds.  blue plants a partial matching per edge
    of h^r, and now and then stray pairs, so some pairs inside a segment are
    blue and some cross pairs are not a matching.  A sparse base misses the
    distance bound.  One instance in twenty puts a segment vertex outside j.
    """
    n, t, r = rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 2)
    h = random_graph(n, rng.choice((0.3, 0.6, 1.0)), seed=rng.randrange(10**6))
    size = n * t + rng.randint(0, 3)
    segments = [list(seg) for seg in zip(*[iter(rng.sample(range(size), n * t))] * t)]
    if rng.random() < 0.05:
        segments[rng.randrange(n)][rng.randrange(t)] = size
    segments = [tuple(seg) for seg in segments]
    missing = rng.choice((0, 0, 0.01, 0.1))
    j = Graph(size, [e for e in complete_graph(size).edges if rng.random() >= missing])
    blue_pairs = []
    for i1, i2 in power(h, r).sorted_edges():
        for a, b in enumerate(rng.sample(range(t), t)):
            if rng.random() < 0.5:
                blue_pairs.append((segments[i1][a], segments[i2][b]))
    stray = rng.choice((0, 0, 0.05))
    blue_pairs += [e for e in complete_graph(size).edges if rng.random() < stray]
    blue = Graph(size, [e for e in blue_pairs if max(e) < size])
    base = rng.choice((j, random_graph(size, rng.choice((0.1, 0.3)), seed=rng.randrange(10**6))))
    return h, r, t, segments, j, blue, base


def test_template_check_matches_three_pass_reference():
    seen = set()
    rng = random.Random(31)
    for trial in range(400):
        h, r, t, segments, j, blue, base = _template_instance(rng)
        if max(v for seg in segments for v in seg) >= j.n:  # the reference takes valid segments only
            with pytest.raises(ParameterError, match=rf"^segment vertex {j.n} out of range for n={j.n}$"):
                check_template_containment(h, r, t, segments, j, blue, base)
            seen.add("outside j")
            continue
        contained, offending, grey_ok, grey_problem, template, distance_ok = want = \
            ref_template_containment(h, r, t, segments, j, blue, base)
        if contained and grey_ok:
            got = check_template_containment(h, r, t, segments, j, blue, base)
            assert got == (template, distance_ok), trial
            assert list(got[0].edges) == list(template.edges), trial
        else:
            with pytest.raises(PreconditionError) as exc:
                check_template_containment(h, r, t, segments, j, blue, base)
            reason = f"containment fails at {offending}" if not contained else grey_problem
            assert str(exc.value) == reason, (trial, want)
        if not contained:
            seen.add("inside" if offending[0][0] == offending[0][1] else "across")
            seen.add("in j")
        else:
            seen.add("grey" if grey_ok else grey_problem.split()[0])
            seen.add("distance ok" if distance_ok else "distance miss")
    assert seen == {"inside", "across", "outside j", "in j", "grey", "pair", "non-grey",
                    "distance ok", "distance miss"}
