"""Differential tests: the class-P kernels against the reference copies in classp_reference."""

from __future__ import annotations

import gc
import math
import random
import signal
import sys
import tracemalloc
import types
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest

from pathramsey import (
    ClassPParams,
    GenerationConfig,
    Graph,
    complete_graph,
    cycle_graph,
    fit_density_certificate,
    generate_class_p,
    girth_violation,
    path_graph,
    quad,
    random_graph,
)
from pathramsey import pseudorandom
from pathramsey.graphs import _short_cycle
from pathramsey.partition import check_expansion
from pathramsey.pseudorandom import (
    GenerationLog,
    _clean_short_cycles,
    _count_certificate_ok,
    _record_pairs,
    _sampled_pairs,
    prune_to_size,
    verify_edgeboost,
)

from classp_reference import (
    ref_bisection_records,
    ref_check_expansion,
    ref_clean_short_cycles,
    ref_count_certificate_ok,
    ref_counted_pairs,
    ref_cross_count,
    ref_cycle_path,
    ref_fit_density_certificate,
    ref_girth_violation,
    ref_iter_disjoint_pairs,
    ref_mask_vertices,
    ref_records,
    ref_sample_disjoint_pairs,
    ref_verify_edgeboost,
)
from conftest import complete_bipartite, to_nx
from graph_reference import ref_prune_to_size

PAIR_GRID = [(n, k) for n in range(0, 15) for k in range(0, 7)] + [(14, 7), (16, 8), (17, 8)]
DENSITIES = (0, 0.15, 0.5, 0.85, 1)


@pytest.mark.parametrize("n,k", PAIR_GRID)
def test_pair_order_matches_reference(n, k):
    # The branch-and-bound records are the reference enumeration filtered by
    # the widening window (empty, [1, k^2] and a random one), and the
    # certificate's closed-form count sum is the enumerated sum.
    rng = random.Random(100 * n + k)
    pairs = list(ref_iter_disjoint_pairs(n, k))
    for p in DENSITIES:
        g = random_graph(n, p, rng.randrange(10 ** 6))
        counted = ref_counted_pairs(g, k, pairs)
        a, b = sorted(rng.randint(0, k * k) for _ in range(2))
        for window in ((k * k + 1, -1), (1, k * k), (a, b)):
            got = list(_record_pairs(g.adjacency_masks(), k, *window))
            assert got == ref_records(counted, *window), (p, sorted(g.edges), window)
        if counted:
            cert = fit_density_certificate(g, k, Fraction(1, 2), mode="exhaustive")
            assert cert.pairs_checked == len(counted)
            assert cert.mean_density == Fraction(sum(e for _, _, e in counted), k * k * len(counted))


def test_pair_checks_match_reference():
    rng = random.Random(7)
    for trial in range(30):
        n = rng.randrange(2, 12)
        g = random_graph(n, rng.choice(DENSITIES), rng.randrange(10 ** 6))
        for k in range(1, n // 2 + 1):
            assert check_expansion(g, k) == ref_check_expansion(g, k), (trial, k)
            mean = Fraction(g.m * 2 * k * k, n * (n - 1))
            for target in (mean, Fraction(rng.randrange(4 * k * k + 1), 4)):
                for slack in (Fraction(1, 10), Fraction(4, 5)):
                    got = _count_certificate_ok(g, k, target, slack, sample_count=5, seed=0)
                    ok, worst, mode = ref_count_certificate_ok(g, k, target, slack)
                    assert got == (worst, mode) and ok == (worst is None), (trial, k, target)
        for mu in range(1, n // 2 + 1):
            for beta in range(2 * mu, n + 1):
                assert verify_edgeboost(g, n, beta, mu) == ref_verify_edgeboost(g, n, beta, mu)


def _circulant(n: int, offsets) -> Graph:
    return Graph(n, [(i, (i + d) % n) for i in range(n) for d in offsets])


def _tie_heavy_graphs():
    yield complete_graph(8)
    yield Graph(8)
    yield cycle_graph(8)
    yield cycle_graph(9)
    yield complete_bipartite(4, 4)
    yield complete_bipartite(3, 6)
    yield _circulant(10, (1, 2))
    yield _circulant(9, (1, 3))
    yield _circulant(10, (1, 5))  # Moebius ladder
    yield path_graph(8)
    yield Graph(6, [(0, v) for v in range(1, 6)])  # star


def _random_graphs():
    rng = random.Random(2024)
    for _ in range(30):
        n = rng.randrange(4, 12)
        yield random_graph(n, rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)), rng.randrange(10 ** 6))


TOLERANCES = (Fraction(1, 10), Fraction(1, 2), Fraction(4, 5))


@pytest.mark.parametrize("source", [_tie_heavy_graphs, _random_graphs])
def test_certificate_matches_reference(source):
    for g in source():
        for k in range(1, g.n // 2 + 1):
            for tol in TOLERANCES:
                for kw in ({"mode": "exhaustive"},
                           {"mode": "sampled", "sample_count": 40, "seed": g.n * 31 + k}):
                    got = fit_density_certificate(g, k, tol, **kw).to_dict()
                    want = ref_fit_density_certificate(g, k, tol, **kw).to_dict()
                    assert got == want, (g.n, sorted(g.edges), k, tol, kw)


# random.sample keeps a pool when n <= 21 for 2k <= 5, n <= 85 for 2k in 6..10
# and n <= 277 for 2k in 12..32, and redraws repeats from a set above that.
# Pool: (10, 1), (21, 2), (85, 3), (40, 10), (64, 16), (32, 16), (2, 1), (8, 4).
# Set: (200, 1), (22, 2), (64, 2), (86, 3), (200, 3).
SAMPLE_GRID = [(10, 1), (21, 2), (85, 3), (40, 10), (64, 16), (32, 16), (2, 1), (8, 4),
               (200, 1), (22, 2), (64, 2), (86, 3), (200, 3)]


@pytest.mark.parametrize("n,k", SAMPLE_GRID)
def test_sampled_pairs_follow_sample_stream(n, k):
    # The kernel draws each pair with the getrandbits calls of sample(), so
    # its stream is the reference sampler's, pair for pair, on either side of
    # sample()'s set-size threshold; e is the direct cross count.
    g = random_graph(n, 0.3, seed=n * 7 + k)
    masks = g.adjacency_masks()
    for seed in (0, 1, 2, 0x5EED, 0xCE47 ^ 5):
        got = list(_sampled_pairs(masks, k, 60, seed))
        assert [(x, y) for x, y, _ in got] == list(ref_sample_disjoint_pairs(n, k, 60, seed)), seed
        assert [e for _, _, e in got] == [ref_cross_count(masks, x, y) for x, y, _ in got], seed


@pytest.mark.parametrize("n,k", [(32, 16), (64, 16), (40, 10)])
def test_sampled_pairs_follow_sample_stream_for_a_whole_certificate(n, k, monkeypatch):
    # 300 pairs, a whole sampled certificate, on the benchmark's three pool
    # shapes.  After every pair the kernel's generator is in the state that
    # sample() leaves, so each pair spends the same Mersenne Twister words,
    # the last pair's included; for n = 2k, y is the complement of x.
    class Tracked(random.Random):
        made = []

        def __init__(self, seed):
            super().__init__(seed)
            Tracked.made.append(self)

    monkeypatch.setattr(pseudorandom, "random", types.SimpleNamespace(Random=Tracked))
    g = random_graph(n, 0.3, seed=n * 7 + k)
    masks, full = g.adjacency_masks(), (1 << n) - 1
    for seed in (0, 52807):
        rng, got = random.Random(seed), []
        for x, y, e in _sampled_pairs(masks, k, 300, seed):
            rng.sample(range(n), 2 * k)
            assert Tracked.made[-1].getstate() == rng.getstate(), (seed, len(got))
            got.append((x, y, e))
        assert [(x, y) for x, y, _ in got] == list(ref_sample_disjoint_pairs(n, k, 300, seed)), seed
        assert [e for _, _, e in got] == [ref_cross_count(masks, x, y) for x, y, _ in got], seed
        if n == 2 * k:
            assert all(y == full ^ x for x, y, _ in got), seed


def test_sampled_count_check_returns_first_violation(monkeypatch):
    # With no pair budget every family is sampled: the check fails on the
    # first pair of the reference stream whose count leaves the window.
    monkeypatch.setattr(pseudorandom, "PAIR_BUDGET", 0)
    rng = random.Random(31)
    positions = set()
    for trial in range(40):
        n = rng.randrange(4, 30)
        k = rng.randrange(1, n // 2 + 1)
        g = random_graph(n, rng.choice((0.2, 0.5, 0.8)), rng.randrange(10 ** 6))
        masks, seed = g.adjacency_masks(), rng.randrange(10 ** 6)
        target = Fraction(g.m * 2 * k * k, n * (n - 1))
        for slack in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
            lo, hi = math.ceil((1 - slack) * target), math.floor((1 + slack) * target)
            want = None, "sampled"
            for i, (x, y) in enumerate(ref_sample_disjoint_pairs(n, k, 30, seed)):
                e = ref_cross_count(masks, x, y)
                if not lo <= e <= hi:
                    want = (tuple(ref_mask_vertices(x)), tuple(ref_mask_vertices(y)), e), "sampled"
                    positions.add(i)
                    break
            else:
                positions.add(None)
            assert _count_certificate_ok(g, k, target, slack, sample_count=30, seed=seed) == want, (trial, slack)
    assert None in positions and len(positions) > 3  # passes, and failures past the first pair


def test_vacuous_and_auto_certificates_match_reference():
    # n = 9: k = 5 is vacuous, k = 3 exhaustive (840 pairs); n = 26, k = 10 samples.
    for n, k in ((9, 5), (9, 3), (26, 10)):
        g = random_graph(n, 0.5, seed=4)
        got = fit_density_certificate(g, k, Fraction(1, 2))
        want = ref_fit_density_certificate(g, k, Fraction(1, 2))
        assert got.to_dict() == want.to_dict()


@pytest.mark.parametrize("limit", range(3, 9))
def test_cleaning_matches_reference(limit):
    rng = random.Random(limit)
    for trial in range(60):
        n = rng.randrange(5, 15)
        g = random_graph(n, rng.choice((0.2, 0.35, 0.5, 0.8)), rng.randrange(10 ** 6))
        log = GenerationLog()
        cleaned = _clean_short_cycles(g, limit, log)
        want, removed, cycles = ref_clean_short_cycles(g, limit)
        assert (cleaned, log.removed_edges, log.cycles_found) == (want, removed, cycles), (trial, sorted(g.edges))
        assert girth_violation(g, limit) == ref_girth_violation(g, limit)


def test_girth_violation_matches_reference_on_regular_graphs():
    graphs = [complete_graph(5), cycle_graph(7), complete_bipartite(3, 3), _circulant(10, (1, 5)),
              _circulant(12, (1, 4)), path_graph(5)]
    for g in graphs:
        for limit in range(3, g.n + 1):
            assert girth_violation(g, limit) == ref_girth_violation(g, limit)


def _cycle_path_graphs():
    yield from (cycle_graph(n) for n in range(3, 17))
    yield from (_circulant(n, offsets) for n, offsets in
                ((8, (1, 2)), (10, (1, 5)), (12, (1, 4)), (13, (1, 5)), (16, (1, 3, 7))))
    yield from (complete_bipartite(a, b) for a, b in ((2, 2), (3, 3), (2, 5), (4, 6)))
    yield complete_graph(7)
    rng = random.Random(1979)
    for _ in range(30):
        n = rng.randrange(6, 40)
        yield random_graph(n, rng.uniform(1.2, 3.5) / n, rng.randrange(10 ** 6))


def test_cycle_path_matches_reference():
    # Every edge on a cycle, from either end: the layered search traces the
    # queue's first-parent path, whatever the cycle length, and finds none
    # when capped below that length.
    lengths = set()
    for g in _cycle_path_graphs():
        adj = g.adjacency_masks()
        bridges = {tuple(sorted(e)) for e in nx.bridges(to_nx(g))}
        for u, v in g.sorted_edges():
            if (u, v) in bridges:
                continue
            for a, b in ((u, v), (v, u)):
                want = ref_cycle_path(adj, a, b)
                assert _short_cycle(adj, a, b, g.n) == want, (g.n, sorted(g.edges), a, b)
                assert _short_cycle(adj, a, b, len(want)) == want, (g.n, sorted(g.edges), a, b)
                for cap in range(3, len(want)):
                    assert _short_cycle(adj, a, b, cap) is None, (g.n, sorted(g.edges), a, b, cap)
                lengths.add(len(want))
    assert set(range(3, 17)) <= lengths


def _bisection_windows(k: int, rng: random.Random):
    a, b = sorted(rng.randint(0, k * k) for _ in range(2))
    return (k * k + 1, -1), (1, k * k), (a, b)


def _exact_members():
    # The an = 20 members of the benchmark's exhaustively certified family.
    params = ClassPParams(quad(1, 64, "1/2", "4/5"), t=1, n=20)
    return [generate_class_p(params, GenerationConfig(p=Fraction(7, 10), seed=s))[0] for s in range(24)]


def _bisection_graphs():
    rng = random.Random(2015)
    for n in (18, 20):
        for p in (0.2, 0.5, 0.7, 0.9):
            yield random_graph(n, p, rng.randrange(10 ** 6))


@pytest.mark.parametrize("source", [_bisection_graphs, _exact_members])
def test_bisection_records_match_frozen_kernel(source, monkeypatch):
    # n = 2k: the packed kernel with its tighter bounds yields exactly the
    # records of the earlier kernel, and so gives the same certificates.
    rng = random.Random(18)
    graphs = list(source())
    for g in graphs:
        k = g.n // 2
        for window in _bisection_windows(k, rng):
            got = list(_record_pairs(g.adjacency_masks(), k, *window))
            assert got == list(ref_bisection_records(g.adjacency_masks(), k, *window)), (sorted(g.edges), window)
    tolerances = (Fraction(1, 10), Fraction(4, 5))
    certs = [fit_density_certificate(g, g.n // 2, tol).to_dict() for g in graphs for tol in tolerances]
    monkeypatch.setattr(pseudorandom, "_record_pairs", ref_bisection_records)
    assert certs == [fit_density_certificate(g, g.n // 2, tol).to_dict() for g in graphs for tol in tolerances]


def _grid_bisections():
    # The n = 2k cases of PAIR_GRID, with the graphs and windows of
    # test_pair_order_matches_reference, two windows whose ends lie so far
    # outside [0, k^2] that, unclamped, they would wrap round a byte lane,
    # and their enumerated records.
    for n, k in PAIR_GRID:
        if k and n == 2 * k:
            rng = random.Random(100 * n + k)
            pairs = list(ref_iter_disjoint_pairs(n, k))
            for p in DENSITIES:
                g = random_graph(n, p, rng.randrange(10 ** 6))
                counted = ref_counted_pairs(g, k, pairs)
                a, b = sorted(rng.randint(0, k * k) for _ in range(2))
                windows = ((k * k + 1, -1), (1, k * k), (a, b), (-128, -129), (512, 1024))
                yield g, [(w, ref_records(counted, *w)) for w in windows]


def _frozen_bisections(graphs):
    # The frozen kernel's records on the windows test_bisection_records_match_frozen_kernel draws.
    rng = random.Random(18)
    for g in graphs:
        masks, k = g.adjacency_masks(), g.n // 2
        yield g, [(w, list(ref_bisection_records(masks, k, *w))) for w in _bisection_windows(k, rng)]


@pytest.fixture
def clear_lane_tables():
    # A test that raises LEAF_SPAN builds membership tables far larger than
    # the certificates need; drop them, as the process keeps them otherwise.
    yield
    pseudorandom._members.cache_clear()


@pytest.mark.parametrize("source", [_grid_bisections, lambda: _frozen_bisections(_bisection_graphs()),
                                    lambda: _frozen_bisections(_exact_members())],
                         ids=["grid", "bisection", "exact"])
def test_leaf_path_extremes_match_reference(source, monkeypatch, clear_lane_tables):
    # LEAF_SPAN = 0 sends only the r = 1 nodes down the leaf path,
    # n - 1 sends the root: one packed pass over every bisection,
    # and (n - 1) // 2 puts the split mid-range.
    for g, expected in source():
        k = g.n // 2
        for span in (0, g.n - 1, (g.n - 1) // 2):
            monkeypatch.setattr(pseudorandom, "LEAF_SPAN", span)
            for window, want in expected:
                got = list(_record_pairs(g.adjacency_masks(), k, *window))
                assert got == want, (span, sorted(g.edges), window)


@pytest.mark.parametrize("n", [22, 24])
def test_leaf_lanes_either_side_of_one_byte(n, monkeypatch):
    # A lane holds a count up to k^2 below its top bit: one byte up to
    # n = 22 (k^2 = 121) and two from n = 24 (k^2 = 144), with r >= 2
    # leaves on both.
    rng = random.Random(n)
    for p in (0.2, 0.5, 0.8):
        g = random_graph(n, p, rng.randrange(10 ** 6))
        masks, k = g.adjacency_masks(), n // 2
        for window in _bisection_windows(k, rng):
            want = list(ref_bisection_records(masks, k, *window))
            for span in (0, pseudorandom.LEAF_SPAN):
                monkeypatch.setattr(pseudorandom, "LEAF_SPAN", span)
                assert list(_record_pairs(masks, k, *window)) == want, (span, sorted(g.edges), window)


@pytest.mark.parametrize("n, span", [(16, None), (16, 7), (20, None), (24, None)])
def test_near_lanes_count_neighbours_in_each_subset(n, span, monkeypatch):
    # The search's near ints, read from its per-r rows at each record: lane l
    # of near(v, r) is 2 |N(v) & S| for the l-th r-subset S of range(split, n - 1)
    # in lexicographic order, in one-byte lanes up to n = 22 and two-byte
    # lanes from n = 24, and nothing lies above the last lane.
    if span is not None:
        monkeypatch.setattr(pseudorandom, "LEAF_SPAN", span)
    rng = random.Random(n)
    checked = 0
    for p in (0.3, 0.7):
        masks = random_graph(n, p, rng.randrange(10 ** 6)).adjacency_masks()
        k = n // 2
        search, seen = _record_pairs(masks, k, k * k + 1, -1), {}
        for _ in search:
            state = search.gi_frame.f_locals
            seen.update(((v, r), lanes_int) for r, row in enumerate(state["nears"]) if row
                        for v, lanes_int in enumerate(row) if lanes_int is not None)
        shift, split = 8 * (2 if n >= 24 else 1), n - 1 - state["span"]
        for (v, r), lanes_int in seen.items():
            subsets = list(combinations(range(split, n - 1), r))
            for at, subset in enumerate(subsets):
                want = 2 * sum(masks[v] >> u & 1 for u in subset)
                assert lanes_int >> shift * at & (1 << shift) - 1 == want, (v, r, subset)
            assert lanes_int >> shift * len(subsets) == 0
            checked += 1
    assert checked


def test_exact_certificate_memory_stays_small():
    # The cut tables are built per call and freed with it: with the shared
    # membership tables already built, the peak traced allocation of each
    # exhaustive an = 20 certificate stays under 256 KiB (about 100 KiB, most
    # of it the per-call cut and near lane ints), and the 24 calls leave no
    # tables behind for a later gc pass to free.
    members = _exact_members()
    peaks = []
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for g in members:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            fit_density_certificate(g, 10, Fraction(4, 5), mode="exhaustive")
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert max(peaks) < 256 * 1024, sorted(peaks)
    assert left < 256 * 1024, left
    # From cold tables, the first certificate builds the membership tables
    # every later one reads: its peak and the tables it keeps each stay under
    # 256 KiB (about 195 and 100 KiB at LEAF_SPAN = 13; 340 and 195 KiB
    # at a span of 14), and the other 23
    # certificates add no table.
    pseudorandom._members.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fit_density_certificate(members[0], 10, Fraction(4, 5), mode="exhaustive")
        kept, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak
    assert kept < 256 * 1024, kept
    built = pseudorandom._members.cache_info().misses
    for g in members[1:]:
        fit_density_certificate(g, 10, Fraction(4, 5), mode="exhaustive")
        assert pseudorandom._members.cache_info().misses == built


def test_lane_tables_of_another_width_are_dropped():
    # Three windows on C66 build two-byte tables (about 2.2 MB in 251 tables
    # when every width's tables were kept); the one-byte an = 20 certificate
    # that follows drops them, so what stays once the calls' own garbage is
    # collected is its own tables, about 100 KiB.
    member = generate_class_p(ClassPParams(quad(1, 64, "1/2", "4/5"), t=1, n=20),
                              GenerationConfig(p=Fraction(7, 10), seed=0))[0]
    masks = cycle_graph(66).adjacency_masks()
    pseudorandom._members.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for window in ((1, 33 * 33), (2, 33 * 33), (33, 33 * 33 // 2 + 1)):
            list(_record_pairs(masks, 33, *window))
        fit_density_certificate(member, 10, Fraction(4, 5), mode="exhaustive")
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 256 * 1024, kept


def test_warm_certificate_leaves_nothing_for_the_collector():
    # With the membership tables warm and the cyclic collector off, one
    # exhaustive an = 20 certificate frees its per-call tables on return:
    # while the nested search functions referred to themselves, each call
    # left about 5.4 KB for a gc pass.  The first traced call is not
    # measured: it refills the interpreter's tuple free lists, which stay
    # allocated.
    member = _exact_members()[0]
    fit_density_certificate(member, 10, Fraction(4, 5), mode="exhaustive")
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        fit_density_certificate(member, 10, Fraction(4, 5), mode="exhaustive")
        before = tracemalloc.get_traced_memory()[0]
        fit_density_certificate(member, 10, Fraction(4, 5), mode="exhaustive")
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert left < 1024, left


def _profiled_calls(call, function: str, builtin=None) -> int:
    # How many times pseudorandom's `function` is entered during call(), or,
    # given a builtin, how many times `function` calls it.  The bound pairs
    # _record_pairs' n = 2k branch builds are its calls of `table`.
    calls, code = 0, pseudorandom.__file__
    event_name = "call" if builtin is None else "c_call"

    def count(frame, event, arg):
        nonlocal calls
        if (event == event_name and frame.f_code.co_name == function and frame.f_code.co_filename == code
                and (builtin is None or arg is builtin)):
            calls += 1

    outer = sys.getprofile()
    sys.setprofile(count)
    try:
        call()
    finally:
        sys.setprofile(outer)
    return calls


def test_bound_table_cap_never_binds_on_exact_certificates(monkeypatch):
    # The 24 an = 20 certificates build 528 bound pairs and look them up
    # 1,656 times: with nothing kept (cap 0) every lookup is a build.  The
    # default cap keeps every pair they build, and no cap changes a certificate.
    members = _exact_members()
    results = {}
    for cap in (pseudorandom._TABLE_BYTES, 1 << 62, 0):
        monkeypatch.setattr(pseudorandom, "_TABLE_BYTES", cap)
        certs = []
        builds = _profiled_calls(lambda: certs.extend(
            fit_density_certificate(g, 10, Fraction(4, 5)).to_dict() for g in members), "table")
        results[cap] = builds, certs
    default, unbounded, none_kept = results.values()
    assert default[0] == unbounded[0] == 528
    assert none_kept[0] == 1656
    assert default[1] == unbounded[1] == none_kept[1]


def test_bound_tables_stay_under_their_byte_cap(monkeypatch):
    # Uncapped, proving that no bisection of C96 cuts fewer than 2 edges
    # peaks at about 1.4 MiB traced, mostly kept bound pairs.  A 4 KiB cap
    # keeps 10 of them and rebuilds the rest on use, with the same (empty)
    # record stream and about 0.4 MiB.  A complete graph keeps almost none: its
    # search stops each node once the window covers the node's bounds.
    masks = cycle_graph(96).adjacency_masks()
    list(_record_pairs(masks, 48, 2, 48 * 48))  # the lane tables, shared by both runs

    def traced(cap):
        monkeypatch.setattr(pseudorandom, "_TABLE_BYTES", cap)
        tracemalloc.start()
        try:
            found = list(_record_pairs(masks, 48, 2, 48 * 48))
            return found, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    want, uncapped = traced(1 << 62)
    got, capped = traced(1 << 12)
    assert got == want == []
    assert capped < uncapped / 3, (capped, uncapped)


def test_covered_window_stops_the_bisection_search():
    # On K200 every bisection cuts 10,000 edges.  After the first leaf the
    # window covers each ancestor's bounds, so no ancestor evaluates another
    # child: one bound pair per level, where every child of every node on
    # the first path used to build one (9,900).
    g = complete_graph(200)
    report = None

    def run():
        nonlocal report
        report = verify_edgeboost(g, 200, 100, 1)

    assert _profiled_calls(run, "table") <= g.n
    assert (report.hypothesis_witness, report.min_cross) == (None, 10_000)
    assert report.min_cross >= report.bound


def _entered(masks, k: int, window) -> tuple[list, int]:
    # The records of one pair search and the number of nodes it entered.
    search, records = _record_pairs(masks, k, *window), []
    while True:
        try:
            records.append(next(search))
        except StopIteration as stop:
            return records, stop.value


# The nodes the n = 2k search enters on each corpus when both sides of every
# child's bounds are computed.  Skipping a side that cannot prune must not
# cost a node here.
BOUNDED_NODES = {"grid": 56, "bisection": 590, "C96": 2070, "K200": 99}


def test_bisection_search_node_counts(monkeypatch):
    # Each an = 20 certificate search enters all 63 nodes, one per nonempty
    # set of x vertices below the split, and prunes none, so its cost is per
    # node and per leaf.  The records are still those of the frozen kernel.
    for g in _exact_members():
        masks = g.adjacency_masks()
        records, nodes = _entered(masks, 10, (101, -1))
        assert records == list(ref_bisection_records(masks, 10, 101, -1)), sorted(g.edges)
        assert nodes == 63, sorted(g.edges)
    totals = dict.fromkeys(BOUNDED_NODES, 0)
    for name, corpus in (("grid", _grid_bisections()), ("bisection", _frozen_bisections(_bisection_graphs()))):
        for g, expected in corpus:
            for window, want in expected:
                records, nodes = _entered(g.adjacency_masks(), g.n // 2, window)
                assert records == want, (sorted(g.edges), window)
                totals[name] += nodes
    records, totals["C96"] = _entered(cycle_graph(96).adjacency_masks(), 48, (2, 48 * 48))
    assert records == []
    search, entered = pseudorandom._record_pairs, []

    def counted(*args):
        entered.append((yield from search(*args)))
        return entered[-1]

    monkeypatch.setattr(pseudorandom, "_record_pairs", counted)
    assert verify_edgeboost(complete_graph(200), 200, 100, 1).min_cross == 10_000
    totals["K200"] = sum(entered)
    assert all(totals[name] <= most for name, most in BOUNDED_NODES.items()), totals


@pytest.mark.parametrize("n,k", [(9, 3), (12, 4), (16, 5)])
def test_covered_window_stops_the_y_search(n, k):
    # n > 2k: on K_n every pair has k^2 cross edges, so after the first
    # record the window covers every node's bounds.  Each y-node on the first
    # path sorts its one child's weights and stops; without the exit every
    # later child of those nodes was sorted too (8, 15 and 28 sorts here).
    masks = complete_graph(n).adjacency_masks()
    records = []
    sorts = _profiled_calls(lambda: records.extend(_record_pairs(masks, k, k * k + 1, -1)), "y_sets", sorted)
    assert sorts == k - 1
    assert records == ref_records(ref_counted_pairs(complete_graph(n), k), k * k + 1, -1)


def test_x_vertices_still_to_come_bound_the_y_search():
    # n > 2k: every (10, 10) pair of K30 has 100 cross edges.  A y vertex
    # gains each of the r x vertices still to come, as it has no non-neighbour
    # among the candidates, so after the first record the window covers every
    # node.  Bounded by the chosen x vertices alone, the search walked every
    # 9-vertex prefix of x (about 10^7 nodes) and did not finish in 20 s.
    def expire(signum, frame):
        raise TimeoutError("the K30 pair search ran past 5 s")

    masks = complete_graph(30).adjacency_masks()
    handler = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5)
    try:
        search, records = _record_pairs(masks, 10, 101, -1), []
        while True:
            try:
                records.append(next(search))
            except StopIteration as stop:
                nodes = stop.value
                break
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    assert records == [(1023, 1047552, 100)]
    assert nodes == 19


@pytest.mark.parametrize("g", [complete_graph(66), complete_bipartite(33, 33), cycle_graph(66),
                               complete_graph(130), complete_bipartite(65, 65), complete_graph(258),
                               complete_graph(364)],
                         ids=lambda g: f"n{g.n}m{g.m}")
def test_bisection_records_on_wide_fields(g):
    # A packed field holds a biased count below 2n and a lane count up to
    # k^2 below its top bit: two bytes from n = 24 on, four from n = 364.
    # The windows are ones the frozen kernel also leaves quickly.
    k = g.n // 2
    masks = g.adjacency_masks()
    for window in ((1, k * k), (2, k * k), (k, k * k // 2 + 1)):
        assert list(_record_pairs(masks, k, *window)) == list(ref_bisection_records(masks, k, *window)), window
    if g.m == g.n * (g.n - 1) // 2:
        # Every bisection of K_n has k^2 cross edges: the first pair is the only record.
        first = (1 << k) - 1
        assert list(_record_pairs(masks, k, k * k + 1, -1)) == [(first, first << k, k * k)]


@pytest.mark.parametrize("seed", range(3))
def test_cleaning_matches_reference_at_bench_size(seed):
    # G(64, 3/10) with limit 4, as the benchmark's girth family draws it.
    g = random_graph(64, 0.3, seed)
    log = GenerationLog()
    cleaned = _clean_short_cycles(g, 4, log)
    assert (cleaned, log.removed_edges, log.cycles_found) == ref_clean_short_cycles(g, 4)
    assert girth_violation(g, 4) == ref_girth_violation(g, 4)


@pytest.mark.parametrize("n", (24, 28, 32))
def test_cleaning_matches_reference_in_bench_shape(n):
    # The benchmark's girth family scaled down: G(n, 3/10) with limit 4.
    for seed in range(4):
        g = random_graph(n, 0.3, seed)
        log = GenerationLog()
        cleaned = _clean_short_cycles(g, 4, log)
        assert (cleaned, log.removed_edges, log.cycles_found) == ref_clean_short_cycles(g, 4), (n, seed)


@pytest.mark.parametrize("seed", range(2))
def test_cleaning_matches_reference_at_limit_six(seed):
    # G(40, 3/20) has cycles of lengths 3 to 6 to remove, so the search runs
    # past the first-layer triangle test.
    g = random_graph(40, 0.15, seed)
    log = GenerationLog()
    cleaned = _clean_short_cycles(g, 6, log)
    assert (cleaned, log.removed_edges, log.cycles_found) == ref_clean_short_cycles(g, 6)
    assert girth_violation(g, 6) == ref_girth_violation(g, 6)


def test_prune_to_size_matches_reference_at_bench_size():
    # The girth family's peeling: a cleaned G(64, 3/10) down to 32 vertices.
    cleaned = _clean_short_cycles(random_graph(64, 0.3, 0), 4, GenerationLog())
    assert prune_to_size(cleaned, 32) == ref_prune_to_size(cleaned, 32)
