"""The depth-first driver and the searches that run on it: the order they
visit and yield in, the interpreter stack they need, and the garbage they
leave for the cyclic collector."""

from __future__ import annotations

import gc
import random
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

from pathramsey import (
    BudgetExceededError, ClassPParams, EdgeColouring, GenerationConfig, NoPathFoundError,
    PipelineConfig, build_step_host, complete_graph, generate_class_p, induction_step,
    long_path_through_sets, mono_clique_in_clique, path_graph, quad, random_graph,
)
from pathramsey.colouring import _grow_clique, find_blue_biclique
from pathramsey.graphs import _depth_first
from pathramsey.partition import _group_components
from pathramsey.pseudorandom import _record_pairs, verify_edgeboost

from classp_reference import ref_bisection_records, ref_counted_pairs, ref_records


@contextmanager
def recursion_headroom(frames: int):
    """Lower the recursion limit to `frames` above the current depth, then restore it."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def garbage_left(call) -> int:
    """Objects one call leaves for the cyclic collector, after a warm-up call."""
    call()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def counted(search) -> tuple[list, int]:
    """The records a search generator yields, and the value it returns."""
    records = []
    while True:
        try:
            records.append(next(search))
        except StopIteration as stop:
            return records, stop.value


def _tree(rng: random.Random, depth: int) -> list:
    """A random search tree: a list of records (tuples) and subtrees (lists)."""
    return [
        (rng.random(),) if depth == 0 or rng.random() < 0.5 else _tree(rng, depth - 1)
        for _ in range(rng.randint(0, 4))
    ]


def test_driver_visits_like_the_recursive_search():
    # Each node logs when it starts and when it resumes after a child; the
    # driver must interleave those events and the records exactly as the
    # recursive search that delegates with `yield from` does.
    def run(tree, recursive: bool):
        log = []

        def node(sub, name):
            log.append(("enter", name))
            for i, item in enumerate(sub):
                if isinstance(item, tuple):
                    yield item
                    log.append(("record", name, item))
                else:
                    child = node(item, name + (i,))
                    yield from child if recursive else (child,)
                    log.append(("back", name, i))

        if recursive:
            return list(node(tree, ())), log
        records, entered = counted(_depth_first(node(tree, ())))
        # The driver counts the nodes it entered: every node but the root.
        assert entered == sum(event[0] == "enter" for event in log) - 1
        return records, log

    rng = random.Random(5)
    for _ in range(200):
        tree = _tree(rng, 6)
        assert run(tree, recursive=False) == run(tree, recursive=True)


def _search(sub):
    # A search node over a _tree: its records, and a child node per subtree.
    for item in sub:
        yield item if isinstance(item, tuple) else _search(item)


def _records_before_node(tree, budget: int) -> list:
    """The recursive search's records up to the child node numbered budget + 1."""
    records, entered = [], 0

    class Cut(Exception):
        pass

    def walk(sub):
        nonlocal entered
        for item in sub:
            if isinstance(item, tuple):
                records.append(item)
            elif entered == budget:
                raise Cut
            else:
                entered += 1
                walk(item)

    with pytest.raises(Cut):
        walk(tree)
    return records


def test_driver_stops_at_the_first_node_past_its_budget():
    rng = random.Random(5)
    cut = 0
    for _ in range(200):
        tree = _tree(rng, 6)
        records, nodes = counted(_depth_first(_search(tree)))
        assert counted(_depth_first(_search(tree), nodes)) == (records, nodes)
        for budget in range(nodes):
            got = []
            with pytest.raises(BudgetExceededError):
                for record in _depth_first(_search(tree), budget):
                    got.append(record)
            assert got == _records_before_node(tree, budget)
            cut += 1
    assert cut >= 500


def test_driver_runs_a_search_deeper_than_the_recursion_limit():
    def chain(depth):
        if depth:
            yield chain(depth - 1)
        yield (depth,)

    with recursion_headroom(60):
        assert list(_depth_first(chain(5000))) == [(d,) for d in range(5001)]


@pytest.mark.parametrize("n, k", [(400, 200), (401, 150)])
def test_pair_search_on_a_long_path_needs_no_deep_stack(n, k):
    # Both branches choose k vertices one search node each; the first pair
    # with a cross edge comes at the end of a branch k nodes deep.
    masks = path_graph(n).adjacency_masks()
    with recursion_headroom(60):
        x, y, e = next(_record_pairs(masks, k, 0, 0))
    assert (x, e) == ((1 << k) - 1, 1)
    assert y & x == 0 and y.bit_count() == k


def test_edgeboost_on_k200_needs_no_deep_stack():
    g = complete_graph(200)
    with recursion_headroom(60):
        report = verify_edgeboost(g, 200, 100, 1)
    assert report.hypothesis_witness is None and report.min_cross >= report.bound
    assert report.min_cross == 100 * 100


@pytest.mark.parametrize("n, k, window", [(13, 3, (3, 5)), (16, 8, (33, -1))], ids=["n>2k", "n=2k"])
def test_pair_search_leaves_no_cyclic_garbage(n, k, window):
    # The search functions refer to themselves; whether the search runs out
    # or is dropped after its first record, the finally clause breaks those
    # cycles, so the call's state is freed by reference counting alone.
    g = random_graph(n, 0.3, 1)
    masks = g.adjacency_masks()
    if 2 * k < n:
        want = ref_records(ref_counted_pairs(g, k), *window)
    else:
        want = list(ref_bisection_records(masks, k, *window))
    assert len(want) >= 2
    assert list(_record_pairs(masks, k, *window)) == want
    assert garbage_left(lambda: list(_record_pairs(masks, k, *window))) == 0
    assert garbage_left(lambda: next(_record_pairs(masks, k, *window), None)) == 0


def test_component_packing_leaves_no_cyclic_garbage():
    # Sizes 4, 3, 3, 2, 2, 2 into 2 groups of 8: the search backtracks
    # before it finds 4 + 2 + 2 and 3 + 3 + 2.
    comps = [0b1111, 0b111 << 4, 0b111 << 7, 0b11 << 10, 0b11 << 12, 0b11 << 14]
    groups = _group_components(comps, 2, exact=True)
    assert sorted(c.bit_count() for c in groups) == [8, 8]
    assert garbage_left(lambda: _group_components(comps, 2, exact=True)) == 0
    assert garbage_left(lambda: _group_components(comps, 5, exact=True)) == 0  # no packing


def test_long_path_leaves_no_cyclic_garbage():
    g = random_graph(14, 0.4, 3)
    assert long_path_through_sets(g, [range(14)], 8)
    with pytest.raises(NoPathFoundError):
        long_path_through_sets(g, [range(14)], 15)

    def fails():
        try:
            long_path_through_sets(g, [range(14)], 15)
        except NoPathFoundError:
            pass

    assert garbage_left(lambda: long_path_through_sets(g, [range(14)], 8)) == 0
    assert garbage_left(fails) == 0


def test_long_path_that_spends_its_budget_leaves_no_cyclic_garbage():
    # The driver raises inside the walk; the suspended nodes it drops, and the
    # exception that unwound them, must go by reference counting alone.
    g = random_graph(14, 0.4, 3)
    with pytest.raises(NoPathFoundError) as exc:
        long_path_through_sets(g, [range(14)], 15, node_budget=20)
    with pytest.raises(NoPathFoundError) as full:
        long_path_through_sets(g, [range(14)], 15)
    assert len(exc.value.longest) < len(full.value.longest)  # the budget cut the walk short

    def spends():
        try:
            long_path_through_sets(g, [range(14)], 15, node_budget=20)
        except NoPathFoundError:
            pass

    assert garbage_left(spends) == 0


def test_pair_search_on_a_girth_member_caps_its_bound_at_m():
    # A benchmark `girth` member: an = 32, k = 16, 16 edges.  Its cut range is
    # [0, m], so once the window has widened to it no subtree can beat it.  An
    # upper bound started at k^2 = 256 instead of m spends 30,908 nodes (about
    # 1 s) proving that no bisection cuts more than 16 edges.
    params = ClassPParams(quad(1, 64, "1/2", "4/5"), t=2, n=32)
    g, _, _ = generate_class_p(params, GenerationConfig(p=Fraction(3, 10), seed=0))
    assert (g.n, g.m) == (32, 16)
    records, nodes = counted(_record_pairs(g.adjacency_masks(), 16, 257, -1))
    assert len(records) == 17
    assert (min(e for _, _, e in records), max(e for _, _, e in records)) == (0, 16)
    assert nodes == 71


def test_clique_search_on_a_constant_k80_needs_no_deep_stack():
    chi = EdgeColouring.constant(complete_graph(80), 2, 1)
    with recursion_headroom(60):
        assert mono_clique_in_clique(chi, range(80), 80) == (1, tuple(range(80)))


def test_step_with_an_80_vertex_clique_target_needs_no_deep_stack():
    # The step of `pathramsey step` on one base vertex whose clique is the
    # target: the clique search runs 80 nodes deep before the blue path of one
    # derived vertex promotes to a blue power.
    cfg = PipelineConfig(k=1, s=2, r=1, t=2, n=1, clique_size=80, mono_target=80,
                         out_quad=quad(1, 64, "1/2", "4/5"), in_quad=quad(1, 1000, "1/2", "4/5"),
                         seed=11)
    g = path_graph(1)
    host, bmap = build_step_host(g, cfg)
    chi = EdgeColouring.constant(host, 2, 1)
    with recursion_headroom(60):
        outcome = induction_step(g, host, bmap, chi, cfg)
    assert outcome.kind == "monoPowerFound"
    assert outcome.embedding.mapping == (0, 1)


def test_clique_and_biclique_searches_leave_no_cyclic_garbage():
    masks = random_graph(14, 0.6, 2).adjacency_masks()

    def first_clique(target):  # the search mono_clique_in_clique runs per colour
        return next(_depth_first(_grow_clique(masks, target, (), (1 << 14) - 1)), None)

    assert first_clique(4) is not None and first_clique(14) is None
    rows = random_graph(20, 0.5, 4).adjacency_masks()
    assert find_blue_biclique(rows, 2) is not None and find_blue_biclique(rows, 6) is None
    assert garbage_left(lambda: first_clique(4)) == 0
    assert garbage_left(lambda: first_clique(14)) == 0
    assert garbage_left(lambda: find_blue_biclique(rows, 2)) == 0
    assert garbage_left(lambda: find_blue_biclique(rows, 6)) == 0
