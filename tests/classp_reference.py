"""Reference implementations of the class-P kernels, kept for differential tests.

These are the straightforward versions the package's branch-and-bound pair
kernel, the checks built on it and resumable bitmask girth cleaning must agree
with exactly: every ordered pair enumerated and half dropped, a count or a
Fraction per pair, and a fresh per-edge parent-pointer BFS after every removal.
ref_bisection_records is the earlier, looser branch and bound for n = 2k,
frozen so the package's kernel can be compared with it on graphs too large
to enumerate.  ref_sample_disjoint_pairs draws sampled pairs with
random.Random.sample, and ref_cycle_path is the queue-based short-cycle BFS
the package's layered one must trace the same path as.
"""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction
from itertools import combinations

from pathramsey import DensityCertificate, Graph
from pathramsey.pseudorandom import EdgeBoostReport, disjoint_pair_count

from graph_reference import mask_adjacency


def ref_iter_disjoint_pairs(n: int, k: int):
    for xs in combinations(range(n), k):
        x = sum(1 << v for v in xs)
        rest = [v for v in range(n) if not (x >> v) & 1]
        for ys in combinations(rest, k):
            y = sum(1 << v for v in ys)
            if x < y:
                yield x, y


def ref_sample_disjoint_pairs(n: int, k: int, count: int, seed: int):
    """count seeded pairs (x, y): each the first k and the last k of rng.sample(range(n), 2k)."""
    rng = random.Random(seed)
    vertices = list(range(n))
    for _ in range(count):
        chosen = rng.sample(vertices, 2 * k)
        x = sum(1 << v for v in chosen[:k])
        y = sum(1 << v for v in chosen[k:])
        yield x, y


def ref_mask_vertices(mask: int) -> list[int]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


def ref_cross_count(masks, x: int, y: int) -> int:
    return sum((masks[v] & y).bit_count() for v in ref_mask_vertices(x))


def ref_counted_pairs(g: Graph, k: int, pairs=None) -> list[tuple[int, int, int]]:
    """(x, y, e(x, y)) for every pair of the family (or of `pairs`), in enumeration order."""
    masks = g.adjacency_masks()
    counted, last = [], None
    for x, y in ref_iter_disjoint_pairs(g.n, k) if pairs is None else pairs:
        if x != last:
            last, xs = x, ref_mask_vertices(x)
        counted.append((x, y, sum((masks[v] & y).bit_count() for v in xs)))
    return counted


def ref_records(counted, least: int, greatest: int) -> list[tuple[int, int, int]]:
    """The pairs whose count leaves the window, widening it to take each in."""
    out = []
    for x, y, e in counted:
        if e < least or e > greatest:
            out.append((x, y, e))
            least, greatest = min(least, e), max(greatest, e)
    return out


def ref_bisection_records(masks, k: int, least: int, greatest: int):
    """The record pairs for n = 2k, by the branch and bound with popcount gains.

    At a node, moving a set S of r undecided vertices into x adds the sum of
    gain(u) over S plus e(S, U - S), bounded below by 0 and above by
    min(edges inside U, r * (|U| - r)).
    """
    n = len(masks)
    assert n == 2 * k and k >= 1
    last = n - 1
    full = (1 << n) - 1
    deg = [m.bit_count() for m in masks]
    inside = [0] * (n + 1)
    for i in range(n - 3, -1, -1):
        inside[i] = inside[i + 1] + (masks[i] & (1 << last) - (2 << i)).bit_count()

    def bisections(x, cut, i, r, low, high):
        nonlocal least, greatest
        for v in range(i, n - r):
            xv = x | 1 << v
            cv = cut + deg[v] - 2 * (masks[v] & x).bit_count()
            if r == 1:
                if cv < least or cv > greatest:
                    yield xv, full ^ xv, cv
                    least, greatest = min(least, cv), max(greatest, cv)
                continue
            rest = r - 1
            undecided = (1 << last) - (2 << v)
            yv = full ^ xv ^ undecided
            gains = sorted([(m & yv).bit_count() - (m & xv).bit_count() for m in masks[v + 1:last]])
            lo = max(low, cv + sum(gains[:rest]))
            hi = min(high, cv + sum(gains[-rest:])
                     + min(inside[v + 1], rest * (len(gains) - rest)))
            if lo < least or hi > greatest:
                yield from bisections(xv, cv, v + 1, rest, lo, hi)

    yield from bisections(0, 0, 0, k, 0, k * k)


def ref_check_expansion(g: Graph, k: int):
    for x, y, e in ref_counted_pairs(g, k):
        if e == 0:
            return x, y
    return None


def ref_count_certificate_ok(g: Graph, k: int, target: Fraction, slack: Fraction):
    """The exhaustive branch of the generator's pair-count check."""
    if disjoint_pair_count(g.n, k) == 0:
        return True, None, "vacuous"
    lo, hi = math.ceil((1 - slack) * target), math.floor((1 + slack) * target)
    for x, y, e in ref_counted_pairs(g, k):
        if not lo <= e <= hi:
            return False, (tuple(ref_mask_vertices(x)), tuple(ref_mask_vertices(y)), e), "exhaustive"
    return True, None, "exhaustive"


def ref_verify_edgeboost(g: Graph, alpha_n: int, beta_n: int, mu_n: int) -> EdgeBoostReport:
    bound = Fraction(beta_n ** 2, 2 * mu_n)
    for x, y, e in ref_counted_pairs(g, mu_n):
        if e == 0:
            witness = (tuple(ref_mask_vertices(x)), tuple(ref_mask_vertices(y)))
            return EdgeBoostReport(witness, bound, None)
    min_cross = min((e for _, _, e in ref_counted_pairs(g, beta_n)), default=None)
    return EdgeBoostReport(None, bound, min_cross)


def ref_fit_density_certificate(
    g: Graph, set_size: int, tolerance: Fraction, mode: str = "auto",
    sample_count: int = 300, seed: int = 0, pair_budget: int = 200_000,
) -> DensityCertificate:
    total = disjoint_pair_count(g.n, set_size)
    if total == 0:
        return DensityCertificate(
            f_ref=Fraction(1), mode="vacuous", tolerance=tolerance, max_rel_dev=Fraction(0),
            passed=True, pairs_checked=0,
        )
    if mode == "auto":
        mode = "exhaustive" if total <= pair_budget else "sampled"
    if mode == "exhaustive":
        pairs = ref_iter_disjoint_pairs(g.n, set_size)
        used_samples = used_seed = None
    else:
        pairs = ref_sample_disjoint_pairs(g.n, set_size, sample_count, seed)
        used_samples, used_seed = sample_count, seed

    masks = g.adjacency_masks()
    denom = set_size * set_size
    densities = [(Fraction(ref_cross_count(masks, x, y), denom), x, y) for x, y in pairs]
    checked = len(densities)
    mean = sum((d for d, _, _ in densities), Fraction(0)) / checked
    lo = max(d / (1 + tolerance) for d, _, _ in densities)
    hi = min(d / (1 - tolerance) for d, _, _ in densities)

    def rel_dev(f):
        worst = Fraction(0)
        wpair = (densities[0][1], densities[0][2])
        for d, x, y in densities:
            dev = abs(d / f - 1)
            if dev > worst:
                worst, wpair = dev, (x, y)
        return worst, wpair

    if mean > 0:
        dev_mean, worst_mean = rel_dev(mean)
    else:
        dev_mean, worst_mean = None, (densities[0][1], densities[0][2])
    if dev_mean is not None and dev_mean <= tolerance:
        f, dev, wpair, passed = mean, dev_mean, worst_mean, True
    elif lo <= hi and hi > 0:
        f = (lo + hi) / 2
        dev, wpair = rel_dev(f)
        passed = dev <= tolerance
    else:
        f = mean
        dev, wpair = (dev_mean, worst_mean) if dev_mean is not None else (None, worst_mean)
        passed = False
    return DensityCertificate(
        f_ref=f, mode=mode, tolerance=tolerance, max_rel_dev=dev, passed=passed,
        pairs_checked=checked, sample_count=used_samples, seed=used_seed,
        worst_pair=(tuple(ref_mask_vertices(wpair[0])), tuple(ref_mask_vertices(wpair[1]))),
        feasible_low=lo, feasible_high=hi, mean_density=mean,
    )


def ref_girth_violation(g: Graph, limit: int) -> list[int] | None:
    best: list[int] | None = None
    nbrs = mask_adjacency(g)
    for u, v in g.sorted_edges():
        dist = [-1] * g.n
        parent = [-1] * g.n
        dist[u] = 0
        q = deque([u])
        while q:
            x = q.popleft()
            if best is not None and dist[x] + 1 >= len(best):
                continue
            for w in nbrs[x]:
                if (x == u and w == v) or (x == v and w == u):
                    continue
                if dist[w] < 0:
                    dist[w] = dist[x] + 1
                    parent[w] = x
                    q.append(w)
        if dist[v] >= 0:
            cycle_len = dist[v] + 1
            if best is None or cycle_len < len(best):
                path = [v]
                while path[-1] != u:
                    path.append(parent[path[-1]])
                best = path
                if len(best) == 3:
                    break
    if best is not None and len(best) <= limit:
        return best
    return None


def ref_cycle_path(adj, u: int, v: int) -> list[int]:
    """[v, ..., u]: the BFS path from u to v in g - uv, one queue, first parent kept."""
    parent = [u] * len(adj)
    seen = adj[u] | 1 << u | 1 << v
    queue = deque(ref_mask_vertices(adj[u] & ~(1 << v)))
    while True:
        x = queue.popleft()
        if adj[x] >> v & 1:
            path = [v, x]
            while x != u:
                x = parent[x]
                path.append(x)
            return path
        fresh = adj[x] & ~seen
        seen |= fresh
        for w in ref_mask_vertices(fresh):
            parent[w] = x
            queue.append(w)


def ref_clean_short_cycles(g: Graph, limit: int) -> tuple[Graph, list[tuple[int, int]], int]:
    """(cleaned graph, removed edges in order, cycles found)."""
    removed: list[tuple[int, int]] = []
    if limit < 3:
        return g, removed, 0
    current = g
    while True:
        cyc = ref_girth_violation(current, limit)
        if cyc is None:
            return current, removed, len(removed)
        cycle_edges = sorted(tuple(sorted((cyc[i], cyc[(i + 1) % len(cyc)]))) for i in range(len(cyc)))
        adj = mask_adjacency(current)
        doomed = max(cycle_edges, key=lambda e: (len(adj[e[0]]) + len(adj[e[1]]), (-e[0], -e[1])))
        removed.append(doomed)
        current = Graph(current.n, current.edges - {doomed})
