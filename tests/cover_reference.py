"""Reference implementations of the cover search and the host build, kept for differential tests.

These are the versions the package's exhaustive and heuristic cover
searches, component grouping, Graph constructor and sheared blow-up must
agree with exactly: a submask walk at every budget, the support order sorted
on every call, two full passes over the supports (balanced splits first), a
heuristic that restarts up to 32 times and makes the same two passes over the
cuts of its last path, a recursive packing of components into groups, edges
collected into a set and copied into a frozenset, and the removed matching
tested pair by pair.
"""

from __future__ import annotations

import random

from pathramsey import Graph, PartitionResult
from pathramsey.errors import GraphFormatError, ParameterError
from pathramsey.partition import _blue_components

from step_reference import ref_ham_path_table


def ref_mask_vertices(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def ref_group_components(comps: list[int], classes: int, exact: bool = False) -> list[int] | None:
    total = sum(c.bit_count() for c in comps)
    if total == 0:
        return [0] * classes
    sizes = sorted(((c.bit_count(), c) for c in comps), reverse=True)
    lowest = classes if exact else 1
    for m in range(classes, lowest - 1, -1):
        if total % m:
            continue
        q = total // m
        groups = [0] * m
        fill = [0] * m

        def place(i: int) -> bool:
            if i == len(sizes):
                return True
            size, comp = sizes[i]
            tried = set()
            for gi in range(m):
                if fill[gi] in tried:
                    continue
                tried.add(fill[gi])
                if fill[gi] + size <= q:
                    fill[gi] += size
                    groups[gi] |= comp
                    if place(i + 1):
                        return True
                    fill[gi] -= size
                    groups[gi] &= ~comp
            return False

        if place(0):
            return groups + [0] * (classes - m)
    return None


def ref_recover_path(dp: list[int], masks, mask: int) -> list[int]:
    """A path covering mask, built backwards from its lowest possible end, each step to the lowest neighbour that works."""
    path = [(dp[mask] & -dp[mask]).bit_length() - 1]
    while mask != 1 << path[-1]:
        v = path[-1]
        mask ^= 1 << v
        prev = dp[mask] & masks[v]
        path.append((prev & -prev).bit_length() - 1)
    return path[::-1]


def ref_cover_with_paths(dp, masks, mask: int, budget: int, memo: dict) -> list[int] | None:
    if mask == 0:
        return []
    if budget == 0:
        return None
    key = (mask, budget)
    if key in memo:
        return memo[key]
    low = mask & -mask
    sub = mask
    result = None
    while sub:
        if sub & low and dp[sub]:
            rest = ref_cover_with_paths(dp, masks, mask ^ sub, budget - 1, memo)
            if rest is not None:
                result = [sub] + rest
                break
        sub = (sub - 1) & mask
    memo[key] = result
    return result


def ref_partition_exhaustive(blue: Graph, ell: int) -> PartitionResult | None:
    n = blue.n
    masks = blue.adjacency_masks()
    dp = ref_ham_path_table(masks, n)
    full = (1 << n) - 1
    cover_memo: dict = {}
    order = sorted(range(full + 1), key=lambda m: (-m.bit_count(), m))
    for exact in (True, False):
        for pmask in order:
            pieces = ref_cover_with_paths(dp, masks, pmask, ell, cover_memo)
            if pieces is None:
                continue
            comps = _blue_components(masks, full ^ pmask)
            groups = ref_group_components(comps, ell + 1, exact=exact)
            if groups is None:
                continue
            paths = tuple(tuple(ref_recover_path(dp, masks, piece)) for piece in pieces)
            classes = tuple(tuple(ref_mask_vertices(gm)) for gm in groups)
            return PartitionResult(paths, classes)
    return None


def ref_grow_blue_path(masks, available: int, rng: random.Random) -> list[int]:
    """A random blue path in available: extend the end, else the front, else rotate (at most 2n times)."""
    avail_list = ref_mask_vertices(available)
    if not avail_list:
        return []
    live = [v for v in avail_list if masks[v] & available & ~(1 << v)]
    path = [rng.choice(live or avail_list)]
    used = 1 << path[0]
    budget = 2 * len(masks)
    while True:
        at, cand = len(path), masks[path[-1]] & available & ~used
        if not cand:
            at, cand = 0, masks[path[0]] & available & ~used
        if cand:
            v = rng.choice(ref_mask_vertices(cand))
            path.insert(at, v)
            used |= 1 << v
            continue
        if budget <= 0:
            return path
        budget -= 1
        end = path[-1]
        pivots = [i for i in range(len(path) - 2) if (masks[end] >> path[i]) & 1]
        if not pivots:
            return path
        i = rng.choice(pivots)
        path[i + 1:] = path[i + 1:][::-1]


REF_HEURISTIC_RESTARTS = 32


def ref_partition_heuristic(blue: Graph, ell: int, seed: int) -> PartitionResult | None:
    """The heuristic cover with its restart loop and its balanced-then-unbalanced passes over every cut."""
    masks = blue.adjacency_masks()
    full = (1 << blue.n) - 1
    for attempt in range(REF_HEURISTIC_RESTARTS):
        rng = random.Random(seed * 1_000_003 + attempt)
        available = full
        paths: list[list[int]] = []
        for _ in range(ell):
            if not available:
                break
            path = ref_grow_blue_path(masks, available, rng)
            paths.append(path)
            for v in path:
                available &= ~(1 << v)
        for exact in (True, False):
            for cut in range(len(paths[-1]) if paths else 0, -1, -1):
                trial_paths = [list(p) for p in paths]
                restored = 0
                if trial_paths:
                    for v in trial_paths[-1][cut:]:
                        restored |= 1 << v
                    trial_paths[-1] = trial_paths[-1][:cut]
                comps = _blue_components(masks, available | restored)
                groups = ref_group_components(comps, ell + 1, exact=exact)
                if groups is None:
                    continue
                return PartitionResult(
                    tuple(tuple(p) for p in trial_paths if p),
                    tuple(tuple(ref_mask_vertices(g)) for g in groups),
                )
    return None


def ref_graph_edges(n: int, edges) -> frozenset[tuple[int, int]]:
    """The edge set the Graph constructor stores, with its validation and messages."""
    if n < 0:
        raise ParameterError("vertex count must be non-negative")
    norm = set()
    for u, v in edges:
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u},{v}) out of range for n={n}")
        norm.add((u, v) if u < v else (v, u))
    return frozenset(norm)


def ref_sheared_blowup(h: Graph, t: int, seed: int | None = None):
    """(host edge set, removed matchings) of the sheared blow-up."""
    cliques = tuple(tuple(v * t + i for i in range(t)) for v in range(h.n))
    edges = []
    for cl in cliques:
        edges.extend((cl[i], cl[j]) for i in range(t) for j in range(i + 1, t))
    removed = {}
    for u, v in sorted(h.edges):
        perm = list(range(t))
        if seed is not None:
            random.Random((seed * 1_000_003 + u) * 1_000_003 + v).shuffle(perm)
        matched = frozenset(
            tuple(sorted((cliques[u][i], cliques[v][perm[i]]))) for i in range(t)
        )
        removed[(u, v)] = matched
        for a in cliques[u]:
            for b in cliques[v]:
                if tuple(sorted((a, b))) not in matched:
                    edges.append((a, b))
    return ref_graph_edges(h.n * t, edges), removed
