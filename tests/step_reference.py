"""Reference implementations of the step path's colouring and cover kernels, kept for differential tests.

These are the versions the package must agree with exactly: the Held–Karp
path table filled over every mask of the vertex set, the monochromatic
clique search that checks adjacency in one pass and then rebuilds the
colour-class masks once per colour, on the recursive branch and bound
below, the blue biclique search that walks every combination of rich rows,
the colour-map validation that checks item by item, the colour-map check
that compares keys as a set, the recursive backtracking subgraph embedder,
and the recursive constrained long-path search.  ref_validate_aux_colouring
re-checks an auxiliary colouring's blue graph and witnesses against its host
colouring, with the biclique walk above.  ref_template_containment is the
template check that walks the edges of h^r three times: for containment,
for the distance bound and for the blue matchings.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from pathramsey import Graph
from pathramsey.errors import ConstructionError, ParameterError

from graph_reference import (
    ref_adjacency,
    ref_distances,
    ref_linear_template,
    ref_pattern_order,
    ref_power,
)


def ref_ham_path_table(masks: Sequence[int], n: int) -> list[int]:
    dp = [0] * (1 << n)
    for v in range(n):
        dp[1 << v] = 1 << v
    for mask in range(1, 1 << n):
        if mask & (mask - 1) == 0:
            continue
        ends = 0
        rest = mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            if dp[mask ^ low] & masks[v]:
                ends |= low
        dp[mask] = ends
    return dp


def ref_colour_map(host: Graph, s: int, colour_of: dict) -> dict:
    """The normalised colour map, raising at the first bad item."""
    if s < 1:
        raise ParameterError("colour count must be >= 1")
    normalised = {}
    for (u, v), c in colour_of.items():
        e = (u, v) if u < v else (v, u)
        if e not in host.edges:
            raise ParameterError(f"colouring mentions non-edge {e}")
        if not 1 <= c <= s:
            raise ParameterError(f"colour {c} outside 1..{s}")
        normalised[e] = c
    if len(normalised) != host.m:
        raise ParameterError("colouring must cover every edge exactly once")
    return normalised


def frozen_colour_map(host: Graph, s: int, colour_of: dict) -> dict:
    """EdgeColouring's map check as it was before keys in edge order skipped hashing.

    The keys are compared with the edge set as a set (after normalising
    when they differ), then the value types and the value range in three
    passes; any failure scans the items for the first bad one.
    """
    if s < 1:
        raise ParameterError("colour count must be >= 1")
    edges = host.edges
    if colour_of.keys() == edges:
        col = dict(colour_of)
    else:
        col = {((u, v) if u < v else (v, u)): c for (u, v), c in colour_of.items()}
        if len(col) != len(colour_of) or col.keys() != edges:
            _frozen_reject(edges, s, colour_of)
    if (not set(map(type, col.values())) <= {int}
            or (col and not 1 <= min(col.values()) <= max(col.values()) <= s)):
        _frozen_reject(edges, s, colour_of)
    return col


def _frozen_reject(edges, s: int, colour_of: dict) -> None:
    seen = set()
    for (u, v), c in colour_of.items():
        e = (u, v) if u < v else (v, u)
        if e not in edges:
            raise ParameterError(f"colouring mentions non-edge {e}")
        if e in seen:
            raise ParameterError(f"colouring gives edge {e} twice")
        if type(c) is not int:
            raise ParameterError(f"colour {c!r} of edge {e} is not an integer")
        if not 1 <= c <= s:
            raise ParameterError(f"colour {c} outside 1..{s}")
        seen.add(e)
    raise ParameterError("colouring must cover every edge exactly once")


def ref_max_clique_at_least(masks: Sequence[int], vertices: list[int], target: int) -> list[int] | None:
    """The recursive branch and bound the clique search ran before it moved onto the driver."""
    if target == 0:
        return []
    if target == 1:
        return [vertices[0]] if vertices else None

    best: list[int] | None = None

    def grow(clique: list[int], cand: int) -> bool:
        nonlocal best
        if len(clique) == target:
            best = list(clique)
            return True
        if len(clique) + cand.bit_count() < target:
            return False
        c = cand
        while c:
            low = c & -c
            v = low.bit_length() - 1
            c ^= low
            clique.append(v)
            if grow(clique, cand & masks[v] & ~((low << 1) - 1)):
                return True
            clique.pop()
        return False

    full = 0
    for v in vertices:
        full |= 1 << v
    if grow([], full):
        return best
    return None


def ref_find_blue_biclique(side_a: Sequence[int], side_b: Sequence[int], blue, k: int):
    """The blue biclique search as a walk over every combination of rich side_a entries."""
    need = 2 * k
    if need == 0:
        return (), ()
    if len(side_a) < need or len(side_b) < need:
        return None
    bmasks = {}
    for a in side_a:
        mask = 0
        for i, b in enumerate(side_b):
            if blue(a, b):
                mask |= 1 << i
        bmasks[a] = mask
    rich = [a for a in side_a if bmasks[a].bit_count() >= need]
    if len(rich) < need:
        return None
    full_b = (1 << len(side_b)) - 1
    for combo in combinations(rich, need):
        inter = full_b
        for a in combo:
            inter &= bmasks[a]
            if inter.bit_count() < need:
                break
        else:
            picked = [i for i in range(len(side_b)) if inter >> i & 1][:need]
            return tuple(combo), tuple(side_b[i] for i in picked)
    return None


def ref_validate_aux_colouring(aux, base: Graph) -> None:
    """Raise ConstructionError, naming the first problem, unless the stored
    witnesses sit exactly on the edges of aux.blue, every blue edge is an edge
    of base, the derived graph aux colours, whose witness is an all-blue
    2k-by-2k biclique between its edge's subcliques, and no grey edge (a base
    edge off aux.blue) admits one."""
    host, chi = aux.chi.host, aux.chi

    def blue(a: int, b: int) -> bool:
        return host.has_edge(a, b) and chi.colour(a, b) == aux.blue_colour

    if aux.blue.n != base.n:
        raise ConstructionError("blue graph and base graph differ in order")
    for e in sorted(aux.witnesses):
        if not aux.blue.has_edge(*e):
            raise ConstructionError(f"witness stored for non-blue edge {e}")
    for (u, v) in sorted(aux.blue.edges):
        if not base.has_edge(u, v):
            raise ConstructionError(f"blue edge ({u},{v}) is not a base edge")
        if (u, v) not in aux.witnesses:
            raise ConstructionError(f"blue edge ({u},{v}) has no witness")
        wa, wb = aux.witnesses[(u, v)]
        if len(wa) != 2 * aux.k or len(wb) != 2 * aux.k:
            raise ConstructionError("witness sides have wrong size")
        if not set(wa) <= set(aux.subcliques[u]) or not set(wb) <= set(aux.subcliques[v]):
            raise ConstructionError(f"witness for ({u},{v}) leaves its subcliques")
        for a in wa:
            for b in wb:
                if not blue(a, b):
                    raise ConstructionError(f"witness pair ({a},{b}) is not a blue host edge")
    for (u, v) in sorted(base.edges):
        if not aux.blue.has_edge(u, v):
            if ref_find_blue_biclique(aux.subcliques[u], aux.subcliques[v], blue, aux.k) is not None:
                raise ConstructionError(f"grey edge ({u},{v}) admits a blue biclique")


def ref_mono_clique_in_clique(colouring, clique: Sequence[int], target: int):
    verts = list(clique)
    if target > len(verts):
        raise ParameterError("target exceeds the clique size")
    for a, b in combinations(verts, 2):
        if not colouring.host.has_edge(a, b):
            raise ParameterError(f"input vertices are not a clique: ({a},{b}) missing")
    index = {v: i for i, v in enumerate(verts)}
    for c in range(1, colouring.s + 1):
        masks = [0] * len(verts)
        for a, b in combinations(verts, 2):
            if colouring.colour(a, b) == c:
                masks[index[a]] |= 1 << index[b]
                masks[index[b]] |= 1 << index[a]
        found = ref_max_clique_at_least(masks, list(range(len(verts))), target)
        if found is not None:
            return c, tuple(sorted(verts[i] for i in found))
    return None


def ref_embed_masks(host_n: int, host_masks: Sequence[int], pattern: Graph):
    order = ref_pattern_order(pattern)
    adj = ref_adjacency(pattern)
    host_deg = [m.bit_count() for m in host_masks]
    pat_deg = [len(a) for a in adj]
    pos_of = {v: i for i, v in enumerate(order)}
    back = []
    for i, v in enumerate(order):
        back.append([w for w in adj[v] if pos_of[w] < i])
    assignment = {}
    used = 0

    def extend(i: int) -> bool:
        nonlocal used
        if i == len(order):
            return True
        v = order[i]
        if back[i]:
            cand = ~0
            for w in back[i]:
                cand &= host_masks[assignment[w]]
            cand &= ~used
        else:
            cand = ((1 << host_n) - 1) & ~used
        while cand:
            low = cand & -cand
            hv = low.bit_length() - 1
            cand ^= low
            if host_deg[hv] < pat_deg[v]:
                continue
            assignment[v] = hv
            used |= 1 << hv
            if extend(i + 1):
                return True
            used &= ~(1 << hv)
            del assignment[v]
        return False

    if extend(0):
        return tuple(assignment[v] for v in range(pattern.n))
    return None


def ref_long_path(g: Graph, parts, target_len: int, node_budget: int):
    """(True, path) for the first constrained path found, else (False, longest path seen).

    Every path entered costs one unit of node_budget, start vertices and
    complete paths included; the search stops at the first path it cannot
    pay for.
    """
    t = len(parts)
    part_sets = [sorted(set(p)) for p in parts]
    masks = g.adjacency_masks()
    part_masks = [sum(1 << v for v in p) for p in part_sets]
    best: list[int] = []
    entered = 0
    seen_states: set[tuple[int, int]] = set()

    class Spent(Exception):
        pass

    def dfs(path: list[int], used: int) -> bool:
        nonlocal entered, best
        if entered == node_budget:
            raise Spent
        entered += 1
        if len(path) > len(best):
            best = list(path)
        if len(path) == target_len:
            return True
        cand = masks[path[-1]] & part_masks[len(path) % t] & ~used
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            state = (v, used | low)
            if state in seen_states:
                continue
            path.append(v)
            if dfs(path, used | low):
                return True
            seen_states.add(state)
            path.pop()
        return False

    try:
        for start in part_sets[0]:
            stack = [start]
            if dfs(stack, 1 << start):
                return True, tuple(stack)
    except Spent:
        pass
    return False, tuple(best)


def ref_template_containment(h: Graph, r: int, t: int, segments, j: Graph, blue: Graph, base: Graph) -> tuple:
    """The template check's outcome as (contained, offending, grey_ok,
    grey_problem, template, distance_ok), on valid segment shapes.
    check_template_containment returns (template, distance_ok) when both
    flags hold, and otherwise raises, naming offending or grey_problem.

    Containment comes first over every segment and then every edge of h^r,
    and its first failure is the result.  Then the distance bound, over
    every edge again.  Then the grey checks, whose last problem is kept;
    each edge's blue cross pairs, when they form a matching, are extended
    to a perfect matching (free right positions ascending) and removed.
    """
    hr = ref_power(h, r)
    for i, seg in enumerate(segments):
        for a in range(t):
            for b in range(a + 1, t):
                if not j.has_edge(seg[a], seg[b]):
                    return False, ((i, i), (seg[a], seg[b])), False, None, None, False
    for i1, i2 in hr.sorted_edges():
        for x in segments[i1]:
            for y in segments[i2]:
                if not j.has_edge(x, y):
                    return False, ((i1, i2), (x, y)), False, None, None, False

    distance_ok = True
    for i1, i2 in hr.sorted_edges():
        m = int(ref_distances(h, i1)[i2]) + 1
        for x in segments[i1]:
            for y in segments[i2]:
                if ref_distances(base, x)[y] > (t - 1) * m + (m - 1):
                    distance_ok = False

    problem = None
    for i, seg in enumerate(segments):
        for a in range(t):
            for b in range(a + 1, t):
                if blue.has_edge(seg[a], seg[b]):
                    pair = (min(seg[a], seg[b]), max(seg[a], seg[b]))
                    problem = f"pair {pair} inside segment {i} is not grey"
    removed = {}
    for i1, i2 in hr.sorted_edges():
        pairs = [(a, b) for a, x in enumerate(segments[i1]) for b, y in enumerate(segments[i2])
                 if blue.has_edge(x, y)]
        if len({a for a, _ in pairs}) < len(pairs) or len({b for _, b in pairs}) < len(pairs):
            problem = f"non-grey pairs between segments {i1},{i2} exceed a matching"
            continue
        match = dict(pairs)
        free = [b for b in range(t) if b not in match.values()]
        removed[(i1, i2)] = {(a, match[a] if a in match else free.pop(0)) for a in range(t)}
    if problem is not None:
        return True, None, False, problem, None, distance_ok
    return True, None, True, None, ref_linear_template(hr, t, removed), distance_ok
