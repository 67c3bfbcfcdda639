"""Reference implementations of the neighbourhood readers and the blow-ups,
kept for differential tests, and the tests' one decoder of neighbour bitmasks.

mask_adjacency reads a Graph's neighbours and degrees from its bitmasks, the
one adjacency view the package keeps.  The references are the versions the
package code must agree with exactly: sorted neighbour tuples built from the
edge set, a queue-based breadth-first search per source for distances and
graph powers, max-degree peeling over a dict of neighbour sets, the greedy
pattern order that counts placed neighbours by scanning lists, and blow-ups
(the two constructors and the template that check_template_containment
linearises) that list every host edge and pass the list through the
checking Graph constructor.  ref_validate_blowup_map checks a blow-up map's
invariants directly, with set operations.
"""

from __future__ import annotations

import math
import random
from collections import deque

from pathramsey import BlowupMap, Graph, ParameterError
from pathramsey.errors import GraphFormatError


def mask_adjacency(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Each vertex's neighbours, ascending, decoded from g.adjacency_masks(); a degree is a length."""
    return tuple(tuple(i for i, bit in enumerate(bin(m)[:1:-1]) if bit == "1") for m in g.adjacency_masks())


def ref_adjacency(g: Graph) -> tuple[tuple[int, ...], ...]:
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(tuple(sorted(a)) for a in adj)


def ref_distances(g: Graph, source: int) -> list[float]:
    adj = ref_adjacency(g)
    dist: list[float] = [math.inf] * g.n
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        for w in adj[u]:
            if dist[w] == math.inf:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def ref_power(g: Graph, k: int) -> Graph:
    adj = ref_adjacency(g)
    edges = []
    for s in range(g.n):
        dist = [-1] * g.n
        dist[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            if dist[u] == k:
                continue
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    if w > s:
                        edges.append((s, w))
                    q.append(w)
    return Graph(g.n, edges)


def ref_prune_to_size(g: Graph, keep: int) -> tuple[Graph, tuple[int, ...], list[int]]:
    alive = set(range(g.n))
    adj = {v: set(a) for v, a in enumerate(ref_adjacency(g))}
    removed: list[int] = []
    while len(alive) > keep:
        victim = max(alive, key=lambda v: (len(adj[v]), -v))
        alive.remove(victim)
        for w in adj[victim]:
            adj[w].discard(victim)
        adj.pop(victim)
        removed.append(victim)
    kept = tuple(sorted(alive))
    index = {v: i for i, v in enumerate(kept)}
    edges = [(index[u], index[v]) for u in kept for v in adj[u] if u < v]
    return Graph(len(kept), edges), kept, removed


def ref_pattern_order(pattern: Graph) -> list[int]:
    if pattern.n == 0:
        return []
    adj = ref_adjacency(pattern)
    placed: list[int] = []
    seen = set()
    remaining = set(range(pattern.n))
    while remaining:
        best = max(
            remaining,
            key=lambda v: (len([w for w in adj[v] if w in seen]), len(adj[v]), -v),
        )
        placed.append(best)
        seen.add(best)
        remaining.remove(best)
    return placed


def ref_complete_blowup(h: Graph, t: int) -> tuple[Graph, BlowupMap]:
    if t < 1:
        raise ParameterError("clique size t must be >= 1")
    edges = []
    cliques = tuple(tuple(v * t + i for i in range(t)) for v in range(h.n))
    for cl in cliques:
        edges.extend((cl[i], cl[j]) for i in range(t) for j in range(i + 1, t))
    for u, v in h.edges:
        edges.extend((a, b) for a in cliques[u] for b in cliques[v])
    return Graph(h.n * t, edges), BlowupMap(h, t, cliques)


def ref_sheared_blowup(h: Graph, t: int, seed: int | None = None) -> tuple[Graph, BlowupMap, dict]:
    """The host, its map and, per base edge, the removed pairs as a set."""
    if t < 1:
        raise ParameterError("clique size t must be >= 1")
    cliques = tuple(tuple(v * t + i for i in range(t)) for v in range(h.n))
    edges = []
    for cl in cliques:
        edges.extend((cl[i], cl[j]) for i in range(t) for j in range(i + 1, t))
    removed, perms = {}, []
    for u, v in sorted(h.edges):
        if seed is None:
            perm = list(range(t))
        else:
            rng = random.Random((seed * 1_000_003 + u) * 1_000_003 + v)
            perm = list(range(t))
            rng.shuffle(perm)
        perms.append(tuple(perm))
        partner = [cliques[v][j] for j in perm]
        removed[(u, v)] = frozenset((a, b) if a < b else (b, a) for a, b in zip(cliques[u], partner))
        for a, skip in zip(cliques[u], partner):
            edges.extend((a, b) for b in cliques[v] if b != skip)
    rule = "aligned" if seed is None else f"seeded:{seed}"
    return Graph(h.n * t, edges), BlowupMap(h, t, cliques, tuple(perms), rule), removed


def removed_pairs(bmap: BlowupMap) -> dict[tuple[int, int], frozenset[tuple[int, int]]]:
    """Per base edge (u, v), in base.edges order, the host pairs its matching removed."""
    t = bmap.t
    return {(u, v): frozenset((u * t + i, v * t + j) for i, j in enumerate(perm))
            for (u, v), perm in zip(bmap.base.edges, bmap.matchings)}


def ref_validate_blowup_map(bmap: BlowupMap) -> None:
    """Raise GraphFormatError unless the cliques partition the host's vertices into
    blocks of t and a sheared blow-up's removed matchings, one per base edge, are
    each perfect between their edge's two cliques."""
    seen: set[int] = set()
    for v, cl in enumerate(bmap.clique_of):
        if len(cl) != bmap.t:
            raise GraphFormatError(f"clique of base vertex {v} has size {len(cl)}")
        if seen & set(cl):
            raise GraphFormatError("cliques overlap")
        seen |= set(cl)
    if seen != set(range(bmap.base.n * bmap.t)):
        raise GraphFormatError("cliques do not partition the host vertex set")
    if bmap.matchings and len(bmap.matchings) != bmap.base.m:
        raise GraphFormatError("removed matchings do not match the base edges one to one")
    for (u, v), matching in removed_pairs(bmap).items():
        left = {a for a, _ in matching} | {b for _, b in matching}
        cu, cv = set(bmap.clique_of[u]), set(bmap.clique_of[v])
        if len(matching) != bmap.t or left != cu | cv:
            raise GraphFormatError(f"removed pairs for base edge ({u},{v}) are not a perfect matching")
        for a, b in matching:
            if not ((a in cu and b in cv) or (a in cv and b in cu)):
                raise GraphFormatError(f"removed pair ({a},{b}) crosses the wrong cliques")


def ref_linear_template(hr: Graph, t: int, removed: dict[tuple[int, int], set[tuple[int, int]]]) -> Graph:
    """check_template_containment's template: removed maps each edge of hr to its
    matching as (position in segment i1, position in segment i2) pairs."""
    edges = []
    for i in range(hr.n):
        edges.extend((i * t + a, i * t + b) for a in range(t) for b in range(a + 1, t))
    for i1, i2 in hr.sorted_edges():
        gone = removed.get((i1, i2), set())
        for a in range(t):
            for b in range(t):
                if (a, b) not in gone:
                    edges.append((i1 * t + a, i2 * t + b))
    return Graph(hr.n * t, edges)
