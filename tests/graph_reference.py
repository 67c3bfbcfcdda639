"""Reference implementations of the neighbourhood readers, kept for differential tests.

These are the versions the mask-based package code must agree with exactly:
sorted neighbour tuples built from the edge set, a queue-based breadth-first
search per source for distances and graph powers, max-degree peeling over a
dict of neighbour sets, and the greedy pattern order that counts placed
neighbours by scanning lists.
"""

from __future__ import annotations

import math
from collections import deque

from pathramsey import Graph


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
