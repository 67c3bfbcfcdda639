"""Independent re-checks of the witnesses the workloads return.

Nothing here calls pathramsey.  Graphs arrive as plain edge sets and
colourings as dicts built by the benchmark itself, so a defect in a layer
under test cannot hide in the code that checks it.
"""

from __future__ import annotations

from collections import deque
from itertools import permutations


def norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def complete_edges(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def path_power_edges(n: int, k: int) -> set[tuple[int, int]]:
    return {(i, j) for i in range(n) for j in range(i + 1, min(n, i + k + 1))}


def embedding_problems(pattern_edges, mapping, host_edges, colour=None, allowed=None) -> list[str]:
    """Injectivity, edge preservation and, when given, the allowed colours of image edges."""
    if len(set(mapping)) != len(mapping):
        return ["mapping is not injective"]
    for u, v in sorted(pattern_edges):
        e = norm(mapping[u], mapping[v])
        if e not in host_edges:
            return [f"pattern edge {(u, v)} maps to non-edge {e}"]
        if allowed is not None and colour[e] not in allowed:
            return [f"pattern edge {(u, v)} maps to colour {colour[e]} outside {sorted(allowed)}"]
    return []


def max_degree(n: int, edges) -> int:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg, default=0)


def girth(n: int, edges) -> float:
    """Length of a shortest cycle (inf if none): a BFS from every vertex."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    best = float("inf")
    for root in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[root] = 0
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in nbrs[x]:
                if dist[y] < 0:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
                elif parent[x] != y:
                    best = min(best, dist[x] + dist[y] + 1)
    return best


def cross_count(edges, xs, ys) -> int:
    xs, ys = set(xs), set(ys)
    return sum(1 for u, v in edges if (u in xs and v in ys) or (u in ys and v in xs))


def contains_pattern(n: int, class_edges: set, pattern_edges, k: int) -> bool:
    """Brute force over injective maps of the k pattern vertices into range(n)."""
    return any(
        all(norm(image[a], image[b]) in class_edges for a, b in pattern_edges)
        for image in permutations(range(n), k)
    )


def avoids_pattern(n: int, colour: dict, s: int, pattern_edges, k: int) -> bool:
    """True when no colour class of the colouring contains the pattern."""
    for c in range(1, s + 1):
        if contains_pattern(n, {e for e, cc in colour.items() if cc == c}, pattern_edges, k):
            return False
    return True


def colouring_of_index(edges, s: int, x: int) -> dict:
    """Base-s digits of x over the sorted edge list, least significant first."""
    col = {}
    for e in edges:
        col[e] = x % s + 1
        x //= s
    return col


def index_of_colouring(edges, colour: dict, s: int) -> int:
    return sum((colour[e] - 1) * s ** j for j, e in enumerate(edges))


def lowest_counterexample(n: int, s: int, pattern_edges, k: int) -> int | None:
    """Smallest index of an s-colouring of K_n with no monochromatic pattern copy."""
    edges = complete_edges(n)
    for x in range(s ** len(edges)):
        if avoids_pattern(n, colouring_of_index(edges, s, x), s, pattern_edges, k):
            return x
    return None
