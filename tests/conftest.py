"""Shared independent oracles for the test suite.

These deliberately avoid the package's own search/measurement code paths:
distances come from Floyd-Warshall or networkx, cycle and cross-edge facts
from direct enumeration.
"""

from __future__ import annotations

import math
import random
import sys
from itertools import combinations

import networkx as nx
import pytest

from pathramsey import Graph

INF = math.inf


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def floyd_warshall(g: Graph) -> list[list[float]]:
    d = [[0 if i == j else INF for j in range(g.n)] for i in range(g.n)]
    for u, v in g.edges:
        d[u][v] = d[v][u] = 1
    for k in range(g.n):
        dk = d[k]
        for i in range(g.n):
            dik = d[i][k]
            if dik == INF:
                continue
            di = d[i]
            for j in range(g.n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return d


def oracle_girth(g: Graph) -> float:
    """Girth via networkx; inf when acyclic."""
    return nx.girth(to_nx(g))


def oracle_cross_edges(g: Graph, x, y) -> int:
    xs, ys = set(x), set(y)
    return sum(1 for u, v in g.edges if (u in xs and v in ys) or (u in ys and v in xs))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with left side 0..a-1 and right side a..a+b-1."""
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def random_graph_with_path(seed: int, n: int, extra: int) -> tuple[Graph, tuple[int, ...]]:
    """A graph guaranteed to contain a spanning path (returned), plus noise edges."""
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = set(zip(perm, perm[1:]))
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v))
    return Graph(n, edges), tuple(perm)


def has_k22(x: int, edge_set: set[tuple[int, int]]) -> bool:
    """Quadratic oracle: two right vertices sharing two left neighbours."""
    nbhd = [set() for _ in range(x)]
    for i, j in edge_set:
        nbhd[j].add(i)
    for j1, j2 in combinations(range(x), 2):
        if len(nbhd[j1] & nbhd[j2]) >= 2:
            return True
    return False


@pytest.fixture
def digit_limit():
    """The interpreter's default int-to-text limit, 4,300 digits, whatever the environment sets."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.fixture
def tmp_graph_file(tmp_path):
    def write(g: Graph, name: str = "g.edges"):
        from pathramsey import graph_to_text

        p = tmp_path / name
        p.write_text(graph_to_text(g))
        return str(p)

    return write
