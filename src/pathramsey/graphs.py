"""Immutable simple graphs plus the constructors and measurements everything else builds on.

Vertices are the integers 0..n-1.  Edges are unordered pairs stored as sorted
tuples, and a graph's edge set iterates in lexicographic order.  Graph values
never mutate after construction, so they are safe to share across threads and
safe to use as dict keys.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import accumulate, chain, combinations, compress, islice, product
from typing import Generator, Iterable, Iterator, Sequence

from .errors import BudgetExceededError, GraphFormatError, ParameterError

Edge = tuple[int, int]

INF = math.inf


def _checked_edges(n: int, edges: Iterable[tuple[int, int]]) -> Iterable[Edge]:
    """The edges as sorted pairs, raising at the first self-loop or out-of-range end."""
    for u, v in edges:
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u},{v}) out of range for n={n}")
        yield (u, v) if u < v else (v, u)


class _EdgeSet(frozenset):
    """A frozenset of edges that iterates the sorted list kept beside it.

    Set algebra (`|`, `-`, `set(...)`) returns plain frozensets or sets,
    whose order is undefined.
    """

    __slots__ = ("_order",)

    def __new__(cls, order: list[Edge]) -> "_EdgeSet":  # order is kept, not copied
        self = super().__new__(cls, order)
        self._order = order
        return self

    def __iter__(self) -> Iterator[Edge]:
        return iter(self._order)


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Invariants: no self-loops, no duplicate edges, adjacency symmetric,
    edge count equals half the degree sum.  `edges` is a frozenset that
    iterates in lexicographic order, so walking it needs no sort.

    The edge set is the only state built up front.  Its one derived view,
    the neighbour bitmasks (`adjacency_masks`), is built on first use and
    kept; neighbours and degrees are read from it.  A large host that is only
    ever queried edge by edge never pays for it.

    The constructor checks, sorts and deduplicates every edge; on sorted input
    the sort is one linear pass.  The builders in this module whose pairs are
    distinct, in range and already in order (`_edge_subset` among them) skip it through `_from_edge_set`.
    """

    __slots__ = ("n", "edges", "_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ParameterError("vertex count must be non-negative")
        self.n = n
        pairs = sorted(_checked_edges(n, edges))
        self.edges = _EdgeSet(pairs)
        if len(self.edges) < len(pairs):  # a pair given twice: keep one copy in the order
            self.edges = _EdgeSet(list(dict.fromkeys(pairs)))
        self._masks: tuple[int, ...] | None = None

    @classmethod
    def _from_edge_set(cls, n: int, edges: list[Edge]) -> "Graph":
        """Adopt edges unchecked; the caller guarantees distinct pairs u < v < n, in lexicographic order."""
        if n < 0:
            raise ParameterError("vertex count must be non-negative")
        g = cls.__new__(cls)
        g.n, g.edges, g._masks = n, _EdgeSet(edges), None
        return g

    # -- basic queries ----------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    @property
    def m(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[Edge]:
        """Edges in lexicographic order; the canonical order used by colourings."""
        return list(self.edges)

    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbour bitmask; computed once, cached."""
        if self._masks is None:
            masks = [0] * self.n
            for u, v in self.edges:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            self._masks = tuple(masks)
        return self._masks

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# -- constructors ---------------------------------------------------------


def _edge_subset(g: Graph, keep: Iterable) -> Graph:
    """The graph on g's vertices with the edges whose selector in keep, read in g.edges order, is true."""
    return Graph._from_edge_set(g.n, list(compress(g.edges, keep)))


def path_graph(n: int) -> Graph:
    return Graph._from_edge_set(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ParameterError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph._from_edge_set(n, list(combinations(range(n), 2)))


def _seed(seed: int, *index: int) -> int:
    """The seed of sub-stream (seed, *index): each index in turn is folded in by one multiply-add."""
    for i in index:
        seed = seed * 1_000_003 + i
    return seed


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Binomial random graph: each of the C(n,2) pairs kept with probability p."""
    if not 0 <= p <= 1:
        raise ParameterError("edge probability must lie in [0,1]")
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph._from_edge_set(n, edges)


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by `vertices`, relabelled to 0..k-1 in sorted order.

    Returns (subgraph, ids) where ids[i] is the original id of new vertex i.
    """
    ids = tuple(sorted(set(vertices)))
    for v in ids:
        if v not in range(g.n):
            raise ParameterError(f"vertex {v} out of range for n={g.n}")
    index = {v: i for i, v in enumerate(ids)}  # ascending, so pairs stay in order
    edges = [
        (index[u], index[v]) for u, v in g.edges if u in index and v in index
    ]
    return Graph._from_edge_set(len(ids), edges), ids


# -- distances, powers ----------------------------------------------------


def _frontiers(adj: Sequence[int], frontier: int, seen: int) -> Iterator[int]:
    """Breadth-first layers as masks: frontier, then each layer it reaches outside seen.

    Every layer yielded joins seen, so no vertex comes out twice and the sum
    of the layers is their union; a caller fences the search into a vertex
    set by putting its complement in seen.  Each layer is computed only when
    asked for.
    """
    seen |= frontier
    while frontier:
        yield frontier
        reach = 0
        rest = frontier  # bits walked in place: no list per layer
        while rest:
            low = rest & -rest
            reach |= adj[low.bit_length() - 1]
            rest ^= low
        frontier = reach & ~seen
        seen |= frontier


def _depth_first(root: Iterator, budget: float = INF) -> Generator[tuple, None, int]:
    """The records of a depth-first search over generator nodes, on a stack, not by recursion.

    A node yields records (tuples), passed on in order, and child nodes, each
    searched to exhaustion before its parent resumes: the visits and records
    of the recursive search that writes `yield from child`, at any depth.
    Each child node entered costs one unit of budget; the search raises
    BudgetExceededError rather than enter one past it, else returns the count.
    """
    stack, entered = [root], 0
    while stack:
        for item in stack[-1]:
            if type(item) is tuple:
                yield item
            elif entered < budget:
                entered += 1
                stack.append(item)
                break
            else:
                raise BudgetExceededError(f"search budget of {budget} nodes spent")
        else:
            stack.pop()
    return entered


def distances(g: Graph, source: int) -> list[float]:
    """BFS distances from source; unreachable vertices get math.inf."""
    if not 0 <= source < g.n:
        raise ParameterError("source out of range")
    dist: list[float] = [INF] * g.n
    for d, layer in enumerate(_frontiers(g.adjacency_masks(), 1 << source, 0)):
        for v in _mask_vertices(layer):
            dist[v] = d
    return dist


def max_degree(g: Graph) -> int:
    return max((m.bit_count() for m in g.adjacency_masks()), default=0)


def power(g: Graph, k: int) -> Graph:
    """Graph on the same vertices joining pairs at distance between 1 and k.

    Vertices in different components are never joined, so k beyond the
    diameter yields a disjoint union of cliques (one per component).
    """
    if k < 1:
        raise ParameterError("power exponent must be >= 1")
    adj = g.adjacency_masks()
    edges: list[Edge] = []
    for s in range(g.n):
        ball = sum(islice(_frontiers(adj, 1 << s, 0), k + 1))
        edges.extend((s, w) for w in _mask_vertices(ball >> (s + 1) << (s + 1)))
    return Graph._from_edge_set(g.n, edges)


def path_power(n: int, k: int) -> Graph:
    """P_n^k: vertices 0..n-1 joined when their index distance is at most k."""
    if n < 1 or k < 1:
        raise ParameterError("need n >= 1 and k >= 1")
    return Graph._from_edge_set(n, [(i, j) for i in range(n) for j in range(i + 1, min(i + k, n - 1) + 1)])


# -- blow-ups -------------------------------------------------------------


@dataclass(frozen=True)
class BlowupMap:
    """Bookkeeping for a blow-up host: which host vertices realise each base vertex.

    Vertex i of clique v is host vertex v*t + i (clique_of[v][i]), so
    identities are stable across runs.  matchings is empty for a complete
    blow-up; for a sheared blow-up it holds, per base edge (u, v) in
    base.edges order, the permutation p whose pairs (u*t + i, v*t + p[i])
    were removed between the two cliques.
    """

    base: Graph
    t: int
    clique_of: tuple[tuple[int, ...], ...]
    matchings: tuple[tuple[int, ...], ...] = ()
    matching_rule: str = "none"


def _blowup(h: Graph, t: int, perms: list | None = None, rule: str = "none") -> tuple[Graph, BlowupMap]:
    """The complete blow-up of h, less one perfect matching per base edge if perms is given, and its map.

    Clique v is range(v*t, v*t + t).  Row a, the pairs (a, b) with b > a,
    is the rest of a's clique and then every higher adjacent clique, so the
    pairs come out distinct, in range and in order: the host adopts them
    unchecked.  The rows are the products of each clique with its targets
    (itself, then those cliques), compressed by one selector that drops each
    row's targets up to its own position, from C-level iterators with no
    Python loop per vertex.  perms[e], for the e-th base edge (u, v) in
    h.edges order, removes the pairs (u*t + i, v*t + perms[e][i]): one
    zeroed selector byte each; the map keeps perms under matching rule `rule`.
    """
    if t < 1:
        raise ParameterError("clique size t must be >= 1")
    cliques = [range(v * t, v * t + t) for v in range(h.n)]
    targets = [[clique] for clique in cliques]
    for u, v in h.edges:  # in order, so each list ascends
        targets[u].append(cliques[v])
    counts = list(map(len, targets))
    # per target clique count c, row i keeps the c*t targets after its own position i
    keep = {c: b"".join(bytes(i + 1) + b"\1" * (c * t - i - 1) for i in range(t)) for c in set(counts)}
    selector = b"".join(map(keep.get, counts))
    if perms is not None:
        selector = bytearray(selector)
        at = [t * t * c + t for c in accumulate(counts, initial=0)]  # clique u's next target block
        for (u, _), perm in zip(h.edges, perms):
            a, size = at[u], t * counts[u]
            at[u] = a + t
            for i, j in enumerate(perm):
                selector[a + i * size + j] = 0
    rows = compress(chain.from_iterable(map(product, cliques, map(chain.from_iterable, targets))), selector)
    host = Graph._from_edge_set(h.n * t, list(rows))
    return host, BlowupMap(h, t, tuple(map(tuple, cliques)), tuple(map(tuple, perms or ())), rule)


def complete_blowup(h: Graph, t: int) -> tuple[Graph, BlowupMap]:
    """Replace every vertex by a t-clique and every edge by a complete bipartite graph."""
    return _blowup(h, t)


def sheared_blowup(h: Graph, t: int, seed: int | None = None) -> tuple[Graph, BlowupMap]:
    """Complete blow-up with one perfect matching removed between adjacent cliques.

    The removed matching is not canonical: seed=None aligns i-th vertex with
    i-th vertex; an integer seed draws an independent random matching per base
    edge.  The choice is recorded in the returned BlowupMap.
    """
    perms = [list(range(t)) for _ in h.edges]
    if seed is not None:
        for (u, v), perm in zip(h.edges, perms):
            random.Random(_seed(seed, u, v)).shuffle(perm)
    return _blowup(h, t, perms, "aligned" if seed is None else f"seeded:{seed}")


# -- girth ---------------------------------------------------------------


def girth_violation(g: Graph, limit: int) -> list[int] | None:
    """A shortest cycle of length <= limit, or None if girth exceeds limit.

    The cycle lies on the first edge uv, in sorted-edge order, among those on
    a shortest cycle.  It is returned as [v, ..., u]: the first-parent u-v
    path in g - uv of the one breadth-first search from u, neighbours
    ascending, that also found the cycle's length.
    """
    if limit < 3:
        raise ParameterError("cycle length bound must be >= 3")
    found = _first_shortest_cycle(g.adjacency_masks(), g.sorted_edges(), 0, 3, limit)
    return None if found is None else found[1]


def _mask_vertices(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _first_shortest_cycle(
    adj: Sequence[int], edges: Sequence[Edge], start: int, shortest: int, longest: int
) -> tuple[int, list[int]] | None:
    """(index, path) of the first edge in edges[start:] on a cycle as short as any there.

    Only cycles of length at most `longest` count, and `shortest` is a known
    lower bound on their length, so the scan stops at the first edge reaching
    it; a triangle costs one AND and no search.  Edges no longer present in
    adj are skipped.  None when no edge from `start` on lies on a cycle of
    length <= longest.
    """
    best, cap = None, longest
    for i in range(start, len(edges)):
        u, v = edges[i]
        if not adj[u] >> v & 1:
            continue
        common = adj[u] & adj[v]
        if common:  # no cycle is shorter: stop here
            return i, [v, (common & -common).bit_length() - 1, u]
        path = _short_cycle(adj, u, v, cap) if cap > 3 else None
        if path is not None:
            best, cap = (i, path), len(path) - 1
            if len(path) <= shortest:
                break
    return best


def _short_cycle(adj: Sequence[int], u: int, v: int, cap: int) -> list[int] | None:
    """[v, ..., u]: the first-parent path of a shortest cycle through uv, or None if it is longer than cap.

    Breadth-first search from u in g - uv, neighbours ascending, each layer
    kept as (parent, fresh mask) chunks in queue order.  Each vertex x
    expanded is tested by one AND of N(x) with the neighbours of v not in a
    kept layer; one an earlier x reached would have hit there, so the first
    hit gives the length and the path at once.  The last layer is not kept.
    """
    first = adj[u] & ~(1 << v)
    hit = first & adj[v]
    if hit:
        return [v, (hit & -hit).bit_length() - 1, u]
    seen = first | 1 << u | 1 << v
    layers = [[(u, first)]]
    for length in range(4, cap + 1):
        near = adj[v] & ~seen
        reached = []
        for _, chunk in layers[-1]:
            while chunk:
                low = chunk & -chunk
                chunk ^= low
                x = low.bit_length() - 1
                hit = adj[x] & near
                if hit:
                    path = [v, (hit & -hit).bit_length() - 1, x]
                    for layer in reversed(layers):
                        x = next(p for p, fresh in layer if fresh >> x & 1)
                        path.append(x)
                    return path
                if length < cap:
                    fresh = adj[x] & ~seen
                    if fresh:
                        seen |= fresh
                        reached.append((x, fresh))
        if not reached:
            return None
        layers.append(reached)
    return None


# -- paths ---------------------------------------------------------------


def validate_path(g: Graph, vertices: Sequence[int], parts: Sequence[Iterable[int]] | None = None) -> None:
    """Raise unless vertices form a path of g; with parts given, position i must lie in parts[i mod t]."""
    for v in vertices:
        if not 0 <= v < g.n:
            raise GraphFormatError(f"path vertex {v} out of range for n={g.n}")
    if len(set(vertices)) != len(vertices):
        raise GraphFormatError("path repeats a vertex")
    for a, b in zip(vertices, vertices[1:]):
        if not g.has_edge(a, b):
            raise GraphFormatError(f"path step ({a},{b}) is not an edge")
    if parts is not None:
        part_sets = [set(p) for p in parts] or [set()]  # no part holds any vertex
        for i, v in enumerate(vertices):
            if v not in part_sets[i % len(part_sets)]:
                raise GraphFormatError(f"vertex {v} at position {i} is not in part {i % len(part_sets)}")


# -- edge-list text format -------------------------------------------------


def graph_to_text(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    """Parse a header 'n m' and m lines 'u v' with 0 <= u < v < n; lines end at "\n" alone."""
    header, *lines = text.split("\n")
    parts = header.split()
    if len(parts) != 2:
        raise GraphFormatError("expected header 'n m'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise GraphFormatError("header values must be integers") from exc
    edges: list[Edge] = []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: vertices must be integers") from exc
        if not 0 <= u < v < n:
            raise GraphFormatError(f"line {lineno}: requires 0 <= u < v < n")
        edges.append((u, v))
    if len(edges) != m:
        raise GraphFormatError(f"header promised {m} edges, found {len(edges)}")
    if len(set(edges)) != len(edges):
        raise GraphFormatError("duplicate edge in file")
    return Graph(n, edges)
