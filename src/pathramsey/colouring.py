"""Edge colourings and the colouring-side search machinery: monochromatic
cliques inside blown-up cliques, blue biclique witnesses, the biclique-free
edge bound, the blue/grey auxiliary colouring, blue-path-to-blue-power
promotion, subgraph search, and the brute-force arrow oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .embedding import Embedding, _validated
from .errors import (
    BudgetExceededError,
    ConstructionError,
    ParameterError,
    PreconditionError,
    _count_text,
)
from .graphs import Graph, _depth_first, _edge_subset, _mask_vertices, path_power

Edge = tuple[int, int]

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


class EdgeColouring:
    """Total map from the host's edges to colours 1..s."""

    __slots__ = ("host", "s", "_col")

    def __init__(self, host: Graph, s: int, colour_of: dict[Edge, int]):
        if s < 1:
            raise ParameterError("colour count must be >= 1")
        # Whole-map checks; on failure the item scan names the first bad item.
        # Keys in the host's edge order, as every builder here gives them, pass
        # one list comparison: item by item, with no hashing, and the host's
        # own tuples compare by identity.
        edges = host.edges
        if list(colour_of) == edges._order:
            col = dict(colour_of)
        else:
            col = {((u, v) if u < v else (v, u)): c for (u, v), c in colour_of.items()}
            if len(col) != len(colour_of) or col.keys() != edges:
                _reject_colour_map(edges, s, colour_of)
        # Types as well as values: 1.0 and True compare equal to 1.
        values = col.values()
        if not set(map(type, values)) <= {int} or not set(values) <= set(range(1, s + 1)):
            _reject_colour_map(edges, s, colour_of)
        self.host = host
        self.s = s
        self._col = col

    def colour(self, u: int, v: int) -> int:
        return self._col[(u, v) if u < v else (v, u)]

    def colour_subgraph(self, c: int) -> Graph:
        return _edge_subset(self.host, [self._col[e] == c for e in self.host.edges])

    @classmethod
    def constant(cls, host: Graph, s: int, colour: int) -> "EdgeColouring":
        return cls(host, s, {e: colour for e in host.edges})

    @classmethod
    def from_integer(cls, host: Graph, s: int, x: int) -> "EdgeColouring":
        """Base-s digits of x over the sorted edge list, least significant first."""
        col = {}
        for e in host.sorted_edges():
            col[e] = x % s + 1
            x //= s
        return cls(host, s, col)

    @classmethod
    def random(cls, host: Graph, s: int, seed: int) -> "EdgeColouring":
        rng = random.Random(seed)
        return cls(host, s, {e: rng.randint(1, s) for e in host.sorted_edges()})

    def to_string(self) -> str:
        """Base-s digit string over the sorted edge list: "s=<s>;m=<m>;<digits>"."""
        if self.s > len(_DIGITS):
            raise ParameterError(f"digit serialisation supports at most {len(_DIGITS)} colours")
        digits = "".join(_DIGITS[self._col[e] - 1] for e in self.host.sorted_edges())
        return f"s={self.s};m={self.host.m};{digits}"

    @classmethod
    def from_string(cls, host: Graph, text: str) -> "EdgeColouring":
        try:
            s_part, m_part, digits = text.split(";", 2)
            s = int(s_part.removeprefix("s="))
            m = int(m_part.removeprefix("m="))
        except ValueError as exc:
            raise ParameterError(f"malformed colouring string {text!r}") from exc
        if m != host.m or len(digits) != m:
            raise ParameterError(f"colouring string length {len(digits)} != host edge count {host.m}")
        col = {}
        for e, d in zip(host.sorted_edges(), digits):
            value = _DIGITS.find(d)
            if value < 0:
                raise ParameterError(f"bad colour digit {d!r}")
            col[e] = value + 1
        return cls(host, s, col)


def _reject_colour_map(edges: frozenset[Edge], s: int, colour_of: dict[Edge, int]) -> None:
    """Raise for the first item of a colour map that is not a total colouring of edges."""
    seen: set[Edge] = set()
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


# -- subgraph search -----------------------------------------------------------


def _prepare_pattern(pattern: Graph) -> tuple[list[int], list[list[int]], list[int]]:
    """What _embed_masks needs of a pattern: a connected-first greedy order,
    the pattern neighbours placed before each position, and each position's degree.

    The order always places the vertex with most placed neighbours, then the
    one of highest degree, then the lowest.
    """
    masks = pattern.adjacency_masks()
    full = (1 << pattern.n) - 1
    order: list[int] = []
    back: list[list[int]] = []
    placed = 0
    for _ in range(pattern.n):
        best = max(
            _mask_vertices(full & ~placed),
            key=lambda v: ((masks[v] & placed).bit_count(), masks[v].bit_count(), -v),
        )
        order.append(best)
        back.append(_mask_vertices(masks[best] & placed))
        placed |= 1 << best
    return order, back, [masks[v].bit_count() for v in order]


def _embed_masks(
    host_n: int, host_masks: Sequence[int], prepared: tuple[list[int], list[list[int]], list[int]]
) -> tuple[int, ...] | None:
    """First embedding of a _prepare_pattern result into the graph given by adjacency bitmasks, or None.

    Depth-first over the pattern vertices in _prepare_pattern's order, each taking the
    host vertices that fit in ascending order; an explicit stack of the
    untried candidates per depth replaces recursion, so deep patterns do not
    overflow the interpreter stack.  arrow_check calls it per colour class of
    each colouring it searches, so it keeps this stack: as generator nodes on
    graphs._depth_first it made K6 -> (K3)_2 and K5 -> (P3)_3 2-2.6x slower
    (196 -> 402 ms, 209 -> 534 ms; Python 3.11.7, 2-vCPU VM).
    """
    order, back, need_deg = prepared
    depth = len(order)
    assignment = [0] * depth
    untried = [0] * depth
    full = (1 << host_n) - 1
    used = 0
    i = 0
    fresh = True
    while i < depth:
        if fresh:
            cand = full
            for w in back[i]:
                cand &= host_masks[assignment[w]]
            cand &= ~used
        else:
            cand = untried[i]
        need = need_deg[i]
        while cand:
            low = cand & -cand
            cand ^= low
            hv = low.bit_length() - 1
            if host_masks[hv].bit_count() >= need:
                break
        else:
            # Every candidate failed: undo the placement one level up.
            if i == 0:
                return None
            i -= 1
            used &= ~(1 << assignment[order[i]])
            fresh = False
            continue
        untried[i] = cand
        assignment[order[i]] = hv
        used |= low
        i += 1
        fresh = True
    return tuple(assignment)


def find_subgraph(host: Graph, pattern: Graph) -> Embedding | None:
    """First embedding of pattern into host."""
    if pattern.n > host.n:
        return None
    mapping = _embed_masks(host.n, host.adjacency_masks(), _prepare_pattern(pattern))
    if mapping is None:
        return None
    return _validated(Embedding(pattern, host, mapping), "subgraph")


# -- monochromatic cliques -------------------------------------------------------


def _grow_clique(masks: Sequence[int], target: int, clique: tuple[int, ...], cand: int):
    """Search node (graphs._depth_first): clique, and cand the higher vertices joined to all of it.

    Each candidate, in ascending order while enough are left, extends the
    clique: to a record once it has target vertices, else to a child node.
    Branch and bound that no target takes deeper into the interpreter stack.
    """
    if not target:
        yield clique
    left = target - len(clique)  # vertices still to add
    while 0 < left <= cand.bit_count():
        low = cand & -cand
        cand ^= low
        v = low.bit_length() - 1
        yield clique + (v,) if left == 1 else _grow_clique(masks, target, clique + (v,), cand & masks[v])


def mono_clique_in_clique(
    colouring: EdgeColouring, clique: Sequence[int], target: int
) -> tuple[int, tuple[int, ...]] | None:
    """The lowest colour with a monochromatic `target`-clique inside a host clique, and its first such clique.

    Honest failure (None) is a value: desk-scale clique sizes sit far below
    Ramsey thresholds, so a colouring may admit no such clique.
    """
    verts = list(clique)
    k = len(verts)
    if target < 0:
        raise ParameterError("target must be >= 0")
    if target > k:
        raise ParameterError("target exceeds the clique size")
    col = colouring._col
    # One pass over the pairs fills every colour class: masks[c][i] holds the
    # positions joined to position i in colour c.
    masks = [[0] * k for _ in range(colouring.s + 1)]
    for i in range(k):
        a = verts[i]
        for j in range(i + 1, k):
            b = verts[j]
            c = col.get((a, b) if a < b else (b, a))
            if c is None:
                raise ParameterError(f"input vertices are not a clique: ({a},{b}) missing")
            row = masks[c]
            row[i] |= 1 << j
            row[j] |= 1 << i
    for c in range(1, colouring.s + 1):
        # the lexicographically first target-clique of colour c, by position
        found = next(_depth_first(_grow_clique(masks[c], target, (), (1 << k) - 1)), None)
        if found is not None:
            return c, tuple(sorted(verts[i] for i in found))
    return None


# -- blue bicliques and the biclique-free bound -----------------------------------


def find_blue_biclique(rows: Sequence[int], need: int) -> tuple[tuple[int, ...], int] | None:
    """The first need >= 1 row positions, in combinations order, whose rows share need bits, and their AND, or None.

    The search drops a prefix once its rows share fewer than need bits, so
    no combination that such a prefix starts is walked.
    """
    if need < 1:
        raise ParameterError("need must be >= 1")
    return next(_depth_first(_pick_rows(rows, need, (), -1, (1 << len(rows)) - 1)), None)


def _pick_rows(rows: Sequence[int], need: int, picked: tuple[int, ...], common: int, cand: int):
    """Search node (graphs._depth_first): the positions picked, common their rows' AND, cand those after.

    A child per position of cand, ascending, whose row keeps need common
    bits, while enough are left; the last pick yields (picks, AND) in place.
    """
    left = need - len(picked)  # rows still to pick
    while cand.bit_count() >= left:
        low = cand & -cand
        cand ^= low
        i = low.bit_length() - 1
        both = common & rows[i]
        if both.bit_count() >= need:
            yield (picked + (i,), both) if left == 1 else _pick_rows(rows, need, picked + (i,), both, cand)


def kst_bound_check(x: int, edges: Iterable[tuple[int, int]], k: int) -> bool | None:
    """Balanced bipartite edge bound: no 2k-by-2k biclique forces at most 4 x^(2-1/2k) edges.

    None when the graph holds such a biclique, so the bound does not apply; else
    whether its m distinct edges meet it, compared exactly as m^(2k) <= 4^(2k) x^(4k-1).
    """
    if x < 1 or k < 1:
        raise ParameterError("need x >= 1 and k >= 1")
    left_masks = [0] * x
    for i, jj in edges:
        if not (0 <= i < x and 0 <= jj < x):
            raise ParameterError(f"edge ({i},{jj}) outside the x-by-x grid")
        left_masks[i] |= 1 << jj
    if find_blue_biclique(left_masks, 2 * k) is not None:
        return None
    m = sum(row.bit_count() for row in left_masks)
    return m ** (2 * k) <= 4 ** (2 * k) * x ** (4 * k - 1)


# -- auxiliary blue/grey colouring -------------------------------------------------


@dataclass(frozen=True)
class AuxColouring:
    """Blue/grey two-colouring of a derived graph's edges, held as its blue graph.

    Vertex v of the derived graph stands for the host vertices
    subcliques[v], a clique in blue_colour under chi.  An edge is blue when
    an all-blue 2k-by-2k biclique exists between its two subcliques; the
    witness is stored, and blue is the spanning subgraph of the derived
    graph on the witnessed edges.  Every other edge is grey.
    """

    k: int
    blue_colour: int
    blue: Graph
    witnesses: dict[Edge, tuple[tuple[int, ...], tuple[int, ...]]]
    subcliques: tuple[tuple[int, ...], ...]
    chi: EdgeColouring


def build_aux_colouring(
    j: Graph,
    subcliques: Sequence[tuple[int, ...]],
    chi: EdgeColouring,
    k: int,
    blue_colour: int,
) -> AuxColouring:
    """Colour each j-edge blue (with a stored biclique witness) or grey.

    Requires subcliques[v], the host vertices of j's vertex v, to be
    monochromatic in blue_colour under chi; the offending v is named otherwise.
    A witness is the first 2k vertices of subcliques[u], in combinations order,
    with 2k blue neighbours in subcliques[v] in common, and the first 2k of those.
    """
    if k < 0:
        raise ParameterError("k must be >= 0")
    if len(subcliques) != j.n:
        raise ParameterError("need one subclique per vertex of j")
    if blue_colour not in range(1, chi.s + 1):
        raise ParameterError(f"blue colour {blue_colour} outside 1..{chi.s}")
    # The colour map's keys are exactly the host's edges, so a missing pair is a non-edge.
    col = chi._col
    for v, sub in enumerate(subcliques):
        for a, b in combinations(sub, 2):
            if col.get((a, b) if a < b else (b, a)) != blue_colour:
                raise PreconditionError(
                    f"subclique of base vertex {v} is not monochromatic in colour {blue_colour}"
                )
    need = 2 * k
    witnesses: dict[Edge, tuple] = {}
    for (iu, iv) in j.sorted_edges():
        side_a, side_b = subcliques[iu], subcliques[iv]
        # rows[i]: the positions of side_b joined to side_a[i] in blue
        rows = []
        for a in side_a:
            row = 0
            for i, b in enumerate(side_b):
                if col.get((a, b) if a < b else (b, a)) == blue_colour:
                    row |= 1 << i
            rows.append(row)
        found = find_blue_biclique(rows, need) if need else ((), 0)
        if found is not None:
            picks, common = found
            both = _mask_vertices(common)[:need]
            witnesses[(iu, iv)] = tuple(side_a[i] for i in picks), tuple(side_b[i] for i in both)
    blue = _edge_subset(j, [e in witnesses for e in j.edges])
    return AuxColouring(k, blue_colour, blue, witnesses, tuple(subcliques), chi)


# -- blue path promotion -------------------------------------------------------------


def blue_path_to_blue_power(verts: Sequence[int], aux: AuxColouring) -> Embedding:
    """Promote a blue path, by its vertices in the derived graph, to a blue path power in the host.

    With k = aux.k, each consecutive edge contributes a 2k-by-2k blue biclique
    witness; inner witnesses are split into disjoint k-halves inside each
    subclique, and the concatenated ordering realises the k-th power of a
    path on 2k * len vertices with every close pair blue.
    """
    k, n = aux.k, len(verts)
    if n == 0:
        raise ParameterError("empty path")
    if len(set(verts)) != n or not all(v in range(aux.blue.n) for v in verts):
        raise PreconditionError(f"path {tuple(verts)} repeats a vertex or leaves 0..{aux.blue.n - 1}")
    if n == 1:
        sub = aux.subcliques[verts[0]]
        if len(sub) < 2 * k:
            raise PreconditionError("subclique smaller than 2k")
        ordering = list(sub[: 2 * k])
    else:
        # sides[i]: the witness of path edge i, its side in verts[i]'s subclique first.
        sides = []
        for u, v in zip(verts, verts[1:]):
            if not aux.blue.has_edge(u, v):
                raise PreconditionError(f"path edge ({u},{v}) is not blue")
            wa, wb = aux.witnesses[(u, v) if u < v else (v, u)]
            sides.append((wa, wb) if u < v else (wb, wa))
        ordering = sorted(sides[0][0])
        for i in range(1, n - 1):
            ys = sorted(sides[i - 1][1])[:k]
            xs = sorted(set(sides[i][0]) - set(ys))[:k]
            ordering += ys + xs
        ordering += sorted(sides[-1][1])
    pattern = path_power(2 * k * n, k)
    constraint = (aux.chi, frozenset({aux.blue_colour}))
    return _validated(Embedding(pattern, aux.chi.host, tuple(ordering), constraint), "promoted")


# -- arrow oracle -----------------------------------------------------------------


@dataclass(frozen=True)
class ArrowVerdict:
    """Outcome of an arrow check.

    arrows True/False only from exhaustive search; None means a randomized
    search found no counterexample (inconclusive).  A False verdict always
    carries an independently re-validated counterexample.
    """

    arrows: bool | None
    counterexample: EdgeColouring | None
    witness: tuple[int, Embedding] | None
    searched: int

    def to_dict(self) -> dict:
        return {
            "arrows": self.arrows,
            "counterexample": self.counterexample.to_string() if self.counterexample else None,
            "witnessColour": self.witness[0] if self.witness else None,
            "witnessMap": self.witness[1].to_dict() if self.witness else None,
            "searched": self.searched,
        }


def _revalidate_counterexample(host: Graph, pattern: Graph, col: EdgeColouring) -> bool:
    """Independent path: materialise each colour class as a Graph and search it."""
    for c in range(1, col.s + 1):
        sub = col.colour_subgraph(c)
        if find_subgraph(sub, pattern) is not None:
            return False
    return True


def arrow_check(
    host: Graph,
    pattern: Graph,
    s: int,
    mode: str = "exhaustive",
    trials: int = 10_000,
    seed: int = 0,
    budget: int = 2 ** 24,
) -> ArrowVerdict:
    """Does every s-colouring of the host contain a monochromatic pattern copy?

    Exhaustive mode walks all s^m colourings as base-s integers over the
    sorted edge list (lowest-index counterexample reported) and refuses
    politely when s^m exceeds the budget.  Randomized mode samples colourings
    and can only refute or come back inconclusive.  Both watch the last
    monochromatic copy found, and search a colouring's classes (ascending)
    only when the step to it recoloured an edge of that copy.
    """
    if s < 1:
        raise ParameterError("colour count must be >= 1")
    m = host.m
    edges = host.sorted_edges()
    total = s ** m
    if mode == "exhaustive":
        if total > budget:
            raise BudgetExceededError(f"{_count_text(total)} colourings exceed the budget {budget}")
        indices: Iterable[int] = range(total)
    elif mode == "randomized":
        if trials < 1:
            raise ParameterError("trial count must be >= 1")
        rng = random.Random(seed)
        indices = (rng.randrange(total) for _ in range(trials))
    else:
        raise ParameterError("mode must be 'exhaustive' or 'randomized'")

    prepared = _prepare_pattern(pattern)
    n = host.n
    # Live state: digit[i] + 1 is the colour of edges[i], and classes[c] holds
    # the adjacency masks of colour c + 1.  Colouring 0 puts every edge in
    # colour 1; moving to the next colouring flips only the changed edges.
    # watch has bit i for each edge index i of the last copy found, and bit m
    # so that an edgeless copy holds too; recolouring one of its edges clears it.
    digit = [0] * m
    classes = [list(host.adjacency_masks())] + [[0] * n for _ in range(s - 1)]
    ends = [(u, v, 1 << u, 1 << v) for u, v in edges]
    bit = {p: 1 << i for i, (u, v) in enumerate(edges) for p in ((u, v), (v, u))}
    watch = 0

    def recolour(i: int, new: int) -> None:
        nonlocal watch
        watch = 0 if watch >> i & 1 else watch
        u, v, bu, bv = ends[i]
        old_row, new_row = classes[digit[i]], classes[new]
        old_row[u] ^= bv
        old_row[v] ^= bu
        new_row[u] ^= bv
        new_row[v] ^= bu
        digit[i] = new

    witness: tuple[int, Embedding] | None = None
    searched = 0
    for x in indices:
        searched += 1
        if mode == "exhaustive":
            if x:
                # Base-s odometer: trailing top digits wrap to 0, the next one steps up.
                i = 0
                while digit[i] == s - 1:
                    recolour(i, 0)
                    i += 1
                recolour(i, digit[i] + 1)
        else:
            for i in range(m):
                if digit[i] != x % s:
                    recolour(i, x % s)
                x //= s
        if watch:  # the watched copy is still monochromatic
            continue
        for c in range(s):
            mapping = _embed_masks(n, classes[c], prepared)
            if mapping is not None:
                break
        else:
            col = EdgeColouring(host, s, {e: digit[i] + 1 for i, e in enumerate(edges)})
            if not _revalidate_counterexample(host, pattern, col):
                raise ConstructionError("counterexample failed independent re-validation")
            return ArrowVerdict(False, col, None, searched)
        watch = 1 << m | sum(bit[mapping[a], mapping[b]] for a, b in pattern.edges)
        if witness is None:
            witness = (c + 1, _validated(Embedding(pattern, host, mapping), "witness"))
    if mode == "exhaustive":
        return ArrowVerdict(True, None, witness, searched)
    return ArrowVerdict(None, None, witness, searched)
