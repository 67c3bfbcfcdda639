"""Path-structure engines: covering a two-coloured complete graph, given by
its blue graph (every non-edge is red), by blue paths plus a balanced red
multipartite remainder; finding long paths that cycle through prescribed
vertex classes, splitting paths into segments, and the segment-adjacency
graph with its sparsify/prune helpers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from operator import or_
from typing import Sequence

from .errors import (
    BudgetExceededError,
    ConstructionError,
    GraphFormatError,
    NoPathFoundError,
    ParameterError,
    PreconditionError,
)
from .graphs import Graph, _depth_first, _edge_subset, _frontiers, _mask_vertices, _seed, validate_path
from .pseudorandom import _empty_cross_pair, prune_to_size

EXHAUSTIVE_CAP = 12


@dataclass(frozen=True)
class PartitionResult:
    """Cover of a two-coloured complete graph: disjoint blue paths plus
    disjoint vertex classes whose cross pairs are all red.

    Empty classes are permitted; all nonempty classes share one size.  An
    exhaustive cover always has ell + 1 classes of one size; a heuristic prefers them.
    """

    blue_paths: tuple[tuple[int, ...], ...]
    red_classes: tuple[tuple[int, ...], ...]

    def to_dict(self) -> dict:
        return {
            "bluePaths": [list(p) for p in self.blue_paths],
            "redClasses": [list(c) for c in self.red_classes],
        }


def _blue_components(masks: Sequence[int], rmask: int) -> list[int]:
    """Components of the blue graph on rmask, as masks, by lowest vertex; no search for isolated ones."""
    comps = []
    left = rmask
    while left:
        low = left & -left
        comp = sum(_frontiers(masks, low, ~rmask)) if masks[low.bit_length() - 1] & rmask else low
        comps.append(comp)
        left &= ~comp
    return comps


def _group_components(comps: list[int], classes: int, exact: bool = False) -> list[int] | None:
    """Pack whole components into m <= classes groups of equal size, m maximal.

    Returns group masks, padded with empty groups to `classes`.  With
    exact=True only the fully balanced split (m = classes) is accepted, else
    None; without it m = 1 always packs, so a split is always returned.
    """
    total = sum(c.bit_count() for c in comps)
    if total == 0:
        return [0] * classes
    sizes = sorted(((c.bit_count(), c) for c in comps), reverse=True)
    lowest = classes if exact else 1
    for m in range(classes, lowest - 1, -1):
        if total % m == 0:
            groups, fill = [0] * m, [0] * m
            for _ in _depth_first(_pack(sizes, 0, groups, fill, total // m)):
                return groups + [0] * (classes - m)
    return None


def _pack(sizes: list[tuple[int, int]], i: int, groups: list[int], fill: list[int], q: int):
    """Search node (graphs._depth_first) that packs items i, i+1, ... into groups of capacity q.

    The items are (size, mask) pairs.  Item i goes to each group in turn,
    skipping a group whose fill equals that of a group already tried for item
    i.  The node yields () once every item is placed, so at the first record
    groups holds the first packing.
    """
    if i == len(sizes):
        yield ()
        return
    size, comp = sizes[i]
    tried = set()
    for gi, f in enumerate(fill):
        if f not in tried:
            tried.add(f)
            if f + size <= q:
                fill[gi], groups[gi] = f + size, groups[gi] | comp
                yield _pack(sizes, i + 1, groups, fill, q)
                fill[gi], groups[gi] = f, groups[gi] & ~comp


def _ham_path_table(masks: Sequence[int], n: int, seed: int) -> list[int]:
    """ends[v], a 2^n-bit int per vertex: bit S is set iff S is a set of seed plus a disjoint blue path ending at v.

    The Held–Karp table, filled for every S at once: S is in ends[v] when v
    is in S and S - v is in seed (the path is v alone) or in ends[u] for a
    neighbour u of v.  Shifting the bits of lacks[v] by 2^v adds v to each
    set.  With seed = 1, the empty set, it is the one-path table.  Each
    round lengthens the paths found, so at most n - 1 rounds reach the
    fixed point; the fill stops at the first round that changes no bit.
    """
    lacks = _lacks(n)
    ends = [(seed & lacks[v]) << (1 << v) for v in range(n)]
    nbrs = [_mask_vertices(m) for m in masks]
    for _ in range(n - 1):
        changed = False
        for v in range(n):
            reach = 0
            for u in nbrs[v]:
                reach |= ends[u]
            grown = ends[v] | (reach & lacks[v]) << (1 << v)
            if grown != ends[v]:
                ends[v], changed = grown, True
        if not changed:
            break
    return ends


@lru_cache(maxsize=None)
def _lacks(n: int) -> tuple[int, ...]:
    """lacks[v], a 2^n-bit int per vertex: bit S is set iff v is not in S.

    The bits repeat 2^v set, 2^v clear: one byte pattern (one byte for v < 3).
    """
    size, full = (1 << n) + 7 >> 3, (1 << (1 << n)) - 1
    units = [(b"\x55", b"\x33", b"\x0f")[v] if v < 3 else b"\xff" * (1 << v - 3) + bytes(1 << v - 3) for v in range(n)]
    return tuple(int.from_bytes(unit * (size // len(unit)), "little") & full for unit in units)


@lru_cache(maxsize=None)
def _levels(n: int) -> tuple[int, ...]:
    """levels[k], a 2^n-bit int per k <= n: bit S is set iff S has k vertices (Pascal's rule, vertex by vertex)."""
    levels = [1]
    for v in range(n):
        levels = [low | high << (1 << v) for low, high in zip(levels + [0], [0] + levels)]
    return tuple(levels)


def _set_bits(x: int):
    """The positions of x's set bits, lowest first, found lazily from its binary digits."""
    digits = bin(x)
    at = len(digits)
    while (at := digits.rfind("1", 0, at)) > 0:
        yield len(digits) - 1 - at


def _cover_tables(masks: Sequence[int], n: int, ell: int) -> tuple[list[int], list[int]]:
    """(covs, ends): bit S of the 2^n-bit int covs[j] is set iff at most j blue paths cover S.

    Layer j seeds the path table with covs[j - 1]; covs[0] = 1, the empty
    set, and ends is the one-path table.  n paths cover every set, so the
    layers stop at min(ell, n), and covs[-1] stands for every later layer.
    """
    ends = _ham_path_table(masks, n, 1)
    covs = [1, reduce(or_, ends, 1)]
    while len(covs) <= min(ell, n):
        covs.append(reduce(or_, _ham_path_table(masks, n, covs[-1]), covs[-1]))
    return covs, ends


def _recover_path(ends: list[int], masks: Sequence[int], mask: int) -> list[int]:
    """A blue path covering mask: its lowest possible end, then back through the lowest neighbour that works."""
    path, near = [], mask
    while mask:
        v = next(v for v in _mask_vertices(near & mask) if ends[v] >> mask & 1)
        path.append(v)
        mask, near = mask ^ 1 << v, masks[v]
    return path[::-1]


def _cover_pieces(covs: list[int], n: int, mask: int, budget: int) -> list[int]:
    """Split mask, which budget blue paths cover, into path supports: each the first submask, in
    decreasing value, that holds the lowest vertex left, has its covs[1] bit and leaves a rest that
    budget - 1 paths cover.  The bits are read from bytes, as a shift of a 2^n-bit int costs O(2^n)
    and the walk may test every submask."""
    rows = [cov.to_bytes((1 << n) + 7 >> 3, "little") for cov in covs]
    pieces = []
    while mask:
        rest_covered = rows[min(budget - 1, len(covs) - 1)]
        low, sub = mask & -mask, mask
        while not (sub & low and rows[1][sub >> 3] >> (sub & 7) & 1
                   and rest_covered[(mask ^ sub) >> 3] >> ((mask ^ sub) & 7) & 1):
            sub = (sub - 1) & mask
        pieces.append(sub)
        mask ^= sub
        budget -= 1
    return pieces


def _partition_exhaustive(blue: Graph, ell: int) -> PartitionResult:
    """The first path support, largest first, that ell blue paths cover and whose rest splits into
    ell + 1 equal classes: Pokrovskiy's path-cover lemma says one exists.  Only the set bits of
    covs[ell] are read, one level (support size) at a time, largest first, in increasing mask value;
    a level whose rest ell + 1 does not divide has no equal split, so it is skipped."""
    n = blue.n
    masks = blue.adjacency_masks()
    covs, ends = _cover_tables(masks, n, ell)
    full, levels = (1 << n) - 1, _levels(n)
    sizes = [k for k in range(n, -1, -1) if (n - k) % (ell + 1) == 0]
    splits = ((s, _group_components(_blue_components(masks, full ^ s), ell + 1, exact=True))
              for k in sizes for s in _set_bits(covs[-1] & levels[k]))
    pmask, groups = next((s, groups) for s, groups in splits if groups is not None)
    paths = tuple(tuple(_recover_path(ends, masks, piece)) for piece in _cover_pieces(covs, n, pmask, ell))
    return PartitionResult(paths, tuple(tuple(_mask_vertices(gm)) for gm in groups))


def _grow_blue_path(masks: Sequence[int], available: int, rng: random.Random) -> list[int]:
    """A random blue path in available: extend the end, else the front, else rotate (at most 2n times)."""
    avail_list = _mask_vertices(available)
    # Prefer starts that can actually extend.
    live = [v for v in avail_list if masks[v] & available & ~(1 << v)]
    start = rng.choice(live or avail_list)
    path = [start]
    used = 1 << start
    budget = 2 * len(masks)
    while True:
        at, cand = len(path), masks[path[-1]] & available & ~used
        if not cand:
            at, cand = 0, masks[path[0]] & available & ~used
        if cand:
            v = rng.choice(_mask_vertices(cand))
            path.insert(at, v)
            used |= 1 << v
            continue
        if budget <= 0:
            return path
        budget -= 1
        # Endpoint rotation: an in-path blue neighbour of the endpoint flips a suffix.
        end = path[-1]
        pivots = [i for i in range(len(path) - 2) if (masks[end] >> path[i]) & 1]
        if not pivots:
            return path
        i = rng.choice(pivots)
        path[i + 1:] = path[i + 1:][::-1]


def _partition_heuristic(blue: Graph, ell: int, seed: int) -> PartitionResult:
    """Grow up to ell blue paths, then pack the blue components of the rest into ell + 1 classes.

    The last path is cut, longest first, until the rest splits into equal
    classes; if no cut does, it stays whole and the rest takes its largest
    split.  Every candidate is a valid cover by construction, so none is
    verified here (partition_two_coloured verifies the one returned): the
    paths are disjoint and blue, a cut last path is still a path, classes
    made of whole blue components have only red pairs between them, the
    nonempty classes share one size, and paths and classes cover every vertex.
    """
    masks = blue.adjacency_masks()
    rng = random.Random(_seed(seed, 0))
    available = (1 << blue.n) - 1
    paths: list[list[int]] = []
    for _ in range(ell):
        if not available:
            break
        path = _grow_blue_path(masks, available, rng)
        paths.append(path)
        for v in path:
            available &= ~(1 << v)
    last = paths.pop() if paths else []
    for cut in range(len(last), -1, -1):
        rest = available | sum(1 << v for v in last[cut:])
        groups = _group_components(_blue_components(masks, rest), ell + 1, exact=True)
        if groups is not None:
            break
    else:
        cut = len(last)
        groups = _group_components(_blue_components(masks, available), ell + 1)
    paths.append(last[:cut])
    return PartitionResult(
        tuple(tuple(p) for p in paths if p),
        tuple(tuple(_mask_vertices(g)) for g in groups),
    )


def partition_two_coloured(
    blue: Graph,
    ell: int,
    mode: str = "auto",
    seed: int = 0,
) -> PartitionResult:
    """Cover the complete graph on blue's vertices, coloured blue on blue's
    edges and red elsewhere, by <= ell blue paths plus a balanced red
    multipartite remainder of ell+1 classes.

    Exhaustive mode (n <= 12) reads one path-cover table layered by path
    count and walks the supports that ell paths cover, largest first; by
    Pokrovskiy's path-cover lemma its cover always has ell + 1 classes of one
    size.  Heuristic mode grows rotated blue paths and only prefers equal
    classes; one class may hold all that the paths leave.  A search that
    returns a cover the check rejects is a fault: ConstructionError.
    """
    if ell < 0:
        raise ParameterError("ell must be >= 0")
    n = blue.n
    if mode == "auto":
        mode = "exhaustive" if n <= EXHAUSTIVE_CAP else "heuristic"
    if mode not in ("exhaustive", "heuristic"):
        raise ParameterError("mode must be 'auto', 'exhaustive', or 'heuristic'")
    if ell == 0:  # nothing to search: one class, no path
        result = PartitionResult((), (tuple(range(n)),))
    elif mode == "heuristic":
        result = _partition_heuristic(blue, ell, seed)
    elif n > EXHAUSTIVE_CAP:
        raise ParameterError(f"exhaustive cover search capped at n = {EXHAUSTIVE_CAP}")
    else:
        result = _partition_exhaustive(blue, ell)
    problem = verify_partition(blue, result, ell)
    if problem is not None:
        raise ConstructionError(f"search produced an invalid cover: {problem}")
    return result


def verify_partition(blue: Graph, result: PartitionResult, ell: int) -> str | None:
    """The first cover invariant the result violates against the blue graph, or None if it is a cover."""
    n = blue.n
    nonempty_paths = [p for p in result.blue_paths if len(p) > 0]
    if len(nonempty_paths) > ell:
        return f"{len(nonempty_paths)} blue paths exceed ell = {ell}"
    if len(result.red_classes) > ell + 1:
        return f"{len(result.red_classes)} classes exceed ell+1"
    seen: set[int] = set()
    for p in result.blue_paths:
        for v in p:
            if v in seen or not 0 <= v < n:
                return f"vertex {v} repeated or out of range"
            seen.add(v)
        for a, b in zip(p, p[1:]):
            if not blue.has_edge(a, b):
                return f"path edge ({a},{b}) is not blue"
    classes = [c for c in result.red_classes if c]  # an empty class has no vertex and no pair
    for cls in classes:
        for v in cls:
            if v in seen or not 0 <= v < n:
                return f"vertex {v} repeated or out of range"
            seen.add(v)
    if len({len(c) for c in classes}) > 1:
        return f"unbalanced nonempty classes: sizes {sorted(len(c) for c in classes)}"
    if seen != set(range(n)):
        return "cover misses or exceeds the vertex set"
    for c1, c2 in combinations(classes, 2):
        for u in c1:
            for v in c2:
                if blue.has_edge(u, v):
                    return f"cross-class pair ({u},{v}) is not red"
    return None


# -- constrained long paths -------------------------------------------------------


def check_expansion(g: Graph, set_size: int) -> tuple[int, int] | None:
    """First disjoint (set_size, set_size) pair with no cross edge, as masks; None if expanding.

    BudgetExceededError, above the "expansion" budget of pseudorandom._routed_pairs, says that
    nothing was checked.  verify_edgeboost's hypothesis runs the same search; this name stays for
    the benchmark's per-layer metrics of the pre-check.
    """
    return _empty_cross_pair(g, set_size, "expansion")


def long_path_through_sets(
    g: Graph,
    parts: Sequence[Sequence[int]],
    target_len: int,
    gamma: Fraction | None = None,
    node_budget: int = 1_000_000,
) -> tuple[int, ...]:
    """A path of target_len vertices whose position-i vertex lies in parts[i mod t].

    When gamma is given, check_expansion pre-checks the expansion hypothesis
    (every disjoint pair of ceil(gamma*n)-sets spans an edge) and a violation
    rejects the call; above its budget (pseudorandom._routed_pairs) the
    hypothesis is the caller's assertion.  The search is a depth-first walk
    over the part pattern, run by graphs._depth_first so no path length
    deepens the interpreter stack.  It tries candidates in ascending order,
    skips (vertex, used set) states known to fail, and pays one unit of
    node_budget per path it enters (start vertex and complete path too);
    failure raises carrying the longest path entered.
    """
    t = len(parts)
    if t < 1:
        raise ParameterError("need at least one part")
    if target_len < 1:
        raise ParameterError("target length must be >= 1")
    if node_budget < 1:
        raise ParameterError("node budget must be >= 1")
    if gamma is not None and not 0 < gamma < 1:
        raise ParameterError("gamma must lie in (0, 1)")
    part_sets = [sorted(set(p)) for p in parts]
    flat = [v for p in part_sets for v in p]
    if len(set(flat)) != len(flat):
        raise ParameterError("parts overlap")
    for v in flat:
        if not 0 <= v < g.n:
            raise ParameterError(f"part vertex {v} out of range")
    if gamma is not None:
        try:
            witness = check_expansion(g, max(1, math.ceil(Fraction(gamma) * g.n)))
        except BudgetExceededError:  # nothing checked: the caller asserts the hypothesis
            witness = None
        if witness is not None:
            x, y = map(_mask_vertices, witness)
            raise PreconditionError(f"expansion hypothesis fails: no edge between {x} and {y}")

    masks = g.adjacency_masks()
    part_masks = [sum(1 << v for v in p) for p in part_sets]
    best: list[int] = []
    seen_states: set[tuple[int, int]] = set()

    def extend(path: list[int], used: int):
        # The search node at the end of path: the path once it is long enough,
        # else a child per candidate not known to fail, in ascending order.
        nonlocal best
        if len(path) > len(best):
            best = list(path)
        if len(path) == target_len:
            yield tuple(path)
            return
        cand = masks[path[-1]] & part_masks[len(path) % t] & ~used
        while cand:
            low = cand & -cand
            cand ^= low
            state = (low.bit_length() - 1, used | low)
            if state not in seen_states:
                path.append(state[0])
                yield extend(path, state[1])
                path.pop()
                seen_states.add(state)  # every walk on from this state fails

    try:
        for found in _depth_first((extend([v], 1 << v) for v in part_sets[0]), node_budget):
            try:
                validate_path(g, found, part_sets)
            except GraphFormatError as exc:
                raise ConstructionError(f"search produced an invalid path: {exc}") from exc
            return found
    except BudgetExceededError:
        pass
    finally:  # extend refers to itself: break the cycle, so the memo goes now
        extend = None
    raise NoPathFoundError(
        f"no constrained path of length {target_len} found (longest {len(best)})",
        longest=tuple(best),
    )


# -- segments and the segment graph -------------------------------------------------


def segment_path(vertices: Sequence[int], t: int) -> list[tuple[int, ...]]:
    """Split a path's vertices into consecutive blocks of exactly t."""
    if t < 1:
        raise ParameterError("segment size must be >= 1")
    if len(vertices) % t:
        raise ParameterError(f"path length {len(vertices)} not divisible by t = {t}")
    if len(set(vertices)) != len(vertices):
        raise ParameterError("path repeats a vertex")
    if min(vertices, default=0) < 0:
        raise ParameterError(f"path vertex {min(vertices)} is negative")
    return [tuple(vertices[i:i + t]) for i in range(0, len(vertices), t)]


def auxiliary_graph(g: Graph, segments: Sequence[Sequence[int]]) -> Graph:
    """Graph on segment indices joining two segments when any g-edge crosses them."""
    owner: dict[int, int] = {}
    for i, vs in enumerate(segments):
        for v in vs:
            if v in owner:
                raise ParameterError(f"segments overlap at vertex {v}")
            if not 0 <= v < g.n:
                raise ParameterError(f"segment vertex {v} out of range")
            owner[v] = i
    edges = set()
    for u, v in g.edges:
        iu, iv = owner.get(u), owner.get(v)
        if iu is None or iv is None or iu == iv:
            continue
        edges.add((min(iu, iv), max(iu, iv)))
    return Graph(len(segments), edges)


def sparsify(h: Graph, p, seed: int) -> Graph:
    """Keep each edge independently with probability p (seeded, reproducible)."""
    if not 0 < p <= 1:
        raise ParameterError("keep probability must lie in (0, 1]")
    pf = float(p)  # a p below the smallest float draws no edge
    rng = random.Random(seed)
    return _edge_subset(h, [rng.random() < pf for _ in h.edges])


def prune_top(h: Graph, remove_count: int) -> tuple[Graph, tuple[int, ...]]:
    """Remove exactly remove_count vertices, re-selecting the current maximum
    degree each step (ties to the smallest id).  Returns the relabelled graph
    and the kept original ids in ascending order."""
    if remove_count < 0 or remove_count > h.n:
        raise ParameterError("remove count out of range")
    pruned, kept, _ = prune_to_size(h, h.n - remove_count)
    return pruned, kept
