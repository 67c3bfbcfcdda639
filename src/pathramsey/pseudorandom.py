"""Generation and verification of the pseudorandom graph class used throughout.

A member of class P(a, b, c, t, eps, n) has a*n vertices, max degree at most b,
every disjoint (c*n, c*n) vertex-set pair with cross density within (1 +- eps)
of one common positive value, and no cycle of length at most 2t.

Everything density-related is exact rational arithmetic.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import accumulate
from typing import Generator, Iterable, Iterator, Sequence

from .errors import (
    BudgetExceededError,
    CertificationError,
    ParameterError,
)
from .graphs import (
    Graph,
    _depth_first,
    _edge_subset,
    _first_shortest_cycle,
    _mask_vertices,
    girth_violation,
    induced_subgraph,
    max_degree,
    random_graph,
)

PAIR_BUDGET = 200_000
# Above this many pairs long_path_through_sets asserts the expansion hypothesis instead of checking
# it; raising it would start checking, and possibly rejecting, instances that are asserted today.
EXPANSION_PAIR_BUDGET = 100_000
LEAF_SPAN = 13  # comb(13, 6) = 1716 lanes; a span of 14 takes a cold an = 20 certificate to about 345 KB
_TABLE_BYTES = 1 << 24  # the bound pairs and near lane ints one n = 2k search keeps; past it, built per use


# -- parameter types -------------------------------------------------------


@dataclass(frozen=True)
class GoodQuadruple:
    """Parameter quadruple (a, b, c, eps); see is_good for the admissibility test."""

    a: Fraction
    b: Fraction
    c: Fraction
    eps: Fraction

    def __post_init__(self):
        for name in ("a", "b", "c", "eps"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"quadruple field {name} must be positive")
        if self.eps >= 1:
            raise ParameterError("eps must lie in (0,1)")


def quad(a, b, c, eps) -> GoodQuadruple:
    """Convenience constructor accepting ints, strings, or Fractions."""
    return GoodQuadruple(Fraction(a), Fraction(b), Fraction(c), Fraction(eps))


def is_good(q: GoodQuadruple) -> tuple[str, ...]:
    """The admissibility conditions q fails, none when q is good.

    The conditions: a >= 2c+1, b >= 264 a^2 / (eps^2 c^2), eps < 1/10.
    """
    conditions = {
        "a >= 2c+1": q.a >= 2 * q.c + 1,
        "b >= 264 a^2 eps^-2 c^-2": q.b >= 264 * q.a ** 2 / (q.eps ** 2 * q.c ** 2),
        "eps < 1/10": q.eps < Fraction(1, 10),
    }
    return tuple(name for name, ok in conditions.items() if not ok)


@dataclass(frozen=True)
class ClassPParams:
    """Quadruple plus clique-avoidance scale t and size parameter n.

    Scaled sizes a*n, c*n, 2a*n are floored to integers; floor(c*n) must be
    at least 2 so that pair densities are meaningful.
    """

    quad: GoodQuadruple
    t: int
    n: int

    def __post_init__(self):
        if self.t < 1 or self.n < 1:
            raise ParameterError("t and n must be positive integers")
        if self.cn < 2:
            raise ParameterError(f"floor(c*n) = {self.cn} < 2; pick larger n or c")

    @property
    def an(self) -> int:
        return math.floor(self.quad.a * self.n)

    @property
    def cn(self) -> int:
        return math.floor(self.quad.c * self.n)

    @property
    def two_an(self) -> int:
        return math.floor(2 * self.quad.a * self.n)

    def to_dict(self) -> dict:
        return {
            "a": self.quad.a, "b": self.quad.b, "c": self.quad.c, "eps": self.quad.eps,
            "t": self.t, "n": self.n, "an": self.an, "cn": self.cn,
        }


@dataclass(frozen=True)
class GenerationConfig:
    """How to sample: edge probability p in (0, 1], seed, and certificate effort.

    The paper's p is closed_form_p(params), feasible only when it is at most 1.
    """

    p: Fraction
    seed: int
    cert_samples: int = 300
    retry_budget: int = 16

    def __post_init__(self):
        if not 0 < self.p <= 1:
            raise ParameterError(f"edge probability {self.p} outside (0, 1]")
        if self.cert_samples < 1:
            raise ParameterError("certificate sample count must be >= 1")
        if self.retry_budget < 1:
            raise ParameterError("retry budget must be >= 1")

    @staticmethod
    def closed_form_p(params: ClassPParams) -> Fraction:
        q = params.quad
        return 60 * q.a / (q.eps ** 2 * q.c ** 2 * params.n)


# -- pair-density machinery -------------------------------------------------


def disjoint_pair_count(n: int, k: int) -> int:
    if 2 * k > n:
        return 0
    return math.comb(n, k) * math.comb(n - k, k) // 2


@cache
def _members(width: int, span: int, r: int) -> tuple[int, ...]:
    """Per offset j < span, the int whose `width`-byte lane l is 1 when j is in
    the l-th r-subset of range(span) in lexicographic order, else 0.

    Pascal's rule: the subsets holding 0 come first.  The tables depend on the
    lane layout alone, so they are kept and shared by calls of one width;
    _record_pairs drops them when a call of another width starts.
    """
    if r == 0 or r >= span:
        return (int(r == span),) * span
    head = math.comb(span - 1, r - 1)
    tail = zip(_members(width, span - 1, r - 1), _members(width, span - 1, r))
    return (int(("0" * (2 * width - 1)).join("1" * head), 16),
            *(a | b << 8 * width * head for a, b in tail))


_members_width = 0  # the lane width of the tables _members keeps


def _record_pairs(
    masks: Sequence[int], k: int, least: int, greatest: int
) -> Generator[tuple[int, int, int], None, int]:
    """The record pairs of the disjoint (k, k) pair family, found by branch and bound.

    The family is every unordered pair of disjoint k-subsets of range(n), as
    bitmasks (x, y) with x < y, in this order: x runs over the k-subsets of
    range(n-1) in lexicographic order, and for each x, y runs over the
    k-subsets of the complement in lexicographic order whose highest vertex
    exceeds x's (disjoint masks compare by their highest vertex).

    Yields (x, y, e) with e = sum over v in x of |N(v) & y| for each pair, in
    that order, whose count lies below least or above greatest, and after each
    yield widens [least, greatest] to take in e.  The order is walked as a
    depth-first search choosing x's vertices and then y's in ascending order,
    and a subtree is skipped when a lower bound on its counts is >= least and
    an upper bound (at most min(k^2, m)) is <= greatest.  The window only
    widens, so a skipped pair could never have been yielded: the stream is
    exactly what filtering the enumeration by the widening window gives.  A
    child's bounds are clipped to its parent's, so a node stops branching as
    soon as the window covers its own.  For n = 2k a side of a child's bounds
    is computed only while it can prune: a parent side already inside the
    window stays inside, and once the lower side leaves the child outside,
    the upper side keeps its parent's.
    Each search node is a generator that yields its records and its children
    to graphs._depth_first, so no k deepens the interpreter stack; the call
    returns the number of nodes entered.

    For n = 2k, y is the complement of x.  At a node x lacks r of its k
    vertices, U holds the undecided ones (above x's highest, except n-1),
    and the rest are decided for y.  With U in y the count is the cut
    e(x, V - x); moving a set S of r vertices from U to x adds, per u in S,
    gain(u) = |N(u) & decided y| - |N(u) & x| plus |N(u) & (U - S)|, which
    lies between max(0, d(u) - (r - 1)) and min(d(u), |U| - r) for
    d(u) = |N(u) & U|.  The bounds add the r least lower and the r greatest
    upper terms.  These per-vertex counts are packed into ints: field u is
    the `width` bytes from byte u * width, width the fewest of 1, 2, 4 and 8
    with 2n <= 256^width and k^2 < 2^(8 width - 1), and each field is biased
    by n, which keeps it in [0, 2n), so no field carries into the next.  The
    d-terms are packed per (v, r) on first use and kept until the kept ints
    hold _TABLE_BYTES; past that, a pair is rebuilt on each use.

    A node with r = 1 is a leaf.  For r >= 2 the leaves start at one split:
    w = min(LEAF_SPAN, n - 1), split = n - 1 - w, W = range(split, n - 1).  A
    node branches only on next x vertices below split; after those children
    it takes the leaf of the completions whose r remaining x vertices all
    lie in W, which come after the children's in the search's order, and
    until the cut row of its r is filled that leaf is bounded like a child.
    A leaf's completions x | S are the lanes of one packed int of the same
    width, in lexicographic order, which is the search's own; lane S holds
    cut(x | S) = cut(x) + e(S, V - S) - 2 sum over v in x of |N(v) & S|.
    The e(S, V - S) ints sit in one flat row per vertex i of W, indexed by
    r and filled bottom-up by Pascal's rule (the subsets holding i first)
    for the r the leaves ask for; their all-ones lane ints come from bytes.
    The lane int of 2 |N(v) & S| is built once per (v, r), from the upper
    lanes of (v, r - 1)'s when that is kept, into a row per r indexed by v.
    The search carries x's vertices down as a tuple, so a leaf subtracts a
    plain sum of |x| of them.  Both kinds are built from per-offset
    membership lane ints over spans below w, which depend on (width, span,
    r) alone: _members keeps them and every call of that width shares them,
    until a call of another width starts and drops them; the an = 20
    certificates share 79 tables, about 100 KiB.  The other ints depend on
    the graph: they are built once per call, the (v, r) ones kept within
    _TABLE_BYTES with the bound pairs, and freed with it.  A lane count lies
    in [0, k^2], so a field-wise top-bit test, with cut(x) and the window
    folded into two biases, finds the lanes outside the window; the lowest
    is unranked back to S and yielded, and the test repeats on the lanes
    above it with the widened window.  Every completion is tested in order,
    so the records are exactly those of the branched search.
    """
    n = len(masks)
    if k < 1 or 2 * k > n:
        return 0
    last = n - 1  # never in x
    cap = min(k * k, sum(map(int.bit_count, masks)) // 2)  # no pair has more cross edges than m

    if n == 2 * k:
        width, code = next((w, c) for w, c in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))
                           if 2 * n <= 256 ** w and k * k < 1 << 8 * w - 1)
        global _members_width
        if width != _members_width:  # keep one width's tables, not every width's
            _members.cache_clear()
            _members_width = width
        size, order, pad = n * width, sys.byteorder, "0" * (2 * width - 1)  # a field's upper hex digits
        shift, top_bit, lane, kk = 8 * width, 8 * width - 1, (1 << 8 * width) - 1, k * k
        column = [int(pad.join(format(m, "b")), 16) for m in masks]  # column[w]: field u is 1 when u ~ w
        twice = [2 * c for c in column]
        ones, degs = int(pad.join("1" * n), 16), sum(column)
        # At a node, field u of below[v + 1] - twice_x is n + gain(u).
        below = list(accumulate(column, initial=n * ones + column[last]))
        full, deg = (1 << n) - 1, [m.bit_count() for m in masks]
        tables = [[None] * n for _ in range(k + 1)]  # [rest][v]: (lower, upper)
        room = _TABLE_BYTES  # how many more bytes of bound pairs and near lanes may be kept
        span = min(LEAF_SPAN, last)  # every r >= 2 leaf starts at split
        split = last - span
        unit = (1).to_bytes(width, "little")  # int.from_bytes(unit * c, "little") has c lanes of 1
        cuts, aboves = [], []  # for i = split + j, once a leaf asks: [j][s] cut lanes, [j] i's neighbours above i
        lives, nears = [None] * (span + 1), [None] * (span + 1)  # [r]: C(span, r) lanes of 1; [r][v]: near(v, r)

        def excess(packed: int, c: int) -> int:
            # Field-wise max(0, f - c), for fields and c below 2^top_bit.
            t = packed + ones * ((1 << top_bit) - c)
            top = t & ones << top_bit
            return t & (top - (top >> top_bit))

        def table(v: int, rest: int) -> tuple[int, int]:
            # below[v + 1] plus the packed lower and upper d-terms; the fields
            # outside U are not read.
            nonlocal room
            d = below[last] - below[v + 1]
            pair = (below[v + 1] + excess(d, rest - 1), below[v + 1] + d - excess(d, last - v - 1 - rest))
            if room >= 2 * size:
                tables[rest][v], room = pair, room - 2 * size
            return pair

        def grow(r: int) -> None:
            # The cut lanes of the r-subsets of range(split, last), by Pascal's
            # rule from the bottom row up: lane l of cuts[j][s] is e(S, V - S)
            # for the l-th s-subset S of range(i, last), the subsets holding i
            # first, and it is built from cuts[j + 1][s - 1] and cuts[j + 1][s].
            if not cuts:
                cuts.extend([0] + [None] * (span - j) for j in range(span + 1))
                aboves.extend(_mask_vertices(masks[i] >> i + 1 & (1 << last - i - 1) - 1) for i in range(split, last))
            for j in range(span - 1, -1, -1):
                row, tail, avail, above = cuts[j], cuts[j + 1], span - j, aboves[j]
                for s in range(max(1, r - j), min(r, avail) + 1):
                    if row[s] is None:
                        inner, heads = _members(width, avail - 1, s - 1), math.comb(avail - 1, s - 1)
                        head = (tail[s - 1] + int.from_bytes(deg[split + j].to_bytes(width, "little") * heads, "little")
                                - 2 * sum([inner[t] for t in above]))
                        row[s] = head | (tail[s] if s < avail else 0) << shift * heads
            lives[r], nears[r] = int.from_bytes(unit * math.comb(span, r), "little"), [None] * split

        def near(v: int, r: int) -> int:
            # Lane l: 2 |N(v) & S| for the l-th r-subset S of range(split, last),
            # in the order of cuts[0][r]: the subsets holding split, whose lanes
            # less 2 [v ~ split] are the upper lanes of near(v, r - 1), then the rest.
            nonlocal room
            above = _mask_vertices(masks[v] >> split + 1 & (1 << span - 1) - 1)  # offsets above split
            heads, row = math.comb(span - 1, r - 1), nears[r - 1]
            kept = None if row is None else row[v]  # near(v, r - 1)
            if kept is None:
                head = _members(width, span - 1, r - 1)
                kept = 2 * sum([head[j] for j in above])
            else:
                kept >>= shift * math.comb(span - 1, r - 2)
            tail = _members(width, span - 1, r)
            got = (2 * (masks[v] >> split & 1) * int.from_bytes(unit * heads, "little") + kept
                   + (2 * sum([tail[j] for j in above]) << shift * heads))
            cost = math.comb(span, r) * width
            if room >= cost:
                nears[r][v], room = got, room - cost
            return got

        def leaf(x: int, xs: tuple[int, ...], twice_x: int, cut: int, i: int, r: int):
            # The records among the completions x | S, S an r-subset of
            # range(i, last), from one packed int whose lane l is
            # cut(x | S) for the l-th S in lexicographic order.
            nonlocal least, greatest
            if r == 1:
                live = ones >> shift * (i + 1)
                base = (degs >> shift * i) - (twice_x >> shift * i)  # lane j: cut(x | {i + j}) - cut
            else:  # i == split
                if lives[r] is None:
                    grow(r)
                live, row = lives[r], nears[r]  # lane l of base: cut(x | S) - cut for the l-th S
                base = cuts[0][r] - sum([near(v, r) if row[v] is None else row[v] for v in xs])
            tops = live << top_bit
            while True:
                # For a lane of base, lane + over has its top bit set when
                # cut + lane > greatest, and under - lane when cut + lane < least;
                # the window is clamped to [0, k^2], so both stay in [0, 2^(8 width)).
                over = cut + (1 << top_bit) - 1 - min(max(greatest, -1), kk)
                under = (1 << top_bit) - 1 + min(max(least, 0), kk + 1) - cut
                above = base + live * over
                hits = tops & (above | live * under - base)
                if not hits:
                    return
                first = hits & -hits
                at = (first.bit_length() - 1) // shift
                cv, s, v, rest = (above >> shift * at & lane) + cut - over, 0, i, r
                while rest:  # unrank lane `at`
                    head = math.comb(last - v - 1, rest - 1)
                    if at < head:
                        s, rest = s | 1 << v, rest - 1
                    else:
                        at -= head
                    v += 1
                yield x | s, full ^ x ^ s, cv
                least, greatest = min(least, cv), max(greatest, cv)
                tops &= -(first << 1)  # the lanes above `at`

        def bounds(twice_x: int, cut: int, v: int, rest: int, low: int, high: int) -> tuple[int, int]:
            # Bounds on cut(x | S) over the rest-subsets S of range(v + 1, last),
            # for x below v + 1 and the rest of range(v + 1) decided for y,
            # clipped to the parent's (low, high).  The window only widens, so a
            # parent side inside it stays inside and is kept; once the lower side
            # leaves the child outside, the upper is not computed either.
            lower, upper = tables[rest][v] or table(v, rest)
            if low < least:
                lows = (lower - twice_x).to_bytes(size, order)
                if width > 1:
                    lows = memoryview(lows).cast(code)
                low = max(low, cut + sum(sorted(lows[v + 1:last])[:rest]) - rest * n)
                if low < least:
                    return low, high
            if high > greatest:
                highs = (upper - twice_x).to_bytes(size, order)
                if width > 1:
                    highs = memoryview(highs).cast(code)
                high = min(high, cut + sum(sorted(highs[v + 1:last])[-rest:]) - rest * n)
            return low, high

        def bisections(x: int, xs: tuple[int, ...], twice_x: int, cut: int, i: int, r: int, low: int, high: int):
            # Field u of twice_x is 2 |N(u) & x|; xs lists x's vertices.
            if r == 1:
                yield from leaf(x, xs, twice_x, cut, i, r)
                return
            for v in range(i, min(split, n - r)):
                if low >= least and high <= greatest:
                    return
                cv = cut + deg[v] - 2 * (masks[v] & x).bit_count()
                twice_xv = twice_x + twice[v]
                lo, hi = bounds(twice_xv, cv, v, r - 1, low, high)
                if lo < least or hi > greatest:
                    yield bisections(x | 1 << v, (*xs, v), twice_xv, cv, v + 1, r - 1, lo, hi)
            if r <= span:  # the completions whose rest of x lies in range(split, last)
                # Until its cut row is grown, a leaf costs far more than its bounds.
                lo, hi = low, high
                if i < split and lives[r] is None:
                    lo, hi = bounds(twice_x, cut, split - 1, r, low, high)
                if lo < least or hi > greatest:
                    yield from leaf(x, xs, twice_x, cut, split, r)

        root = bisections(0, (), 0, 0, 0, k, 0, cap)
    else:
        # n > 2k.  While x is chosen, the r vertices still to join it come from
        # the candidates, so a y vertex u has at least |N(u) & x| + max(0, r - f(u))
        # and at most |N(u) & x| + min(r, |N(u) & candidates|) neighbours in the
        # final x, for f(u) its non-neighbours among the candidates other than u,
        # and y is k vertices outside x.  Once x is fixed, e is the sum of the weights
        # w(u) = |N(u) & x| over y, and a partial y with running sum s completes to
        # between s plus the r smallest and s plus the r largest weights left.
        def x_sets(x: int, i: int, r: int, low: int, high: int):
            for v in range(i, n - r):
                if low >= least and high <= greatest:
                    return
                xv = x | 1 << v
                rest = r - 1
                candidates = (1 << last) - (2 << v)
                comp = [u for u in range(n) if not xv >> u & 1]
                weights = [(masks[u] & xv).bit_count() for u in comp]
                floors = ceilings = sorted(weights)
                if rest:
                    spare = last - v - 1 - rest  # candidates that stay out of x
                    reach = [(masks[u] & candidates).bit_count() for u in comp]
                    floors = sorted([w + max(0, a + (v < u < last) - spare) for u, w, a in zip(comp, weights, reach)])
                    ceilings = sorted([w + min(rest, a) for w, a in zip(weights, reach)])
                lo, hi = max(low, sum(floors[:k])), min(high, sum(ceilings[-k:]))
                if lo < least or hi > greatest:
                    yield (x_sets(xv, v + 1, rest, lo, hi) if rest
                           else y_sets(xv, comp, weights, v, 0, 0, k, 0, lo, hi))

        def y_sets(x: int, comp: list[int], weights: list[int], top: int,
                   j: int, y: int, r: int, s: int, low: int, high: int):
            nonlocal least, greatest
            for c in range(j, len(comp) - r + 1):
                if low >= least and high <= greatest:
                    return
                yc, sc = y | 1 << comp[c], s + weights[c]
                if r == 1:
                    if comp[c] > top and (sc < least or sc > greatest):
                        yield x, yc, sc
                        least, greatest = min(least, sc), max(greatest, sc)
                    continue
                rest = r - 1
                ranked = sorted(weights[c + 1:])
                lo, hi = max(low, sc + sum(ranked[:rest])), min(high, sc + sum(ranked[-rest:]))
                if lo < least or hi > greatest:
                    yield y_sets(x, comp, weights, top, c + 1, yc, rest, sc, lo, hi)

        root = x_sets(0, 0, k, 0, cap)
    try:
        return (yield from _depth_first(root))
    finally:  # the search functions refer to themselves: break the cycles, so their state goes now
        grow = near = bisections = x_sets = y_sets = None


def _sampled_pairs(masks: Sequence[int], k: int, count: int, seed: int) -> Iterator[tuple[int, int, int]]:
    """(x, y, e) for `count` seeded pairs of disjoint k-sets, e = sum over v in x of |N(v) & y|.

    x and y are the first and last k vertices of random.Random(seed).sample(
    range(n), 2k), drawn with exactly the getrandbits calls sample makes: from
    a shrinking pool up to its set-size threshold, redrawing repeats above it.
    The masks are built as the vertices are drawn, and e is summed over the y
    draws as |N(v) & x|, so no mask is decoded.  When the sets split all
    n = 2k vertices, y is the pool the x draws leave (pool[:k]), so the y
    draws only spend their getrandbits calls, and e is summed over that pool.
    """
    n, size = len(masks), 2 * k
    bits, getrandbits = n.bit_length(), random.Random(seed).getrandbits
    if n <= 21 + (4 ** math.ceil(math.log(3 * size, 4)) if size > 5 else 0):
        # Per draw: the pool's size, its bit count and its last slot.
        draws = [(i, i.bit_length(), i - 1) for i in range(n, n - size, -1)]
        xs, ys, start = draws[:k], draws[k:], list(range(n))
        bit, full = [1 << v for v in range(n)], (1 << n) - 1
        for _ in range(count):
            pool, x, y, e = start[:], 0, 0, 0
            for i, b, top in xs:
                j = getrandbits(b)
                while j >= i:
                    j = getrandbits(b)
                x |= bit[pool[j]]
                pool[j] = pool[top]
            if n == size:  # y is the pool x leaves: its draws only spend their bits
                for i, b, _ in ys:
                    while getrandbits(b) >= i:
                        pass
                y = full ^ x
                for v in pool[:k]:
                    e += (masks[v] & x).bit_count()
            else:
                for i, b, top in ys:
                    j = getrandbits(b)
                    while j >= i:
                        j = getrandbits(b)
                    v = pool[j]
                    y |= bit[v]
                    e += (masks[v] & x).bit_count()
                    pool[j] = pool[top]
            yield x, y, e
    else:
        for _ in range(count):
            taken = 0
            for _ in range(k):
                j = getrandbits(bits)
                while j >= n or taken >> j & 1:
                    j = getrandbits(bits)
                taken |= 1 << j
            x, e = taken, 0
            for _ in range(k):
                j = getrandbits(bits)
                while j >= n or taken >> j & 1:
                    j = getrandbits(bits)
                taken |= 1 << j
                e += (masks[j] & x).bit_count()
            yield x, taken ^ x, e


def _routed_pairs(g: Graph, k: int, least: int, greatest: int, mode: str, budget: str | None,
                  sample_count: int = 0, seed: int = 0) -> tuple[Iterable[tuple[int, int, int]], str]:
    """The (x, y, e) pairs of the disjoint (k, k) family that a pair check reads, and the mode taken.

    The one place that decides whether a check enumerates the family (the records of _record_pairs
    for the window [least, greatest]), samples it, or refuses it as over its budget.
    """
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ParameterError(f"unknown certification mode {mode!r}")
    total = disjoint_pair_count(g.n, k)
    if total == 0:
        return (), "vacuous"
    limit = {"pairs": PAIR_BUDGET, "expansion": EXPANSION_PAIR_BUDGET, None: total}[budget]
    if mode == "auto":
        mode = "exhaustive" if total <= limit else "sampled"
    if mode == "sampled":
        return _sampled_pairs(g.adjacency_masks(), k, sample_count, seed), mode
    if total > limit:
        raise BudgetExceededError(f"{total} pairs exceed the exhaustive budget {limit}")
    return _record_pairs(g.adjacency_masks(), k, least, greatest), mode


@dataclass(frozen=True)
class DensityCertificate:
    """Witness for the common-pair-density condition.

    passed holds exactly when every checked pair is within (1 +- tolerance) of
    f_ref; f_ref is fitted (mean when the mean works, otherwise the midpoint of
    the feasible interval).  feasible_low/high bound all admissible reference
    densities; an empty interval or an all-zero family fails.  In exhaustive
    mode pairs_checked is the family size: every pair is accounted for,
    though branch and bound visits only some of them.
    """

    f_ref: Fraction
    mode: str
    tolerance: Fraction
    max_rel_dev: Fraction | None
    passed: bool
    pairs_checked: int
    sample_count: int | None = None
    seed: int | None = None
    worst_pair: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    feasible_low: Fraction | None = None
    feasible_high: Fraction | None = None
    mean_density: Fraction | None = None

    def to_dict(self) -> dict:
        return {
            "fG": self.f_ref,
            "mode": self.mode,
            "tolerance": self.tolerance,
            "maxRelDev": self.max_rel_dev,
            "passed": self.passed,
            "pairsChecked": self.pairs_checked,
            "sampleCount": self.sample_count,
            "seed": self.seed,
            "worstPair": self.worst_pair,
            "feasible": None if self.feasible_low is None else [self.feasible_low, self.feasible_high],
            "meanDensity": self.mean_density,
        }


def fit_density_certificate(
    g: Graph,
    set_size: int,
    tolerance: Fraction,
    mode: str = "auto",
    sample_count: int = 300,
    seed: int = 0,
) -> DensityCertificate:
    """Fit a reference density over the (set_size, set_size) disjoint-pair family.

    _routed_pairs picks the pairs from mode and the "pairs" budget; an empty
    family gives a vacuous certificate.

    Every field follows from the count sum and the first pair reaching the
    least and the greatest count.  Exhaustively these are exact without
    visiting every pair: the sum is m * C(n-2, k-1) * C(n-k-1, k-1), and the
    first extreme pairs are the last records of _record_pairs, started on the
    empty window [k^2 + 1, -1], that lower and that raise its window; the
    record's position in that stream stands in for the pair's position in the
    tie-break below.  The search tests its leaves in one packed pass
    (see _record_pairs), which yields the same records as branching them,
    so every field is that of full enumeration.  pairs_checked is then the
    family size.  Sampled, one pass over the sample keeps them.  worst_pair
    is the first pair that reaches the maximum deviation from f_ref: a pair
    with the least or greatest count, whichever deviates more, the earlier of
    the two when both deviate equally (so the first pair checked when every
    pair has the same count).
    """
    if set_size < 1:
        raise ParameterError("set size must be >= 1")
    if not 0 < tolerance < 1:
        raise ParameterError("tolerance must lie in (0,1)")
    if sample_count < 1:
        raise ParameterError("sample count must be >= 1")
    denom = set_size * set_size
    least, greatest = denom + 1, -1
    pairs, mode = _routed_pairs(g, set_size, least, greatest, mode, "pairs", sample_count, seed)
    if mode == "vacuous":
        return DensityCertificate(
            f_ref=Fraction(1), mode=mode, tolerance=tolerance, max_rel_dev=Fraction(0),
            passed=True, pairs_checked=0,
        )
    if mode == "exhaustive":
        checked = disjoint_pair_count(g.n, set_size)
        count_sum = g.m * math.comb(g.n - 2, set_size - 1) * math.comb(g.n - set_size - 1, set_size - 1)
        used_samples = used_seed = None
    else:
        pairs = list(pairs)
        checked = used_samples = sample_count
        count_sum = sum(e for _, _, e in pairs)
        used_seed = seed

    for i, (x, y, e) in enumerate(pairs):
        if e < least:
            least, least_at = e, (i, x, y)
        if e > greatest:
            greatest, greatest_at = e, (i, x, y)

    d_min, d_max = Fraction(least, denom), Fraction(greatest, denom)
    mean = Fraction(count_sum, denom * checked)
    lo = d_max / (1 + tolerance)
    hi = d_min / (1 - tolerance)

    def rel_dev(f: Fraction) -> tuple[Fraction, tuple[int, int, int]]:
        # |d/f - 1| is convex in d, so only the extreme counts can deviate most.
        dev_min, dev_max = abs(d_min / f - 1), abs(d_max / f - 1)
        if dev_min == dev_max:
            return dev_min, min(least_at, greatest_at)
        return (dev_min, least_at) if dev_min > dev_max else (dev_max, greatest_at)

    if mean > 0:
        dev_mean, worst_mean = rel_dev(mean)
    else:
        dev_mean, worst_mean = None, least_at  # every count is 0: the first pair

    if dev_mean is not None and dev_mean <= tolerance:
        f, dev, wpair, passed = mean, dev_mean, worst_mean, True
    elif lo <= hi and hi > 0:
        f = (lo + hi) / 2
        dev, wpair = rel_dev(f)
        passed = dev <= tolerance
    else:
        f = mean
        dev, wpair = dev_mean, worst_mean
        passed = False

    return DensityCertificate(
        f_ref=f, mode=mode, tolerance=tolerance, max_rel_dev=dev, passed=passed,
        pairs_checked=checked, sample_count=used_samples, seed=used_seed,
        worst_pair=(tuple(_mask_vertices(wpair[1])), tuple(_mask_vertices(wpair[2]))),
        feasible_low=lo, feasible_high=hi, mean_density=mean,
    )


def _count_band(target: Fraction, slack: Fraction) -> tuple[int, int]:
    """The cross counts [lo, hi] that lie within (1 +- slack)*target."""
    return math.ceil((1 - slack) * target), math.floor((1 + slack) * target)


def _count_certificate_ok(
    g: Graph, set_size: int, target: Fraction, slack: Fraction,
    sample_count: int, seed: int,
) -> tuple[tuple | None, str]:
    """The first pair (X, Y, e(X,Y)) outside (1 +- slack)*target, or None, and the mode _routed_pairs took."""
    lo, hi = _count_band(target, slack)
    pairs, mode = _routed_pairs(g, set_size, lo, hi, "auto", "pairs", sample_count, seed)
    for x, y, e in pairs:
        if not lo <= e <= hi:
            return (tuple(_mask_vertices(x)), tuple(_mask_vertices(y)), e), mode
    return None, mode


# -- generation -------------------------------------------------------------


@dataclass
class GenerationLog:
    attempts: int = 0
    internal_mode: str = ""
    removed_edges: list[tuple[int, int]] = field(default_factory=list)
    cycles_found: int = 0
    removed_vertices: list[int] = field(default_factory=list)
    pre_prune_edges: int = 0
    final_max_degree: int = 0

    def to_dict(self) -> dict:
        return {
            "attempts": self.attempts,
            "internalCertMode": self.internal_mode,
            "removedEdges": [list(e) for e in self.removed_edges],
            "cyclesFound": self.cycles_found,
            "removedVertices": list(self.removed_vertices),
            "prePruneEdges": self.pre_prune_edges,
            "finalMaxDegree": self.final_max_degree,
        }


def _clean_short_cycles(g: Graph, limit: int, log: GenerationLog) -> Graph:
    """Remove one edge per short cycle until no cycle of length <= limit remains.

    Each round takes the cycle girth_violation would return: a shortest cycle,
    on the first edge in sorted order that lies on one, as the path of the
    one search that found it: no cycle is searched for twice.  From it the
    edge with the largest endpoint degree sum goes (ties: lexicographically
    smallest pair), biasing the removals away from sparse regions; one pass
    over the cycle's consecutive pairs finds it.

    The graph is kept as adjacency masks and a degree list, both updated per
    removal, and the edge scan resumes where the last winner was found.
    That is exact: removing an edge never shortens a cycle, so after a
    winner on a cycle of length L, no edge before it lies on a cycle of
    length <= L.  The scan restarts at the first edge only when no
    cycle of length L is left.
    """
    if limit < 3:
        return g
    adj = list(g.adjacency_masks())
    deg = [m.bit_count() for m in adj]
    edges = g.sorted_edges()
    found = _first_shortest_cycle(adj, edges, 0, 3, limit)
    while found is not None:
        start, cyc = found
        log.cycles_found += 1
        most, a = -1, cyc[-1]
        for b in cyc:
            pair, total = (a, b) if a < b else (b, a), deg[a] + deg[b]
            if total > most or total == most and pair < doomed:
                most, doomed = total, pair
            a = b
        log.removed_edges.append(doomed)
        u, v = doomed
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        deg[u] -= 1
        deg[v] -= 1
        found = _first_shortest_cycle(adj, edges, start, len(cyc), len(cyc))
        if found is None and len(cyc) < limit:
            found = _first_shortest_cycle(adj, edges, 0, len(cyc) + 1, limit)
    return _edge_subset(g, [adj[u] >> v & 1 for u, v in edges])


def prune_to_size(g: Graph, keep: int) -> tuple[Graph, tuple[int, ...], list[int]]:
    """Repeatedly delete a current-maximum-degree vertex (ties: smallest id) until `keep` remain.

    Live degrees are kept in a list: a victim is marked -1 and its live
    neighbours lose one each, and `index` finds the first maximum, which is
    the smallest id.

    Returns (pruned graph relabelled over the kept vertices in ascending order,
    kept original ids, removed original ids in removal order).
    """
    if keep > g.n:
        raise ParameterError("cannot keep more vertices than the graph has")
    adj = g.adjacency_masks()
    deg = [m.bit_count() for m in adj]
    alive = (1 << g.n) - 1
    removed: list[int] = []
    for _ in range(g.n - keep):
        victim = deg.index(max(deg))
        alive ^= 1 << victim
        deg[victim] = -1
        for w in _mask_vertices(adj[victim] & alive):
            deg[w] -= 1
        removed.append(victim)
    pruned, kept = induced_subgraph(g, _mask_vertices(alive))
    return pruned, kept, removed


def generate_class_p(
    params: ClassPParams, cfg: GenerationConfig
) -> tuple[Graph, DensityCertificate, GenerationLog]:
    """Sample, certify, break short cycles, prune degrees; return the survivor.

    Pipeline: draw a binomial graph on 2an vertices, re-drawing until every
    checked (cn, cn) pair count is within (1 +- eps/2) of p*cn^2; delete one
    edge from every cycle of length <= 2t; then peel highest-degree vertices
    until an remain.  Vertex count and girth hold by construction; the density
    statement holds per the returned certificate.
    """
    q = params.quad
    log = GenerationLog()
    target = cfg.p * params.cn * params.cn
    for attempt in range(cfg.retry_budget):
        log.attempts = attempt + 1
        sample = random_graph(params.two_an, float(cfg.p), seed=cfg.seed * 1_000_003 + attempt)
        worst, log.internal_mode = _count_certificate_ok(
            sample, params.cn, target, q.eps / 2,
            sample_count=cfg.cert_samples, seed=cfg.seed ^ 0x5EED,
        )
        if worst is None:
            break
    else:
        xs, ys, cross = worst
        lo, hi = _count_band(target, q.eps / 2)
        raise CertificationError(
            f"no sample passed pair-count certification in {cfg.retry_budget} attempts;"
            f" the last sample's pair X={list(xs)}, Y={list(ys)} has {cross} cross edges, outside [{lo}, {hi}]"
        )
    cleaned = _clean_short_cycles(sample, 2 * params.t, log)
    log.pre_prune_edges = cleaned.m
    final, _, removed = prune_to_size(cleaned, params.an)
    log.removed_vertices = removed
    log.final_max_degree = max_degree(final)
    cert = fit_density_certificate(
        final, params.cn, q.eps, mode="auto",
        sample_count=cfg.cert_samples, seed=cfg.seed ^ 0xCE47,
    )
    return final, cert, log


# -- verification ------------------------------------------------------------


@dataclass(frozen=True)
class ClassPReport:
    size_found: int
    size_wanted: int
    degree_ok: bool
    degree_found: int
    density: DensityCertificate
    short_cycle: tuple[int, ...] | None
    passed: bool

    def to_dict(self) -> dict:
        return {
            "size": {"ok": self.size_found == self.size_wanted, "found": self.size_found, "wanted": self.size_wanted},
            "degree": {"ok": self.degree_ok, "found": self.degree_found},
            "density": self.density.to_dict(),
            "girth": {"ok": self.short_cycle is None,
                      "shortCycle": list(self.short_cycle) if self.short_cycle else None},
            "passed": self.passed,
        }


def verify_class_p(
    g: Graph,
    params: ClassPParams,
    mode: str = "auto",
    sample_count: int = 300,
    seed: int = 0,
) -> ClassPReport:
    """Check the four class membership conditions; density per certificate."""
    deg = max_degree(g)
    degree_ok = Fraction(deg) <= params.quad.b
    cert = fit_density_certificate(g, params.cn, params.quad.eps, mode=mode,
                                   sample_count=sample_count, seed=seed)
    limit = 2 * params.t
    cyc = girth_violation(g, limit) if limit >= 3 else None
    passed = g.n == params.an and degree_ok and cert.passed and cyc is None
    return ClassPReport(g.n, params.an, degree_ok, deg, cert, tuple(cyc) if cyc else None, passed)


@dataclass(frozen=True)
class EdgeBoostReport:
    hypothesis_witness: tuple | None
    bound: Fraction
    min_cross: int | None


def verify_edgeboost(g: Graph, alpha_n: int, beta_n: int, mu_n: int) -> EdgeBoostReport:
    """One-edge-per-small-pair implies beta_n^2/(2 mu_n) edges per larger pair.

    Hypothesis (checked exhaustively): every disjoint pair of mu_n-sets spans
    at least one edge.  Conclusion: every disjoint pair of beta_n-sets spans at
    least beta_n^2 / (2 mu_n) edges.
    """
    if g.n != alpha_n:
        raise ParameterError(f"graph has {g.n} vertices, expected alpha_n = {alpha_n}")
    if not (1 <= 2 * mu_n <= beta_n <= alpha_n):
        raise ParameterError("need 2*mu_n <= beta_n <= alpha_n with mu_n >= 1")
    bound = Fraction(beta_n ** 2, 2 * mu_n)
    witness = _empty_cross_pair(g, mu_n, None)
    if witness is not None:
        return EdgeBoostReport(tuple(tuple(_mask_vertices(side)) for side in witness), bound, None)
    # The least record for the empty window [beta_n^2 + 1, beta_n^2] is the
    # fewest cross edges of any pair.
    records, _ = _routed_pairs(g, beta_n, beta_n * beta_n + 1, beta_n * beta_n, "exhaustive", None)
    return EdgeBoostReport(None, bound, min((e for _, _, e in records), default=None))


def _empty_cross_pair(g: Graph, k: int, budget: str | None) -> tuple[int, int] | None:
    """The first disjoint (k, k) pair with no cross edge, as masks, or None: the first record for [1, k^2]."""
    pairs, _ = _routed_pairs(g, k, 1, k * k, "exhaustive", budget)
    return next(((x, y) for x, y, _ in pairs), None)
