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
from operator import mul
from typing import Generator, Iterator, Sequence

from .errors import (
    BudgetExceededError,
    CertificationError,
    ParameterError,
    ParameterInfeasibleError,
)
from .graphs import (
    Graph,
    _cycle_path,
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
LEAF_LANES = 2001  # comb(14, 5) = 2002 takes a cold an = 20 certificate past 256 KiB
_TABLE_BYTES = 1 << 24  # the packed bound fields one n = 2k search keeps; past it, built per use


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


@dataclass(frozen=True)
class GoodnessReport:
    good: bool
    conditions: dict[str, bool]
    failing: tuple[str, ...]


def is_good(q: GoodQuadruple) -> GoodnessReport:
    """Admissibility test: a >= 2c+1, b >= 264 a^2 / (eps^2 c^2), eps < 1/10."""
    conditions = {
        "a >= 2c+1": q.a >= 2 * q.c + 1,
        "b >= 264 a^2 eps^-2 c^-2": q.b >= 264 * q.a ** 2 / (q.eps ** 2 * q.c ** 2),
        "eps < 1/10": q.eps < Fraction(1, 10),
    }
    failing = tuple(name for name, ok in conditions.items() if not ok)
    return GoodnessReport(not failing, conditions, failing)


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
            raise ParameterInfeasibleError(f"edge probability {self.p} outside (0, 1]")
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
    if r in (0, span):
        return (min(r, 1),) * span
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
    soon as the window covers its own.
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
    d-terms are packed per (v, r) on first use and kept until the kept pairs
    hold _TABLE_BYTES of fields; past that, a pair is rebuilt on each use.

    A node with r = 1, or whose subtree holds at most LEAF_LANES completions
    (comb(|U|, r)), is not branched.  Its completions x | S, S an r-subset of
    U, are the lanes of one packed int of the same width, in lexicographic
    order, which is the search's own; lane S holds cut(x | S) = cut(x) + sum
    over u in S of (deg(u) - 2 |N(u) & x|) - 2 e(S).  It is summed from
    per-offset membership lane ints and one lane int of e(S, V - S) per
    (i, r).  The membership ints depend on (width, |U|, r) alone, so
    _members keeps them and every call of that width shares them, until a
    call of another width starts and drops them: a table holds |U| ints of
    comb(|U|, r) <= LEAF_LANES lanes, at most (n - 1) * LEAF_LANES * width
    bytes, and the an = 20 certificates share 85 tables, about 200 KiB.  The
    e(S, V - S) ints depend on the graph: they are built once per call and
    freed with it.  A lane count lies in [0, k^2], so a field-wise top-bit
    test finds the lanes outside the window; the lowest is unranked back to
    S and yielded, and the test repeats on the lanes above it with the
    widened window.  Every completion is tested in order, so the records are
    exactly those of the branched search.
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
        tables = [[None] * n for _ in range(k)]  # [rest][v]: (lower, upper)
        room = _TABLE_BYTES // (2 * size)  # how many more pairs tables may keep
        cells = {}

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
            if room > 0:
                tables[rest][v], room = pair, room - 1
            return pair

        def cell(i: int, r: int) -> tuple[int, int]:
            # (1 in every lane, e(S, V - S) in lane l) for the l-th r-subset S
            # of range(i, last): the subsets holding i, then the rest.
            if r == 0:
                return 1, 0
            if r > last - i:
                return 0, 0
            got = cells.get((i, r))
            if got is None:
                (head_ones, head_cuts), (tail_ones, tail_cuts) = cell(i + 1, r - 1), cell(i + 1, r)
                inner, at = _members(width, last - i - 1, r - 1), shift * math.comb(last - i - 1, r - 1)
                near = _mask_vertices(masks[i] >> i + 1 & (1 << last - i - 1) - 1)  # offsets above i
                got = cells[i, r] = (head_ones | tail_ones << at, head_cuts + deg[i] * head_ones
                                     - 2 * sum(inner[j] for j in near) + (tail_cuts << at))
            return got

        def leaf(x: int, twice_x: int, cut: int, i: int, r: int):
            # The records among the completions x | S, S an r-subset of
            # range(i, last), from one packed int whose lane l is
            # cut(x | S) for the l-th S in lexicographic order.
            nonlocal least, greatest
            if r == 1:
                live = ones >> shift * (i + 1)
                packed = cut * (ones >> shift * i) + (degs >> shift * i) - (twice_x >> shift * i)
            else:
                live, cuts = cell(i, r)
                fields = twice_x.to_bytes(size, order)
                if width > 1:
                    fields = memoryview(fields).cast(code)
                packed = cut * live + cuts - sum(map(mul, fields[i:last], _members(width, last - i, r)))
            while live:
                tops = live << top_bit
                q = packed + tops  # lane + 2^top_bit: its top bit says lane >= c after c is taken off
                hits = tops & ((q - live * (min(max(greatest, -1), kk) + 1))
                               | ~(q - live * min(max(least, 0), kk + 1)))
                if not hits:
                    return
                at = ((hits & -hits).bit_length() - 1) // shift
                cv, s, v, rest = packed >> shift * at & lane, 0, i, r
                while rest:  # unrank lane `at`
                    head = math.comb(last - v - 1, rest - 1)
                    if at < head:
                        s, rest = s | 1 << v, rest - 1
                    else:
                        at -= head
                    v += 1
                yield x | s, full ^ x ^ s, cv
                least, greatest = min(least, cv), max(greatest, cv)
                live &= -(hits & -hits)  # the lanes above `at`

        def bisections(x: int, twice_x: int, cut: int, i: int, r: int, low: int, high: int):
            # Field u of twice_x is 2 |N(u) & x|.
            if r == 1 or math.comb(last - i, r) <= LEAF_LANES:
                yield from leaf(x, twice_x, cut, i, r)
                return
            rest = r - 1
            row, bias = tables[rest], rest * n
            for v in range(i, n - r):
                if low >= least and high <= greatest:
                    return
                cv = cut + deg[v] - 2 * (masks[v] & x).bit_count()
                twice_xv = twice_x + twice[v]
                lower, upper = row[v] or table(v, rest)
                lows = (lower - twice_xv).to_bytes(size, order)
                highs = (upper - twice_xv).to_bytes(size, order)
                if width > 1:
                    lows, highs = memoryview(lows).cast(code), memoryview(highs).cast(code)
                lo = cv + sum(sorted(lows[v + 1:last])[:rest]) - bias
                hi = cv + sum(sorted(highs[v + 1:last])[-rest:]) - bias
                if lo < low:
                    lo = low
                if hi > high:
                    hi = high
                if lo < least or hi > greatest:
                    yield bisections(x | 1 << v, twice_xv, cv, v + 1, rest, lo, hi)

        root = bisections(0, 0, 0, 0, k, 0, cap)
    else:
        # n > 2k.  While x is chosen, a y vertex u has between |N(u) & x| and
        # |N(u) & x| + min(r, |N(u) & candidates|) neighbours in the final x, and y
        # is k vertices outside x.  Once x is fixed, e is the sum of the weights
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
                floors = sorted(weights)
                ceilings = sorted([w + min(rest, (masks[u] & candidates).bit_count())
                                   for u, w in zip(comp, weights)])
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
        cell = bisections = x_sets = y_sets = None


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

    mode "auto" certifies exhaustively when the family fits the budget and
    samples otherwise; "exhaustive" raises if the family is too large.

    Every field follows from the count sum and the first pair reaching the
    least and the greatest count.  Exhaustively these are exact without
    visiting every pair: the sum is m * C(n-2, k-1) * C(n-k-1, k-1), and the
    first extreme pairs are the last records of _record_pairs, started on the
    empty window [k^2 + 1, -1], that lower and that raise its window; the
    record's position in that stream stands in for the pair's position in the
    tie-break below.  The search tests its small subtrees in one packed pass
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
    total = disjoint_pair_count(g.n, set_size)
    if total == 0:
        return DensityCertificate(
            f_ref=Fraction(1), mode="vacuous", tolerance=tolerance, max_rel_dev=Fraction(0),
            passed=True, pairs_checked=0,
        )
    if mode == "auto":
        mode = "exhaustive" if total <= PAIR_BUDGET else "sampled"
    masks = g.adjacency_masks()
    denom = set_size * set_size
    least, greatest = denom + 1, -1
    if mode == "exhaustive":
        if total > PAIR_BUDGET:
            raise BudgetExceededError(
                f"{total} pairs exceed the exhaustive budget {PAIR_BUDGET}", required=total
            )
        checked = total
        count_sum = g.m * math.comb(g.n - 2, set_size - 1) * math.comb(g.n - set_size - 1, set_size - 1)
        pairs = _record_pairs(masks, set_size, least, greatest)
        used_samples = None
        used_seed = None
    elif mode == "sampled":
        pairs = list(_sampled_pairs(masks, set_size, sample_count, seed))
        checked = sample_count
        count_sum = sum(e for _, _, e in pairs)
        used_samples = sample_count
        used_seed = seed
    else:
        raise ParameterError(f"unknown certification mode {mode!r}")

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
        dev, wpair = (dev_mean, worst_mean) if dev_mean is not None else (None, worst_mean)
        passed = False

    return DensityCertificate(
        f_ref=f, mode=mode, tolerance=tolerance, max_rel_dev=dev, passed=passed,
        pairs_checked=checked, sample_count=used_samples, seed=used_seed,
        worst_pair=(tuple(_mask_vertices(wpair[1])), tuple(_mask_vertices(wpair[2]))),
        feasible_low=lo, feasible_high=hi, mean_density=mean,
    )


def _count_certificate_ok(
    g: Graph, set_size: int, target: Fraction, slack: Fraction,
    sample_count: int, seed: int,
) -> tuple[bool, tuple | None, str]:
    """Check e(X,Y) within (1 +- slack)*target over the pair family; sampled if huge."""
    total = disjoint_pair_count(g.n, set_size)
    if total == 0:
        return True, None, "vacuous"
    masks = g.adjacency_masks()
    lo, hi = math.ceil((1 - slack) * target), math.floor((1 + slack) * target)
    if total <= PAIR_BUDGET:
        pairs = _record_pairs(masks, set_size, lo, hi)  # only pairs outside [lo, hi]
        mode = "exhaustive"
    else:
        pairs = _sampled_pairs(masks, set_size, sample_count, seed)
        mode = "sampled"
    for x, y, e in pairs:
        if not lo <= e <= hi:
            return False, (tuple(_mask_vertices(x)), tuple(_mask_vertices(y)), e), mode
    return True, None, mode


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
    on the first edge in sorted order that lies on one, traced by the same BFS.
    From it the edge with the largest endpoint degree sum goes (ties:
    lexicographically smallest pair), biasing the removals away from sparse
    regions; one pass over the cycle's consecutive pairs finds it.

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
        start, length = found
        cyc = _cycle_path(adj, *edges[start])
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
        found = _first_shortest_cycle(adj, edges, start, length, length)
        if found is None and length < limit:
            found = _first_shortest_cycle(adj, edges, 0, length + 1, limit)
    return _edge_subset(g, [adj[u] >> v & 1 for u, v in edges])


def prune_to_size(g: Graph, keep: int) -> tuple[Graph, tuple[int, ...], list[int]]:
    """Repeatedly delete a current-maximum-degree vertex (ties: smallest id) until `keep` remain.

    Live degrees are kept in a list: a victim is marked -1 and its live
    neighbours lose one each, and `max` returns the first maximum, which is
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
        victim = max(range(g.n), key=deg.__getitem__)
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
    sample: Graph | None = None
    worst = None
    for attempt in range(cfg.retry_budget):
        log.attempts = attempt + 1
        candidate = random_graph(params.two_an, float(cfg.p), seed=cfg.seed * 1_000_003 + attempt)
        ok, worst, mode = _count_certificate_ok(
            candidate, params.cn, target, q.eps / 2,
            sample_count=cfg.cert_samples, seed=cfg.seed ^ 0x5EED,
        )
        log.internal_mode = mode
        if ok:
            sample = candidate
            break
    if sample is None:
        raise CertificationError(
            f"no sample passed pair-count certification in {cfg.retry_budget} attempts",
            worst_pair=worst,
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
    size_ok: bool
    size_found: int
    size_wanted: int
    degree_ok: bool
    degree_found: int
    density: DensityCertificate
    girth_ok: bool
    short_cycle: tuple[int, ...] | None
    passed: bool

    def to_dict(self) -> dict:
        return {
            "size": {"ok": self.size_ok, "found": self.size_found, "wanted": self.size_wanted},
            "degree": {"ok": self.degree_ok, "found": self.degree_found},
            "density": self.density.to_dict(),
            "girth": {"ok": self.girth_ok, "shortCycle": list(self.short_cycle) if self.short_cycle else None},
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
    size_ok = g.n == params.an
    deg = max_degree(g)
    degree_ok = Fraction(deg) <= params.quad.b
    cert = fit_density_certificate(g, params.cn, params.quad.eps, mode=mode,
                                   sample_count=sample_count, seed=seed)
    limit = 2 * params.t
    cyc = girth_violation(g, limit) if limit >= 3 else None
    girth_ok = cyc is None
    passed = size_ok and degree_ok and cert.passed and girth_ok
    return ClassPReport(
        size_ok, g.n, params.an, degree_ok, deg, cert, girth_ok,
        tuple(cyc) if cyc else None, passed,
    )


@dataclass(frozen=True)
class EdgeBoostReport:
    hypothesis_ok: bool
    hypothesis_witness: tuple | None
    bound: Fraction
    min_cross: int | None
    worst_pair: tuple | None
    pairs_checked: int
    passed: bool


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
    masks = g.adjacency_masks()
    bound = Fraction(beta_n ** 2, 2 * mu_n)

    # The first record for the window [1, mu_n^2] is the first pair with no
    # cross edge; the last record for the empty window [beta_n^2 + 1, beta_n^2]
    # is the first pair with the fewest cross edges.
    for x, y, _ in _record_pairs(masks, mu_n, 1, mu_n * mu_n):
        witness = (tuple(_mask_vertices(x)), tuple(_mask_vertices(y)))
        return EdgeBoostReport(False, witness, bound, None, None, 0, False)

    min_cross: int | None = None
    worst = None
    for x, y, e in _record_pairs(masks, beta_n, beta_n * beta_n + 1, beta_n * beta_n):
        min_cross, worst = e, (x, y)
    if worst is not None:
        worst = (tuple(_mask_vertices(worst[0])), tuple(_mask_vertices(worst[1])))
    passed = min_cross is None or min_cross >= bound
    return EdgeBoostReport(True, None, bound, min_cross, worst,
                           disjoint_pair_count(g.n, beta_n), passed)
