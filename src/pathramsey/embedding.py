"""Embedding engines: validated injections, the derived-constants chain,
the greedy base-case embedding, grey-template extraction, and the
resample-until-clean local-lemma embedder.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import ConstructionError, LLLFailureError, ParameterError, PreconditionError
from .graphs import (
    BlowupMap,
    Graph,
    _blowup,
    distances,
    path_power,
    power,
    sheared_blowup,
    validate_path,
)
from .pseudorandom import GoodQuadruple, is_good

MAX_EXACT_BITS = 1_000_000


# -- embeddings --------------------------------------------------------------


@dataclass(frozen=True)
class Embedding:
    """Injective vertex map from a pattern graph into a host graph.

    mapping[i] is the host vertex carrying pattern vertex i.  When
    colour_constraint = (colouring, allowed) is present, every mapped pattern
    edge must land on a host edge whose colour lies in `allowed`.
    """

    pattern: Graph
    host: Graph
    mapping: tuple[int, ...]
    colour_constraint: tuple[object, frozenset[int]] | None = None

    def to_dict(self) -> dict:
        return {str(i): v for i, v in enumerate(self.mapping)}


def validate_embedding(e: Embedding) -> str | None:
    """The first problem with injectivity, edge coverage or the colour constraint, or None.

    Deliberately naive loops, independent of any constructor's bookkeeping.
    """
    if len(e.mapping) != e.pattern.n:
        return "mapping length differs from pattern order"
    for v in e.mapping:
        if not 0 <= v < e.host.n:
            return f"host vertex {v} out of range"
    if len(set(e.mapping)) != len(e.mapping):
        return "not injective"
    for u, v in e.pattern.edges:
        hu, hv = e.mapping[u], e.mapping[v]
        if not e.host.has_edge(hu, hv):
            return f"pattern edge ({u},{v}) maps to non-edge ({hu},{hv})"
        if e.colour_constraint is not None:
            col, allowed = e.colour_constraint
            if col.colour(hu, hv) not in allowed:
                return f"edge ({hu},{hv}) has a forbidden colour"
    return None


def _validated(e: Embedding, what: str) -> Embedding:
    """e itself once validate_embedding passes it; a failure is the builder's fault."""
    problem = validate_embedding(e)
    if problem is not None:
        raise ConstructionError(f"{what} embedding failed validation: {problem}")
    return e


# -- constants chain ---------------------------------------------------------


@dataclass(frozen=True)
class ConstantsChain:
    """Exact derived parameters for one induction level.

    clique_size is the exact blow-up clique size when it fits in
    MAX_EXACT_BITS bits and its decimal form in the interpreter's digit
    limit, else None; clique_log is its base-s logarithm (= s * t_prime)
    either way.  input_failing names the goodness conditions the input
    quadruple fails; the derived quadruple is always good.
    """

    k: int
    s: int
    r: int
    t: int
    quad: GoodQuadruple
    d0: Fraction
    t_prime: Fraction
    big_a: Fraction
    big_b: Fraction
    big_c: Fraction
    big_r: int
    delta: Fraction
    clique_log: Fraction
    clique_size: int | None
    input_failing: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "k": self.k, "s": self.s, "r": self.r, "t": self.t,
            "a": self.quad.a, "b": self.quad.b, "c": self.quad.c, "eps": self.quad.eps,
            "d0": self.d0,
            "Tprime": self.t_prime,
            "A": self.big_a, "B": self.big_b, "C": self.big_c,
            "R": self.big_r, "delta": self.delta,
            "logT_base_s": self.clique_log,
            "T": str(self.clique_size) if self.clique_size is not None else None,
            "TDigits": len(str(self.clique_size)) if self.clique_size is not None else None,
            "inputGood": not self.input_failing,
            "derivedGood": True,  # constants_chain raises otherwise
        }


def constants_chain(k: int, s: int, r: int, t: int, q: GoodQuadruple, d0) -> ConstantsChain:
    """Derive (A, B, C, delta), R = t*r, T' = b^{2rk} t^{2k}, T = s^{s T'} exactly.

    Goodness of the input quadruple is reported, not enforced, since exact
    evaluation is also wanted at desk-scale parameters no good quadruple can
    reach; a d0 or eps that leaves the derived quadruple bad is refused.
    """
    if min(k, s, r, t) < 1:
        raise ParameterError("k, s, r, t must be positive integers")
    d0 = Fraction(d0)
    if d0 <= 0:
        raise ParameterError("d0 must be positive")
    input_failing = is_good(q)
    digits = sys.get_int_max_str_digits()  # 0: no limit
    # T' = b^{2rk} t^{2k} has a numerator of at least num(b)^{2rk} and at least T', and a denominator
    # of at least den(b)^{2rk} / t^{2k}: one is at least 2^bits, past the digit limit once
    # 100 bits >= 333 digits.  Such a T' is not built, and is refused (None) in its turn below.
    num, den = q.b.numerator, q.b.denominator
    bits = 2 * k * max(r * (num.bit_length() - 1) + max(0, t.bit_length() - 1 - r * (den - 1).bit_length()),
                       r * (den.bit_length() - 1) - (t - 1).bit_length())
    t_prime = None if digits and 100 * bits >= 333 * digits else q.b ** (2 * r * k) * Fraction(t) ** (2 * k)
    big_a = 2 * d0 * (q.a + 1) * s * t
    big_c = min(Fraction(1, 2 * s * t), q.eps ** 2 * q.c ** 2 / (240 * q.a))
    big_r = t * r
    delta = q.eps / 2
    big_b = 264 * big_a ** 2 / (delta ** 2 * big_c ** 2)
    clique_log = None if t_prime is None else s * t_prime
    printed = {"a": q.a, "b": q.b, "c": q.c, "eps": q.eps, "d0": d0, "Tprime": t_prime, "A": big_a,
               "B": big_b, "C": big_c, "delta": delta, "logT_base_s": clique_log}
    for name, x in printed.items():  # each is positive, or None if too long to build
        if x is None or digits and max(x.numerator, x.denominator) >= 10 ** digits:
            raise ParameterError(f"{name} has more than {digits} decimal digits, too many to print")
    clique_size: int | None = None
    # Integers only: e may be far past any float.  s^e has at least
    # e * floor(log2 s) bits, so it is built only when that fits.
    e = clique_log.numerator
    if clique_log.denominator == 1 and (s.bit_length() - 1) * e <= MAX_EXACT_BITS:
        size = s ** e
        if size <= 1 << MAX_EXACT_BITS and not (digits and size >= 10 ** digits):
            clique_size = size
    # The derived quadruple is good unless one of these fails: B meets its bound with equality.
    if big_a < 2 * big_c + 1:
        least = (2 * big_c + 1) / (2 * (q.a + 1) * s * t)
        raise ParameterError(
            f"d0 = {d0} is too small: the derived A = 2 d0 (a+1) s t must be >= 2C+1, so d0 >= {least}")
    if delta >= Fraction(1, 10):
        raise ParameterError(f"eps = {q.eps} is too large: the derived delta = eps/2 must be < 1/10, so eps < 1/5")
    return ConstantsChain(
        k, s, r, t, q, d0, t_prime, big_a, big_b, big_c, big_r, delta,
        clique_log, clique_size, input_failing,
    )


# -- greedy base-case embedding ----------------------------------------------


def _greedy_window(
    host: Graph, bmap: BlowupMap, path_vertices: Sequence[int], k: int
) -> tuple[int, ...]:
    """Left to right, the lowest vertex of each clique adjacent to the last k picks.

    Returns the picks placed before the first clique with no candidate, so a
    tuple shorter than the path says where the window got stuck.
    """
    chosen: list[int] = []
    for idx, v in enumerate(path_vertices):
        window = chosen[max(0, idx - k):]
        candidates = [
            w for w in bmap.clique_of[v] if all(host.has_edge(w, p) for p in window)
        ]
        if not candidates:
            break
        chosen.append(min(candidates))
    return tuple(chosen)


def embed_base_case(
    g: Graph, k: int, vertices: Sequence[int], matching_seed: int | None = None
) -> Embedding:
    """Embed the k-th power of an n-path into the sheared (k+1)-blow-up of g^k.

    Walk the given path of g left to right; at each step pick the lowest vertex of
    the next clique adjacent to the k previously chosen vertices.  Each earlier
    vertex excludes at most one candidate (one removed matching partner), and
    the clique has k+1 vertices, so a candidate always remains.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    validate_path(g, vertices)
    host_base = power(g, k)
    host, bmap = sheared_blowup(host_base, k + 1, seed=matching_seed)
    chosen = _greedy_window(host, bmap, vertices, k)
    return _validated(Embedding(path_power(len(vertices), k), host, chosen), "greedy")


# -- template containment ------------------------------------------------------


def check_template_containment(
    h: Graph,
    r: int,
    t: int,
    segments: list[tuple[int, ...]],
    j: Graph,
    blue: Graph,
    base: Graph,
) -> tuple[Graph, bool]:
    """Verify the blow-up template sits inside j and carve out its grey copy.

    For every segment pair at h-distance <= r, all cross pairs must be j-edges
    and every segment must span a j-clique.  The blue cross pairs per segment
    pair, blue being the blue graph of a blue/grey colouring of j, must form
    at most a matching; they are extended to a perfect matching and removed,
    leaving a sheared blow-up of h^r whose edges are all grey.  The base graph
    (on j's vertices) additionally checks that segments at h-distance d sit
    within base distance (t-1)m + (m-1), m = d+1, of each other.  Template
    vertex i*t + p is position p of segment i.

    Returns (template, distance_ok).  Raises PreconditionError naming the
    first pair outside j, else the last grey problem.
    """
    if h.n != len(segments):
        raise ParameterError("one segment per template vertex required")
    for seg in segments:
        if len(seg) != t:
            raise ParameterError("every segment must have exactly t vertices")
    flat = [v for seg in segments for v in seg]
    if len(set(flat)) != len(flat):
        raise ParameterError("segments overlap")
    for v in flat:
        if v not in range(j.n):
            raise ParameterError(f"segment vertex {v} out of range for n={j.n}")

    # Each segment must span a j-clique with no blue pair inside.
    grey_problem = None
    for i, seg in enumerate(segments):
        for x, y in combinations(seg, 2):
            if not j.has_edge(x, y):
                raise PreconditionError(f"containment fails at {((i, i), (x, y))}")
            if blue.has_edge(x, y):
                grey_problem = f"pair {(min(x, y), max(x, y))} inside segment {i} is not grey"

    # Each hr-edge needs complete cross pairs and at most a matching of blue
    # ones.  A connecting path over m = d+1 segments walks at most t-1 steps
    # inside each segment plus m-1 crossing edges, so representatives sit at
    # base distance at most (t-1)m + (m-1).  The bound stays below t*r
    # exactly when the pair is at h-distance < r.
    distance_ok = True
    hdist: dict[int, list[float]] = {}  # computed once per first endpoint, as hr's edges ascend
    bdist: dict[int, list[float]] = {}  # filled after a j-edge: a vertex outside j fails containment
    perms = []  # per hr edge, the removed matching as a permutation
    hr = power(h, r)
    for i1, i2 in hr.sorted_edges():
        if i1 not in hdist:
            hdist[i1] = distances(h, i1)
        m = int(hdist[i1][i2]) + 1
        limit = (t - 1) * m + (m - 1)
        match, matching = {}, True  # the blue cross pairs as positions a -> b
        for a, x in enumerate(segments[i1]):
            for b, y in enumerate(segments[i2]):
                if not j.has_edge(x, y):
                    raise PreconditionError(f"containment fails at {((i1, i2), (x, y))}")
                if x not in bdist:
                    bdist[x] = distances(base, x)
                if bdist[x][y] > limit:
                    distance_ok = False
                if blue.has_edge(x, y):
                    matching = matching and a not in match and b not in match.values()
                    match[a] = b
        if not matching:
            grey_problem = f"non-grey pairs between segments {i1},{i2} exceed a matching"
        # Extend the partial matching to a perfect one over position indices.
        free_right = [b for b in range(t) if b not in match.values()]
        perms.append([match[a] if a in match else free_right.pop(0) for a in range(t)])
    if grey_problem is not None:
        raise PreconditionError(grey_problem)
    return _blowup(hr, t, perms)[0], distance_ok


# -- local-lemma embedder -------------------------------------------------------


@dataclass(frozen=True)
class LLLInstance:
    """One bad-event system: pick one host vertex per template vertex.

    bad_pairs[e] lists, per template edge e = (u, v) with u < v, the
    (choice-for-u, choice-for-v) pairs that are forbidden (blue or missing in
    the host).  dependency_degree is the max number of other events sharing a
    variable with one event; condition_value = 4 * that * worst bad fraction.
    """

    template: Graph
    cliques: tuple[tuple[int, ...], ...]
    bad_pairs: dict[tuple[int, int], frozenset[tuple[int, int]]]
    host: Graph
    chi: object | None
    blue_colour: int | None
    dependency_degree: int
    condition_value: Fraction

    @property
    def feasible(self) -> bool:
        return self.condition_value <= 1

    def to_dict(self) -> dict:
        return {
            "templateVertices": self.template.n,
            "templateEdges": self.template.m,
            "dependencyDegree": self.dependency_degree,
            "conditionValue": self.condition_value,
            "feasible": self.feasible,
        }


def make_lll_instance(
    template: Graph,
    cliques: list[tuple[int, ...]],
    host: Graph,
    chi=None,
    blue_colour: int | None = None,
) -> LLLInstance:
    """Build the bad-pair table: forbidden = non-adjacent in host, or blue_colour (in 1..chi.s) under chi.

    The candidate sets must be disjoint: two template vertices with no edge
    between them share no bad event, so nothing would keep them apart.
    """
    if chi is None and blue_colour is not None:
        raise ParameterError("a blue colour needs a colouring")
    if chi is not None and blue_colour not in range(1, chi.s + 1):
        raise ParameterError(f"blue colour {blue_colour} outside 1..{chi.s}")
    if len(cliques) != template.n:
        raise ParameterError("one candidate clique per template vertex required")
    owner: dict[int, int] = {}
    for i, cl in enumerate(cliques):
        if not cl:
            raise ParameterError(f"candidate set of template vertex {i} is empty")
        for x in cl:
            if type(x) is not int or not 0 <= x < host.n:
                raise ParameterError(f"candidate {x!r} of template vertex {i} is not a host vertex")
            if owner.setdefault(x, i) != i:
                raise ParameterError(
                    f"candidate sets of template vertices {owner[x]} and {i} share host vertex {x}"
                )
    bad: dict[tuple[int, int], frozenset] = {}
    for u, v in template.sorted_edges():
        pairs = []
        for x in cliques[u]:
            for y in cliques[v]:
                missing = not host.has_edge(x, y)
                blue = chi is not None and not missing and chi.colour(x, y) == blue_colour
                if missing or blue:
                    pairs.append((x, y))
        bad[(u, v)] = frozenset(pairs)
    deg = [m.bit_count() for m in template.adjacency_masks()]
    dep = max((deg[u] + deg[v] - 2 for u, v in template.edges), default=0)
    worst = Fraction(0)
    for (u, v), pairs in bad.items():
        frac = Fraction(len(pairs), len(cliques[u]) * len(cliques[v]))
        worst = max(worst, frac)
    condition = 4 * dep * worst
    return LLLInstance(template, tuple(tuple(c) for c in cliques), bad, host,
                       chi, blue_colour, dep, condition)


def _draw(seed: int, var: int, counter: int, size: int) -> int:
    rng = random.Random((seed * 1_000_003 + var) * 1_000_003 + counter)
    return rng.randrange(size)


def lll_embed(instance: LLLInstance, seed: int, max_resamples: int) -> Embedding:
    """Resample-until-clean: while some edge lands on a bad pair, redraw its endpoints.

    Events are scanned in sorted edge order and the lowest violated one is
    resampled; draws come from a per-variable counter stream, so runs replay
    exactly for a given seed.  Exhausting the budget raises with per-event
    violation statistics.
    """
    if max_resamples < 1:
        raise ParameterError("max_resamples must be >= 1")
    n = instance.template.n
    counters = [0] * n
    choice = [0] * n
    for u in range(n):
        choice[u] = _draw(seed, u, 0, len(instance.cliques[u]))
    edges = instance.template.sorted_edges()
    violations = {e: 0 for e in edges}
    resamples = 0
    while True:
        bad_edge = None
        for (u, v) in edges:
            pair = (instance.cliques[u][choice[u]], instance.cliques[v][choice[v]])
            if pair in instance.bad_pairs[(u, v)]:
                bad_edge = (u, v)
                break
        if bad_edge is None:
            break
        violations[bad_edge] += 1
        resamples += 1
        if resamples > max_resamples:
            raise LLLFailureError(
                f"resample budget {max_resamples} exhausted",
                stats={
                    "resamples": resamples - 1,
                    "violations": {f"{u},{v}": c for (u, v), c in violations.items() if c},
                    "conditionValue": instance.condition_value,
                },
            )
        for var in bad_edge:
            counters[var] += 1
            choice[var] = _draw(seed, var, counters[var], len(instance.cliques[var]))
    mapping = tuple(instance.cliques[u][choice[u]] for u in range(n))
    constraint = None
    if instance.chi is not None:
        allowed = frozenset(
            c for c in range(1, instance.chi.s + 1) if c != instance.blue_colour
        )
        constraint = (instance.chi, allowed)
    return _validated(Embedding(instance.template, instance.host, mapping, constraint), "resampled")
