"""Reference arrow oracle, kept for differential tests.

This is the walk the package's `arrow_check` must agree with exactly: every
colouring's base-s digits recomputed from its index, all s colour-class
masks rebuilt from those digits, and the pattern order, degrees and
back-neighbour lists recomputed for every colour of every colouring by
`ref_embed_masks`, the package's explicit-stack embedder as it was before
the pattern was prepared once.  A counterexample is re-checked by searching
each materialised colour class.
"""

from __future__ import annotations

import random
from typing import Sequence

from pathramsey import EdgeColouring, Embedding, Graph, validate_embedding
from pathramsey.colouring import ArrowVerdict, _prepare_pattern
from pathramsey.errors import BudgetExceededError, ConstructionError, ParameterError
from pathramsey.graphs import _mask_vertices


def ref_embed_masks(host_n: int, host_masks: Sequence[int], pattern: Graph):
    """First embedding of pattern into the mask graph; an explicit-stack depth-first search."""
    order = _prepare_pattern(pattern)[0]
    depth = len(order)
    host_deg = [m.bit_count() for m in host_masks]
    pat_masks = pattern.adjacency_masks()
    pat_deg = [m.bit_count() for m in pat_masks]
    back = []
    placed = 0
    for v in order:
        back.append(_mask_vertices(pat_masks[v] & placed))
        placed |= 1 << v
    assignment = [0] * pattern.n
    untried = [0] * depth
    full = (1 << host_n) - 1
    used = 0
    i = 0
    fresh = True
    while i < depth:
        v = order[i]
        if fresh:
            cand = full
            for w in back[i]:
                cand &= host_masks[assignment[w]]
            cand &= ~used
        else:
            cand = untried[i]
        while cand:
            low = cand & -cand
            cand ^= low
            hv = low.bit_length() - 1
            if host_deg[hv] >= pat_deg[v]:
                break
        else:
            if i == 0:
                return None
            i -= 1
            used &= ~(1 << assignment[order[i]])
            fresh = False
            continue
        untried[i] = cand
        assignment[v] = hv
        used |= low
        i += 1
        fresh = True
    return tuple(assignment)


def ref_mono_copy_colour(n: int, edges, pattern: Graph, s: int, digit: list[int]):
    """First colour whose class (edges[i] has colour digit[i] + 1) holds pattern, with the copy."""
    masks = [[0] * n for _ in range(s)]
    for (u, v), c in zip(edges, digit):
        masks[c][u] |= 1 << v
        masks[c][v] |= 1 << u
    for c in range(s):
        found = ref_embed_masks(n, masks[c], pattern)
        if found is not None:
            return c + 1, found
    return None


def ref_arrow_check(host: Graph, pattern: Graph, s: int, mode: str = "exhaustive",
                    trials: int = 10_000, seed: int = 0, budget: int = 2 ** 24) -> ArrowVerdict:
    if s < 1:
        raise ParameterError("colour count must be >= 1")
    m = host.m
    edges = host.sorted_edges()
    total = s ** m
    if mode == "exhaustive":
        if total > budget:
            raise BudgetExceededError(f"{total} colourings exceed the budget {budget}")
        indices = range(total)
    elif mode == "randomized":
        rng = random.Random(seed)
        indices = (rng.randrange(total) for _ in range(trials))
    else:
        raise ParameterError("mode must be 'exhaustive' or 'randomized'")

    witness = None
    searched = 0
    for x in indices:
        searched += 1
        digit = []
        y = x
        for _ in range(m):
            digit.append(y % s)
            y //= s
        hit = ref_mono_copy_colour(host.n, edges, pattern, s, digit)
        if hit is None:
            col = EdgeColouring(host, s, {e: digit[i] + 1 for i, e in enumerate(edges)})
            for c in range(1, s + 1):
                sub = col.colour_subgraph(c)
                if ref_embed_masks(sub.n, sub.adjacency_masks(), pattern) is not None:
                    raise ConstructionError("counterexample failed independent re-validation")
            return ArrowVerdict(False, col, None, searched)
        if witness is None:
            c, mapping = hit
            emb = Embedding(pattern, host, mapping)
            problem = validate_embedding(emb)
            if problem is not None:
                raise ConstructionError(f"witness embedding invalid: {problem}")
            witness = (c, emb)
    if mode == "exhaustive":
        return ArrowVerdict(True, None, witness, searched)
    return ArrowVerdict(None, None, witness, searched)
