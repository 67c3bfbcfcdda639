"""The benchmark workloads: instances drawn from a seed, the timed call of
each, and the untimed check of its output.

A workload is built in set-up from the package module, the seed and its
expected-verdict file.  `next_round()` returns a fixed mix of instances, each
drawn from a finite pool, so every instance has a stable key under which its
expected verdict (expected/<workload>.json) and replay digest (digests.json)
are stored, and `pool()` yields every instance that a round can draw.
The package is reached only through module attributes at call time, so a
tracer that patches those attributes sees every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb
from typing import Any, Callable

import oracle


@dataclass
class Instance:
    key: str
    family: str
    call: Callable[[], tuple[Any, str]]  # timed: (output, canonical report text)
    check: Callable[[Any], list[str]]  # untimed: problems found in the output


class Deck:
    """Draws from a pool in seeded shuffled passes, so every run sees each
    member about equally often and the mix of instance sizes barely varies."""

    def __init__(self, rng: random.Random, pool):
        self.rng, self.pool, self.queue = rng, list(pool), []

    def draw(self):
        if not self.queue:
            self.queue = self.rng.sample(self.pool, len(self.pool))
        return self.queue.pop()


def expected_for(expected: dict, key: str, family: str) -> dict:
    """An instance's own entry in an expected-verdict file, else its family's."""
    return expected["instances"].get(key) or expected["families"][family]


def _toy_cfg(pr, **overrides):
    base = dict(
        k=1, s=2, r=1, t=2, n=4, clique_size=5, mono_target=4,
        out_quad=pr.quad(1, 64, "1/2", "4/5"),
        in_quad=pr.quad(1, 1000, "1/2", "4/5"),
        seed=11,
    )
    base.update(overrides)
    return pr.PipelineConfig(**base)


# -- classp -------------------------------------------------------------------

# exact: an = 20, cn = 10, so both certificates enumerate all 92,378 pairs.
# girth: t = 2 removes every cycle of length <= 4 (about 430 per member) and
# the an = 32 pair family is sampled.
CLASSP_FAMILIES = {
    "exact": {"t": 1, "n": 20, "p": Fraction(7, 10), "an": 20, "cn": 10},
    "girth": {"t": 2, "n": 32, "p": Fraction(3, 10), "an": 32, "cn": 16},
}
# Two exact members per girth member keep the median inside the exact family,
# whose exhaustive certificates are the pair kernel's main load.
CLASSP_ROUND = ("exact", "exact", "girth")
CLASSP_POOL = 24
CLASSP_MAX_DEGREE = 64


class ClassP:
    name = "classp"

    def __init__(self, pr, seed: int, expected: dict):
        self.pr = pr
        self.rng = random.Random(seed)
        self.expected = expected
        q = pr.quad(1, CLASSP_MAX_DEGREE, "1/2", "4/5")
        self.params = {
            fam: pr.ClassPParams(q, t=spec["t"], n=spec["n"])
            for fam, spec in CLASSP_FAMILIES.items()
        }
        self.decks = {fam: Deck(self.rng, range(CLASSP_POOL)) for fam in CLASSP_FAMILIES}

    def next_round(self) -> list[Instance]:
        return [self.instance(fam, self.decks[fam].draw()) for fam in CLASSP_ROUND]

    def pool(self):
        for fam in CLASSP_FAMILIES:
            for gen_seed in range(CLASSP_POOL):
                yield self.instance(fam, gen_seed)

    def instance(self, family: str, gen_seed: int) -> Instance:
        pr = self.pr
        spec = CLASSP_FAMILIES[family]
        params = self.params[family]

        def call():
            g, cert, log = pr.generate_class_p(params, pr.GenerationConfig(p=spec["p"], seed=gen_seed))
            # Verify under the certificate's own sample, so a sampled member is
            # re-checked on the pairs it was certified on.
            rep = pr.verify_class_p(
                g, params, mode="auto",
                sample_count=cert.sample_count or 300, seed=cert.seed or 0,
            )
            text = pr.serialize.dump_report({
                "member": g.sorted_edges(), "certificate": cert.to_dict(),
                "log": log.to_dict(), "verify": rep.to_dict(),
            })
            return (g, cert, rep), text

        key = f"{family}/gen{gen_seed}"

        def check(out) -> list[str]:
            g, cert, rep = out
            want = expected_for(self.expected, key, family)
            problems = []
            if (cert.passed, rep.passed) != (want["passed"], want["passed"]):
                problems.append(f"passed: generator {cert.passed}, verifier {rep.passed}, expected {want['passed']}")
            if (cert.mode, rep.density.mode) != (want["densityMode"], want["densityMode"]):
                problems.append(f"certificate mode {cert.mode}/{rep.density.mode}, expected {want['densityMode']}")
            if rep.density.to_dict() != cert.to_dict():
                problems.append("verifier certificate differs from the generator's")
            return problems + _recheck_member(g.n, g.edges, rep.density, spec)

        return Instance(key, family, call, check)


def _recheck_member(n: int, edges, cert, spec: dict) -> list[str]:
    """Size, degree and girth from the edge set; the certificate's worst pair by direct count."""
    problems = []
    an, cn = spec["an"], spec["cn"]
    if n != an:
        problems.append(f"member has {n} vertices, expected {an}")
    if oracle.max_degree(n, edges) > CLASSP_MAX_DEGREE:
        problems.append("member exceeds the degree bound")
    if 2 * spec["t"] >= 3 and oracle.girth(n, edges) <= 2 * spec["t"]:
        problems.append(f"member has a cycle of length <= {2 * spec['t']}")
    xs, ys = cert.worst_pair
    if len(xs) != cn or len(ys) != cn or set(xs) & set(ys):
        problems.append(f"worst pair {cert.worst_pair} is not two disjoint {cn}-sets")
    else:
        dev = abs(Fraction(oracle.cross_count(edges, xs, ys), cn * cn) / cert.f_ref - 1)
        if dev != cert.max_rel_dev:
            problems.append(f"worst pair deviates by {dev}, certificate says {cert.max_rel_dev}")
    if cert.passed and cert.max_rel_dev > cert.tolerance:
        problems.append("certificate passes with a deviation above its tolerance")
    if cert.mode == "exhaustive" and cert.pairs_checked != comb(an, cn) * comb(an - cn, cn) // 2:
        problems.append(f"exhaustive certificate checked {cert.pairs_checked} pairs")
    return problems


# -- step ---------------------------------------------------------------------

# Grey-route members: the class-P graphs of test_grey_route_reaches_reduced_colours
# (an = 16) over generator seeds that end in reducedColours or in a
# segment-graph-class failure; GREY_MEMBERS of them are built in set-up.
GREY_POOL = 16
GREY_MEMBERS = 4
ADVERSARIAL_POOL = 16
RANDOM_POOL = [(cycle, clique, col) for cycle in (12, 16, 20, 24)
               for clique in (12, 16, 20, 24) for col in range(4)]
# base_case_driver on supplied cycles: (k, t, n, cycle length, matching seed)
BASE_POOL = [(k, t, n, cycle, match)
             for k, t, n, cycle in ((1, 2, 12, 24), (2, 3, 8, 16), (1, 2, 16, 32), (3, 4, 8, 16))
             for match in (None, 1, 2)]
BASE_QUAD = (2, 1_700_000, "1/2", "1/20")
STEP_ROUND = ("grey", "grey", "adversarial", "random", "random", "base")


def _clique_cross(host, clique_size: int) -> dict:
    """Blow-up cliques in colour 1, every cross edge in colour 2."""
    return {e: 1 if e[0] // clique_size == e[1] // clique_size else 2 for e in host.edges}


class Step:
    name = "step"

    def __init__(self, pr, seed: int, expected: dict):
        self.pr = pr
        self.rng = random.Random(seed)
        self.expected = expected
        self.member_params = pr.ClassPParams(pr.quad(1, 64, "1/2", "4/5"), t=1, n=16)
        self.members = {s: self._member(s) for s in self.rng.sample(range(GREY_POOL), GREY_MEMBERS)}
        self.decks = {
            "grey": Deck(self.rng, sorted(self.members)),
            "adversarial": Deck(self.rng, range(ADVERSARIAL_POOL)),
            "random": Deck(self.rng, RANDOM_POOL),
            "base": Deck(self.rng, BASE_POOL),
        }

    def _member(self, gen_seed: int):
        pr = self.pr
        return pr.generate_class_p(self.member_params, pr.GenerationConfig(p=Fraction(7, 10), seed=gen_seed))[0]

    def next_round(self) -> list[Instance]:
        # each family's instance maker is the method of the same name
        return [getattr(self, fam)(self.decks[fam].draw()) for fam in STEP_ROUND]

    def pool(self):
        for s in range(GREY_POOL):
            if s not in self.members:
                self.members[s] = self._member(s)
            yield self.grey(s)
        for s in range(ADVERSARIAL_POOL):
            yield self.adversarial(s)
        for item in RANDOM_POOL:
            yield self.random(item)
        for item in BASE_POOL:
            yield self.base(item)

    def _step(self, key: str, family: str, base_graph, cfg, colour_rule) -> Instance:
        pr = self.pr

        def call():
            g = base_graph()
            host, bmap = pr.build_step_host(g, cfg)
            colour = colour_rule(host)
            chi = pr.EdgeColouring(host, cfg.s, colour)
            outcome = pr.induction_step(g, host, bmap, chi, cfg)
            text = (pr.serialize.dump_report(outcome.to_dict())
                    + pr.serialize.dump_report({"trace": outcome.trace}))
            return (host, colour, outcome), text

        def check(out) -> list[str]:
            host, colour, outcome = out
            want = expected_for(self.expected, key, family)
            got = {"kind": outcome.kind}
            if outcome.failure_stage is not None:
                got["failureStage"] = outcome.failure_stage
            if got != want:
                return [f"outcome {got}, expected {want}"]
            return _recheck_outcome(outcome, host.edges, colour, cfg)

        return Instance(key, family, call, check)

    def grey(self, gen_seed: int) -> Instance:
        pr = self.pr
        cfg = _toy_cfg(pr, t=1, n=3, out_quad=pr.quad(1, 64, "2/3", "4/5"),
                       in_quad=pr.quad(1, 2000, "2/3", "4/5"), seed=0)
        member = self.members[gen_seed]
        return self._step(f"grey/member{gen_seed}", "grey", lambda: member, cfg,
                          lambda host: _clique_cross(host, cfg.clique_size))

    def adversarial(self, cfg_seed: int) -> Instance:
        pr = self.pr
        cfg = _toy_cfg(pr, n=3, seed=cfg_seed)
        return self._step(f"adversarial/C12/cfg{cfg_seed}", "adversarial",
                          lambda: pr.cycle_graph(12), cfg,
                          lambda host: _clique_cross(host, cfg.clique_size))

    def random(self, item: tuple[int, int, int]) -> Instance:
        pr = self.pr
        cycle, clique, col_seed = item
        cfg = _toy_cfg(pr, n=3, clique_size=clique, seed=col_seed)

        def colour_rule(host):
            rng = random.Random(col_seed)
            return {e: rng.randint(1, 2) for e in sorted(host.edges)}

        return self._step(f"random/C{cycle}/K{clique}/col{col_seed}", "random",
                          lambda: pr.cycle_graph(cycle), cfg, colour_rule)

    def base(self, item: tuple) -> Instance:
        pr = self.pr
        k, t, n, cycle, match = item
        key = f"base/k{k}/t{t}/n{n}/C{cycle}/match{match}"

        def call():
            params = pr.ClassPParams(pr.quad(*BASE_QUAD), t=t, n=n)
            emb = pr.base_case_driver(k, params, pr.GenerationConfig(p=Fraction(1), seed=0),
                                      base_graph=pr.cycle_graph(cycle), matching_seed=match)
            text = pr.serialize.dump_report({"embedding": emb.to_dict(), "patternVertices": emb.pattern.n})
            return emb, text

        def check(emb) -> list[str]:
            want = expected_for(self.expected, key, "base")
            if want != {"kind": "embedding"}:
                return [f"embedding returned, expected {want}"]
            problems = []
            if set(emb.pattern.edges) != oracle.path_power_edges(n, k):
                problems.append(f"pattern is not the {k}-th power of a {n}-vertex path")
            if emb.host.n != cycle * (k + 1):
                problems.append(f"host has {emb.host.n} vertices, expected {cycle * (k + 1)}")
            return problems + oracle.embedding_problems(emb.pattern.edges, emb.mapping, emb.host.edges)

        return Instance(key, "base", call, check)


def _recheck_outcome(outcome, host_edges, colour: dict, cfg) -> list[str]:
    """Trace shape, and the returned embedding against the benchmark's own colouring."""
    statuses = [entry["status"] for entry in outcome.trace]
    last = "failed" if outcome.kind == "honestFailure" else "ok"
    if not statuses or statuses[-1] != last or any(s != "ok" for s in statuses[:-1]):
        return [f"trace statuses {statuses} do not end a {outcome.kind} outcome"]
    if outcome.kind == "monoPowerFound":
        emb = outcome.embedding
        _, allowed = emb.colour_constraint
        n_pattern = 2 * cfg.k * cfg.n
        if len(allowed) != 1:
            return [f"monochromatic embedding allows colours {sorted(allowed)}"]
        if set(emb.pattern.edges) != oracle.path_power_edges(n_pattern, cfg.k):
            return [f"pattern is not the path power on {n_pattern} vertices"]
    elif outcome.kind == "reducedColours":
        emb = outcome.template_embedding
        allowed = outcome.reduced_colours
        if len(allowed) != cfg.s - 1:
            return [f"reduced colours {sorted(allowed)} do not drop one colour"]
    else:
        return []
    return oracle.embedding_problems(emb.pattern.edges, emb.mapping, host_edges, colour, allowed)


# -- arrow --------------------------------------------------------------------

PATTERNS = {
    "K3": (3, ((0, 1), (0, 2), (1, 2))),
    "C4": (4, ((0, 1), (1, 2), (2, 3), (0, 3))),
    "K1,3": (4, ((0, 1), (0, 2), (0, 3))),
    "P4": (4, ((0, 1), (1, 2), (2, 3))),
    "P3": (3, ((0, 1), (1, 2))),
}
# (host K_n, pattern, colours); the answers are in expected/arrow.json.
ARROW_CASES = (
    (6, "K3", 2), (6, "C4", 2), (6, "K1,3", 2), (5, "P4", 2), (5, "P3", 3),
    (5, "K3", 2), (5, "C4", 2), (5, "K1,3", 2), (4, "P4", 2), (4, "P3", 3),
)


def _case(n: int, name: str, s: int) -> str:
    return f"K{n}-{name}-s{s}"


class Arrow:
    name = "arrow"

    def __init__(self, pr, seed: int, expected: dict):
        self.pr = pr
        self.rng = random.Random(seed)
        self.expected = expected
        self._lowest: dict = {}

    def next_round(self) -> list[Instance]:
        """Every true case once and every false case twice, in a seeded order,
        each pattern under a seeded relabelling.

        Doubling the false cases puts the median among the searches that stop
        at a counterexample and the tail among the walks over every colouring.
        """
        cases = [c for c in ARROW_CASES for _ in range(1 if self.expected[_case(*c)]["arrows"] else 2)]
        self.rng.shuffle(cases)
        out = []
        for n, name, s in cases:
            perm = list(range(PATTERNS[name][0]))
            self.rng.shuffle(perm)
            out.append(self.instance(n, name, s, tuple(perm)))
        return out

    def pool(self):
        for n, name, s in ARROW_CASES:
            for perm in permutations(range(PATTERNS[name][0])):
                yield self.instance(n, name, s, perm)

    def instance(self, n: int, name: str, s: int, perm: tuple[int, ...]) -> Instance:
        pr = self.pr
        case = _case(n, name, s)
        k, base_edges = PATTERNS[name]
        pattern_edges = [oracle.norm(perm[a], perm[b]) for a, b in base_edges]

        def call():
            verdict = pr.arrow_check(pr.complete_graph(n), pr.Graph(k, pattern_edges), s, mode="exhaustive")
            text = pr.serialize.dump_report(verdict.to_dict())
            return (verdict, json.loads(text)), text

        def check(out) -> list[str]:
            verdict, report = out
            want = self.expected[case]["arrows"]
            if verdict.arrows is not want:
                return [f"arrows {verdict.arrows}, expected {want}"]
            edges = oracle.complete_edges(n)
            if want:
                if verdict.witness is None:
                    return []
                return oracle.embedding_problems(pattern_edges, verdict.witness[1].mapping, set(edges))
            # The search effort (verdict.searched) is not checked: a pruned
            # search may count differently, but must return the same colouring.
            digits = report["counterexample"].split(";", 2)[2]
            col = {e: int(d) + 1 for e, d in zip(edges, digits)}
            if not oracle.avoids_pattern(n, col, s, pattern_edges, k):
                return ["counterexample has a monochromatic copy"]
            if case not in self._lowest:
                self._lowest[case] = oracle.lowest_counterexample(n, s, base_edges, k)
            index = oracle.index_of_colouring(edges, col, s)
            if index != self._lowest[case]:
                return [f"counterexample has index {index}; the lowest is {self._lowest[case]}"]
            return []

        return Instance(f"{case}/perm{''.join(map(str, perm))}", case, call, check)


WORKLOADS = {cls.name: cls for cls in (ClassP, Step, Arrow)}
