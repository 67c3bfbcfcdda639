"""Command-line surface.

Exit codes: 0 success / property holds, 1 honest negative (no constrained
path, arrows false, honest pipeline failure), 2 error (bad config,
infeasible parameters, or an unexpected internal error, reported on one line).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import (
    BaseCaseError,
    ClassPParams,
    EdgeColouring,
    GenerationConfig,
    GoodQuadruple,
    LLLFailureError,
    NoPathFoundError,
    ParameterError,
    PathRamseyError,
    PipelineConfig,
    arrow_check,
    base_case_driver,
    build_aux_colouring,
    build_step_host,
    complete_blowup,
    complete_graph,
    constants_chain,
    cycle_graph,
    embed_base_case,
    generate_class_p,
    graph_from_text,
    graph_to_text,
    induction_step,
    lll_embed,
    long_path_through_sets,
    make_lll_instance,
    partition_two_coloured,
    path_graph,
    power,
    segment_path,
    sheared_blowup,
    verify_class_p,
)
from .serialize import dump_report, parse_frac


class ConfigError(Exception):
    pass


def _read_text(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} is not UTF-8 text: {path}") from exc


def _read_graph(path: str):
    return graph_from_text(_read_text(path, "graph file"))


def _read_json(path: str, what: str):
    text = _read_text(path, what)
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def _read_config(path: str | None) -> dict:
    if path is None:
        raise ConfigError("this subcommand needs --config <file>")
    doc = _read_json(path, "config file")
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return doc


def _field(doc: dict, name: str):
    if name not in doc:
        raise ConfigError(f"config field '{name}' is missing")
    return doc[name]


_REQUIRED = object()


def _integer(doc: dict, name: str, default=_REQUIRED) -> int | None:
    """A config field that must be a JSON integer; `default` when absent.

    A None default also accepts an explicit null.  Floats, strings and booleans
    are refused rather than coerced: int(6.9) would be 6 and int(True) 1.
    """
    value = _field(doc, name) if default is _REQUIRED else doc.get(name, default)
    if value is None and default is None:
        return None
    if type(value) is not int:  # bool is an int subclass, so test the exact type
        raise ConfigError(f"config field '{name}' must be an integer")
    return value


def _string(doc: dict, name: str) -> str:
    """A required config field that must be a JSON string, such as a file name."""
    if not isinstance(value := _field(doc, name), str):
        raise ConfigError(f"config field '{name}' must be a string")
    return value


def _rational(doc: dict, name: str) -> Fraction:
    return _parse_rational(_field(doc, name), f"config field '{name}'")


def _parse_rational(value, what: str) -> Fraction:
    digits = sys.get_int_max_str_digits()  # 0: no limit; reports print every rational they take
    too_long = ConfigError(f"{what} has more than {digits} decimal digits, too many to print")
    if digits and isinstance(value, str):
        # Fraction builds 10**exponent before any size check; past digits plus
        # the mantissa's length, only a zero mantissa leaves a printable value.
        mantissa, _, exponent = value.lower().partition("e")
        if re.fullmatch(rf"[-+]?\d{{1,{digits}}}\s*", exponent) and abs(int(exponent)) > digits + len(mantissa):
            if any(c.isdecimal() and int(c) for c in mantissa):
                raise too_long
            value = mantissa + "e0"
    try:
        x = parse_frac(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    if digits and max(abs(x.numerator), x.denominator) >= 10 ** digits:
        raise too_long
    return x


def _vertex_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"{what} must be comma-separated vertex ids: {exc}") from exc


def _lists(value, what: str) -> list[list]:
    if not isinstance(value, list) or not all(isinstance(p, list) for p in value):
        raise ConfigError(f"{what} must be a JSON list of lists")
    return value


def _section(doc: dict, name: str) -> dict:
    value = _field(doc, name)
    if not isinstance(value, dict):
        raise ConfigError(f"config section '{name}' must be a JSON object")
    return value


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _colour_text(value: str) -> str:
    if value.startswith("@"):
        return _read_text(value[1:], "file").strip()
    return value


def _quad(doc: dict, name: str) -> GoodQuadruple:
    """A section of rationals a, b, c, eps; a bad field is named by its dotted path."""
    section = {f"{name}.{key}": value for key, value in _section(doc, name).items()}
    return GoodQuadruple(*(_rational(section, f"{name}.{f}") for f in ("a", "b", "c", "eps")))


def _class_p_from_doc(doc: dict) -> tuple[ClassPParams, GenerationConfig]:
    """Class parameters and generation settings; "paper" mode derives p from the closed form."""
    q = GoodQuadruple(*(_rational(doc, name) for name in ("a", "b", "c", "eps")))
    params = ClassPParams(q, _integer(doc, "t"), _integer(doc, "n"))
    mode = doc.get("mode", "toy")
    if mode not in ("toy", "paper"):
        raise ConfigError("config field 'mode' must be \"toy\" or \"paper\"")
    seed = _integer(doc, "seed", 0)
    cert_samples = _integer(doc, "certSamples", 300)
    retry_budget = _integer(doc, "retryBudget", 16)
    p = _rational(doc, "p") if mode == "toy" else GenerationConfig.closed_form_p(params)
    return params, GenerationConfig(p, seed, cert_samples, retry_budget)


def _pipeline_from_doc(doc: dict) -> PipelineConfig:
    return PipelineConfig(
        k=_integer(doc, "k"), s=_integer(doc, "s"), r=_integer(doc, "r"), t=_integer(doc, "t"),
        n=_integer(doc, "n"), clique_size=_integer(doc, "cliqueSize"),
        mono_target=_integer(doc, "monoTarget"),
        out_quad=_quad(doc, "outQuad"), in_quad=_quad(doc, "inQuad"),
        sparsify_p=_rational(doc, "sparsifyP") if "sparsifyP" in doc else Fraction(1),
        seed=_integer(doc, "seed", 0),
    )


# -- subcommand handlers ------------------------------------------------------


def _cmd_gen(args) -> int:
    doc = _read_config(args.config)
    params, gen = _class_p_from_doc(doc)
    g, cert, log = generate_class_p(params, gen)
    if args.out:
        Path(args.out).write_text(graph_to_text(g))
    report = {"params": params.to_dict(), "certificate": cert.to_dict(), "log": log.to_dict()}
    sys.stdout.write(dump_report(report))
    return 0 if cert.passed else 1


def _cmd_verify_p(args) -> int:
    doc = _read_config(args.config)
    params, gen = _class_p_from_doc(doc)
    g = _read_graph(args.graph)
    rep = verify_class_p(g, params, mode=args.mode, sample_count=gen.cert_samples, seed=args.seed or 0)
    _emit(dump_report(rep.to_dict()), args.out)
    return 0 if rep.passed else 1


def _cmd_power(args) -> int:
    g = _read_graph(args.graph)
    _emit(graph_to_text(power(g, args.k)), args.out)
    return 0


def _cmd_blowup(args) -> int:
    g = _read_graph(args.graph)
    if args.sheared:
        host, bmap = sheared_blowup(g, args.t, seed=args.seed)
    else:
        host, bmap = complete_blowup(g, args.t)
    if args.out:
        Path(args.out).write_text(graph_to_text(host))
    t = bmap.t
    report = {
        "t": t,
        "matchingRule": bmap.matching_rule,
        "cliqueOf": [list(c) for c in bmap.clique_of],
        "removedMatchings": {f"{u},{v}": [[u * t + i, v * t + j] for i, j in enumerate(p)]
                             for (u, v), p in zip(g.edges, bmap.matchings)},
        "hostEdges": host.m,
    }
    sys.stdout.write(dump_report(report))
    return 0


def _cmd_partition(args) -> int:
    host = _read_graph(args.host)
    colouring = EdgeColouring.from_string(host, _colour_text(args.colours))
    if host.m != host.n * (host.n - 1) // 2:
        raise ParameterError("cover search needs a colouring of a complete graph")
    if colouring.s != 2:
        raise ParameterError("cover search needs exactly two colours")
    blue = colouring.colour_subgraph(1)
    # partition_two_coloured always finds a cover, verifies it and raises on an invalid one.
    result = partition_two_coloured(blue, args.ell, mode=args.mode, seed=args.seed or 0)
    _emit(dump_report({"found": True, "result": result.to_dict(), "verified": True}), args.out)
    return 0


def _cmd_longpath(args) -> int:
    g = _read_graph(args.graph)
    text = _colour_text(args.parts)
    try:
        parts = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ConfigError(f"--parts is not valid JSON: {exc}") from exc
    if not all(type(v) is int for p in _lists(parts, "--parts") for v in p):
        raise ConfigError("--parts must be a JSON list of lists of integers")
    gamma = _parse_rational(args.gamma, "--gamma") if args.gamma else None
    try:
        path = long_path_through_sets(g, parts, args.target, gamma=gamma,
                                      node_budget=args.budget)
    except NoPathFoundError as exc:
        _emit(dump_report({"found": False, "longest": exc.longest}), args.out)
        return 1
    _emit(dump_report({"found": True, "vertices": path,
                       "classTrace": [i % len(parts) for i in range(len(path))]}), args.out)
    return 0


def _cmd_segments(args) -> int:
    segs = segment_path(_vertex_list(args.path, "--path"), args.t)
    _emit(dump_report({"segments": [{"index": i, "vertices": list(s)} for i, s in enumerate(segs)]}),
          args.out)
    return 0


def _cmd_aux_colour(args) -> int:
    doc = _read_config(args.config)
    base = _read_graph(_string(doc, "base"))
    t = _integer(doc, "t")
    host, bmap = sheared_blowup(base, t, seed=_integer(doc, "matchingSeed", None))
    chi = EdgeColouring.from_string(host, _colour_text(_string(doc, "colours")))
    k = _integer(doc, "k")
    blue = _integer(doc, "blue")
    size = _integer(doc, "subcliqueSize", 2 * k)
    if not 0 <= size <= t:  # a slice bound: -1 would keep all but one vertex
        raise ConfigError(f"config field 'subcliqueSize' must lie in 0..{t}")
    aux = build_aux_colouring(base, [clique[:size] for clique in bmap.clique_of], chi, k, blue)
    report = {
        "labels": {f"{u},{v}": "blue" if aux.blue.has_edge(u, v) else "grey" for u, v in base.sorted_edges()},
        "blueEdges": aux.blue.m,
        "witnesses": {
            f"{u},{v}": [list(a), list(b)] for (u, v), (a, b) in sorted(aux.witnesses.items())
        },
    }
    _emit(dump_report(report), args.out)
    return 0


def _cmd_arrow(args) -> int:
    host = _read_graph(args.host)
    pattern = _read_graph(args.pattern)
    verdict = arrow_check(host, pattern, args.colours, mode=args.mode,
                          trials=args.trials, seed=args.seed or 0, budget=args.budget)
    _emit(dump_report(verdict.to_dict()), args.out)
    return 0 if verdict.arrows else 1


def _cmd_embed_base(args) -> int:
    if args.config:
        doc = _read_config(args.config)
        params, gen = _class_p_from_doc(doc)
        try:
            emb = base_case_driver(args.k, params, gen,
                                   n_target=_integer(doc, "nTarget", None),
                                   matching_seed=args.seed if args.seed is not None
                                   else _integer(doc, "matchingSeed", None))
        except BaseCaseError as exc:
            _emit(dump_report({"found": False, "achieved": exc.achieved}), args.out)
            return 1
    else:
        if not args.graph or not args.path:
            raise ConfigError("embed-base needs either --config or both --graph and --path")
        g = _read_graph(args.graph)
        emb = embed_base_case(g, args.k, _vertex_list(args.path, "--path"), matching_seed=args.seed)
    # embed_base_case validates its embedding and raises on an invalid one.
    _emit(dump_report({"found": True, "embedding": emb.to_dict(),
                       "patternVertices": emb.pattern.n, "valid": True}), args.out)
    return 0


def _cmd_lll_embed(args) -> int:
    doc = _read_config(args.config)
    template = _read_graph(_string(doc, "template"))
    host = _read_graph(_string(doc, "host"))
    # make_lll_instance names a candidate that is not a host vertex.
    cliques = [tuple(c) for c in _lists(_field(doc, "cliques"), "config field 'cliques'")]
    chi = None
    blue = _integer(doc, "blue", None)
    if "colours" in doc:
        chi = EdgeColouring.from_string(host, _colour_text(_string(doc, "colours")))
    instance = make_lll_instance(template, cliques, host, chi, blue)
    seed = args.seed if args.seed is not None else _integer(doc, "seed", 0)
    budget = _integer(doc, "maxResamples", 100 * max(1, template.m))
    try:
        emb = lll_embed(instance, seed, budget)
    except LLLFailureError as exc:
        _emit(dump_report({"found": False, "stats": exc.stats}), args.out)
        return 1
    _emit(dump_report({"found": True, "embedding": emb.to_dict(),
                       "instance": instance.to_dict()}), args.out)
    return 0


def _cmd_constants(args) -> int:
    parts = [_parse_rational(x, "--quad") for x in args.quad.split(",")]
    if len(parts) != 4:
        raise ConfigError("--quad needs four comma-separated values a,b,c,eps")
    chain = constants_chain(args.k, args.s, args.r, args.t,
                            GoodQuadruple(*parts), _parse_rational(args.d0, "--d0"))
    _emit(dump_report(chain.to_dict()), args.out)
    return 0


def _build_base_graph(doc: dict):
    kind = _field(doc, "kind")
    if kind == "path":
        return path_graph(_integer(doc, "n"))
    if kind == "cycle":
        return cycle_graph(_integer(doc, "n"))
    if kind == "complete":
        return complete_graph(_integer(doc, "n"))
    if kind == "file":
        return _read_graph(_string(doc, "path"))
    if kind == "generate":
        params, gen = _class_p_from_doc(doc)
        return generate_class_p(params, gen)[0]
    raise ConfigError(f"unknown base graph kind '{kind}'")


def _build_chi(doc: dict, host, s: int) -> EdgeColouring:
    kind = _field(doc, "kind")
    if kind == "constant":
        return EdgeColouring.constant(host, s, _integer(doc, "colour"))
    if kind == "random":
        return EdgeColouring.random(host, s, _integer(doc, "seed"))
    if kind == "string":
        return EdgeColouring.from_string(host, _colour_text(_string(doc, "value")))
    raise ConfigError(f"unknown colouring kind '{kind}'")


def _cmd_step(args) -> int:
    doc = _read_config(args.config)
    cfg = _pipeline_from_doc(_section(doc, "pipeline"))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    g = _build_base_graph(_section(doc, "base"))
    host, bmap = build_step_host(g, cfg)
    chi = _build_chi(_section(doc, "chi"), host, cfg.s)
    outcome = induction_step(g, host, bmap, chi, cfg)
    outcome_text = dump_report(outcome.to_dict())
    trace_text = dump_report({"trace": outcome.trace})
    if args.out:
        Path(f"{args.out}.outcome.json").write_text(outcome_text)
        Path(f"{args.out}.trace.json").write_text(trace_text)
    sys.stdout.write(outcome_text)
    return 0 if outcome.kind in ("monoPowerFound", "reducedColours") else 1


def _cmd_report(args) -> int:
    if not args.infile:
        raise ConfigError("report needs --in <file>")
    doc = _read_json(args.infile, "report input")
    if not isinstance(doc, dict):
        raise ConfigError("report input must be a JSON object")
    trace = doc.get("trace", [])
    if not isinstance(trace, list) or not all(isinstance(entry, dict) for entry in trace):
        raise ConfigError("report field 'trace' must be a list of objects")
    lines = []
    verdict_ok = True
    if "kind" in doc:
        lines.append(f"outcome: {doc['kind']}")
        if doc["kind"] == "honestFailure":
            verdict_ok = False
            lines.append(f"  failed at stage: {doc.get('failureStage')}")
            lines.append(f"  reason: {doc.get('failureReason')}")
    for key in ("passed", "arrows", "found"):
        if key in doc:
            lines.append(f"{key}: {doc[key]}")
            verdict_ok = bool(doc[key])
    for entry in trace:
        lines.append(f"  [{entry.get('status')}] {entry.get('stage')}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if verdict_ok else 1


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathramsey",
        description="Graph blow-ups, pseudorandom class generation, colouring covers, "
                    "arrow checks, and local-lemma embeddings at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, handler, seed: bool = False, config: bool = False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if seed:
            p.add_argument("--seed", type=int, default=None)
        if config:
            p.add_argument("--config", type=str, default=None)
        p.add_argument("--out", type=str, default=None)
        return p

    add("gen", "sample and certify a pseudorandom class member", _cmd_gen, config=True)
    p = add("verify-p", "verify class membership of a graph", _cmd_verify_p, seed=True, config=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--mode", default="auto", choices=["auto", "exhaustive", "sampled"])

    p = add("power", "k-th power of a graph", _cmd_power)
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("blowup", "complete or sheared blow-up", _cmd_blowup, seed=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--sheared", action="store_true")

    p = add("partition", "cover a two-coloured complete graph", _cmd_partition, seed=True)
    p.add_argument("--host", required=True)
    p.add_argument("--colours", required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--mode", default="auto", choices=["auto", "exhaustive", "heuristic"])

    p = add("longpath", "constrained long path through vertex classes", _cmd_longpath)
    p.add_argument("--graph", required=True)
    p.add_argument("--parts", required=True, help="JSON list of vertex lists, or @file")
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--gamma", type=str, default=None)
    p.add_argument("--budget", type=int, default=1_000_000)

    p = add("segments", "split a path into blocks of t vertices", _cmd_segments)
    p.add_argument("--path", required=True, help="comma-separated vertex ids")
    p.add_argument("--t", type=int, required=True)

    add("aux-colour", "blue/grey labelling of a blow-up base graph", _cmd_aux_colour, config=True)

    p = add("arrow", "does every colouring contain a monochromatic copy?", _cmd_arrow, seed=True)
    p.add_argument("--host", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--colours", type=int, required=True)
    p.add_argument("--mode", default="exhaustive", choices=["exhaustive", "randomized"])
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--budget", type=int, default=2 ** 24)

    p = add("embed-base", "greedy base-case embedding (direct or via generation driver)",
            _cmd_embed_base, seed=True, config=True)
    p.add_argument("--graph", default=None)
    p.add_argument("--path", default=None, help="comma-separated vertex ids")
    p.add_argument("--k", type=int, required=True)

    add("lll-embed", "resample-until-clean template embedding", _cmd_lll_embed,
        seed=True, config=True)

    p = add("constants", "derived parameter chain, exact", _cmd_constants)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--quad", required=True, help="a,b,c,eps (rationals)")
    p.add_argument("--d0", required=True)

    add("step", "run one induction step from a config bundle", _cmd_step, seed=True, config=True)

    p = add("report", "summarise a JSON report", _cmd_report)
    p.add_argument("--in", dest="infile", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PathRamseyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash is an error (exit 2), never an honest negative (exit 1)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
