"""Golden CLI corpus: fixed invocations, each in a fresh interpreter, whose
exit codes and output hashes are pinned in tests/golden/cli.json.

A class-P case runs `gen` on its config, writing the member to a file, then
`verify-p` on that member under the certificate's own seed (no --seed
when the certificate is exhaustive).  Every other case writes its input
files to an empty directory and runs one subcommand there; it pins the exit
code and the sha256 of stdout and of each file the command writes.  Any
change to the random stream, the certificates, the searches or the report
bytes moves a hash here.

Inputs that depend on a blow-up host's edge order come from the frozen
reference blow-up in graph_reference.py, so they do not move with the
package.

Re-record, only for a deliberate output change:
    PYTHONPATH=src python tests/test_golden.py > tests/golden/cli.json
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from graph_reference import ref_sheared_blowup
from pathramsey import Graph, graph_from_text

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = GOLDEN / "cli.json"

# The bench's classp families: girth passes its sampled certificate at seed 0
# and fails it at seed 17; exact is certified exhaustively.
CASES = {
    "girth-seed0": {"a": 1, "b": 64, "c": "1/2", "eps": "4/5", "t": 2, "n": 32, "p": "3/10", "seed": 0},
    "girth-seed17": {"a": 1, "b": 64, "c": "1/2", "eps": "4/5", "t": 2, "n": 32, "p": "3/10", "seed": 17},
    "exact-seed0": {"a": 1, "b": 64, "c": "1/2", "eps": "4/5", "t": 1, "n": 20, "p": "7/10", "seed": 0},
}


def _graph(n: int, edges) -> str:
    return "".join([f"{n} {len(edges)}\n", *(f"{u} {v}\n" for u, v in edges)])


def _complete(n: int) -> str:
    return _graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _cycle(n: int) -> str:
    return _graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def _path(n: int) -> str:
    return _graph(n, [(i, i + 1) for i in range(n - 1)])


def _colours(edges, colour) -> str:
    """A two-colour string: colour(u, v) in {1, 2} over the edges in lexicographic order."""
    return "s=2;m={};{}".format(len(edges), "".join(str(colour(u, v) - 1) for u, v in sorted(edges)))


def _blowup_colours(base: str, t: int, seed: int, cross) -> str:
    """Colour 1 inside each clique of the sheared blow-up of base, cross(u, v) between cliques."""
    host = ref_sheared_blowup(graph_from_text(base), t, seed)[0]
    return _colours(host.edges, lambda u, v: 1 if u // t == v // t else cross(u, v))


def _kn_colours(n: int, colour) -> str:
    return _colours([(u, v) for u in range(n) for v in range(u + 1, n)], colour)


# The grey-route member of the bench's step workload at generator seed 3
# (class P with a = 1, b = 64, c = 1/2, eps = 4/5, t = 1, n = 16, p = 7/10).
GREY_MEMBER = (GOLDEN / "grey-member3.edges").read_text()
GREY_MEMBER_CONFIG = {"a": 1, "b": 64, "c": "1/2", "eps": "4/5", "t": 1, "n": 16, "p": "7/10", "seed": 3}


def _pipeline(**overrides) -> dict:
    """The bench's toy step configuration, with overrides."""
    return {
        "k": 1, "s": 2, "r": 1, "t": 2, "n": 4, "cliqueSize": 5, "monoTarget": 4,
        "outQuad": {"a": "1", "b": "64", "c": "1/2", "eps": "4/5"},
        "inQuad": {"a": "1", "b": "1000", "c": "1/2", "eps": "4/5"},
        "seed": 11, **overrides,
    }


def _step(pipeline: dict, base: dict, chi: dict) -> dict:
    return {"step.json": json.dumps({"pipeline": pipeline, "base": base, "chi": chi}),
            "argv": ["step", "--config", "step.json", "--out", "run"]}


# name -> input files by name, and "argv", the command line run among them.
COMMANDS = {
    "blowup-sheared-seed7": {
        "base.edges": _cycle(5),
        "argv": ["blowup", "--graph", "base.edges", "--t", "3", "--sheared", "--seed", "7",
                 "--out", "host.edges"],
    },
    "aux-colour": {
        "base.edges": _path(4),
        "aux.json": json.dumps({
            "base": "base.edges", "t": 6, "matchingSeed": 2, "k": 1, "blue": 1, "subcliqueSize": 4,
            # Cross pairs into the last clique are never blue, so edge (2, 3) is grey.
            "colours": _blowup_colours(_path(4), 6, 2, lambda u, v: 1 if (u + v) % 3 == 0 and v < 18 else 2),
        }),
        "argv": ["aux-colour", "--config", "aux.json"],
    },
    "aux-colour-k0": {
        "base.edges": _path(4),
        "aux.json": json.dumps({
            "base": "base.edges", "t": 6, "matchingSeed": 2, "k": 0, "blue": 1, "subcliqueSize": 4,
            "colours": _blowup_colours(_path(4), 6, 2, lambda u, v: 2),
        }),
        "argv": ["aux-colour", "--config", "aux.json"],
    },
    "power": {
        "c12.edges": _cycle(12),
        "argv": ["power", "--graph", "c12.edges", "--k", "2", "--out", "square.edges"],
    },
    "segments": {
        "argv": ["segments", "--path", "4,0,7,1,9,3,8,2,5", "--t", "3"],
    },
    "report": {
        "outcome.json": json.dumps({
            "kind": "honestFailure", "failureStage": "long-path", "failureReason": "needed 12, achieved 9",
            "trace": [{"stage": "mono-cliques", "status": "ok"}, {"stage": "long-path", "status": "failed"}],
        }),
        "argv": ["report", "--in", "outcome.json"],
    },
    "embed-base-graph": {
        "c12.edges": _cycle(12),
        "argv": ["embed-base", "--graph", "c12.edges", "--path", "0,1,2,3,4,5,6,7", "--k", "2",
                 "--seed", "3"],
    },
    # Desk-scale generation under a good quadruple leaves no long path: an honest negative.
    "embed-base-config": {
        "base.json": json.dumps({"a": "2", "b": "1700000", "c": "1/2", "eps": "1/20",
                                 "t": 2, "n": 6, "p": "1", "seed": 0}),
        "argv": ["embed-base", "--config", "base.json", "--k", "1"],
    },
    "verify-p-exhaustive": {
        "member.json": json.dumps(GREY_MEMBER_CONFIG),
        "member.edges": GREY_MEMBER,
        "argv": ["verify-p", "--config", "member.json", "--graph", "member.edges", "--mode", "exhaustive"],
    },
    "verify-p-sampled": {
        "member.json": json.dumps(GREY_MEMBER_CONFIG),
        "member.edges": GREY_MEMBER,
        "argv": ["verify-p", "--config", "member.json", "--graph", "member.edges", "--mode", "sampled",
                 "--seed", "5"],
    },
    "partition-exhaustive": {
        "k9.edges": _complete(9),
        "argv": ["partition", "--host", "k9.edges", "--ell", "2", "--mode", "exhaustive",
                 "--colours", _kn_colours(9, lambda u, v: 1 + ((u * v + u + 2 * v) % 3 != 0))],
    },
    "partition-heuristic": {
        "k16.edges": _complete(16),
        "argv": ["partition", "--host", "k16.edges", "--ell", "2", "--seed", "4",
                 "--colours", _kn_colours(16, lambda u, v: 1 + ((u * v + u + 2 * v) % 3 != 0))],
    },
    "longpath-found": {
        "c12.edges": _cycle(12),
        "argv": ["longpath", "--graph", "c12.edges", "--target", "10",
                 "--parts", "[[0, 3, 6, 9], [1, 4, 7, 10], [2, 5, 8, 11]]"],
    },
    "longpath-not-found": {
        "c12.edges": _cycle(12),
        "argv": ["longpath", "--graph", "c12.edges", "--target", "13",
                 "--parts", "[[0, 3, 6, 9], [1, 4, 7, 10], [2, 5, 8, 11]]"],
    },
    "arrow-true": {
        "k6.edges": _complete(6), "k3.edges": _complete(3),
        "argv": ["arrow", "--host", "k6.edges", "--pattern", "k3.edges", "--colours", "2"],
    },
    "arrow-false": {
        "k5.edges": _complete(5), "k3.edges": _complete(3),
        "argv": ["arrow", "--host", "k5.edges", "--pattern", "k3.edges", "--colours", "2"],
    },
    "arrow-randomized": {
        "k5.edges": _complete(5), "k3.edges": _complete(3),
        "argv": ["arrow", "--host", "k5.edges", "--pattern", "k3.edges", "--colours", "2",
                 "--mode", "randomized", "--trials", "200", "--seed", "5"],
    },
    "lll-embed": {
        "template.edges": _path(3),
        "host.edges": _graph(9, [(u, v) for u in range(9) for v in range(u + 1, 9) if u // 3 != v // 3]),
        "lll.json": json.dumps({
            "template": "template.edges", "host": "host.edges",
            "cliques": [[0, 1, 2], [3, 4, 5], [6, 7, 8]], "blue": 1, "seed": 3, "maxResamples": 64,
            "colours": _colours([(u, v) for u in range(9) for v in range(u + 1, 9) if u // 3 != v // 3],
                                lambda u, v: 1 + ((u + v) % 4 != 0)),
        }),
        "argv": ["lll-embed", "--config", "lll.json"],
    },
    "constants": {
        "argv": ["constants", "--k", "1", "--s", "2", "--r", "1", "--t", "2",
                 "--quad", "3,950400,1,1/20", "--d0", "1"],
    },
    # The three outcomes the bench's step workload reaches.
    "step-monoPowerFound": _step(_pipeline(), {"kind": "path", "n": 6}, {"kind": "constant", "colour": 1}),
    "step-long-path-expansion": _step(_pipeline(n=3, cliqueSize=16, seed=0), {"kind": "cycle", "n": 12},
                                      {"kind": "random", "seed": 0}),
    "step-reducedColours": {
        "member.edges": GREY_MEMBER,
        **_step(
            _pipeline(t=1, n=3, seed=0, outQuad={"a": "1", "b": "64", "c": "2/3", "eps": "4/5"},
                      inQuad={"a": "1", "b": "2000", "c": "2/3", "eps": "4/5"}),
            {"kind": "file", "path": "member.edges"},
            {"kind": "string", "value": _blowup_colours(GREY_MEMBER, 5, 0, lambda u, v: 2)},
        ),
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "pathramsey.cli", *argv],
                          capture_output=True, env=env, cwd=cwd, timeout=120)


def observe(config: dict) -> dict:
    """The pinned facts of one class-P case: gen's exit, stdout and member, then verify-p's."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, member = Path(tmp) / "config.json", Path(tmp) / "member.txt"
        cfg.write_text(json.dumps(config))
        gen = _cli("gen", "--config", str(cfg), "--out", str(member))
        seed = json.loads(gen.stdout)["certificate"]["seed"]
        verify = _cli("verify-p", "--config", str(cfg), "--graph", str(member),
                      *(() if seed is None else ("--seed", str(seed))))
        return {
            "gen": {"exit": gen.returncode, "stdout": _sha(gen.stdout), "member": _sha(member.read_bytes())},
            "verifySeed": seed,
            "verify": {"exit": verify.returncode, "stdout": _sha(verify.stdout)},
        }


def run_command(case: dict) -> dict:
    """The pinned facts of one command case: its exit, stdout and every file it writes."""
    inputs = {name: text for name, text in case.items() if name != "argv"}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in inputs.items():
            (Path(tmp) / name).write_text(text)
        proc = _cli(*case["argv"], cwd=Path(tmp))
        written = {path.name: _sha(path.read_bytes())
                   for path in sorted(Path(tmp).iterdir()) if path.name not in inputs}
        return {"exit": proc.returncode, "stdout": _sha(proc.stdout), "files": written}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_corpus(name):
    assert observe(CASES[name]) == json.loads(CORPUS.read_text())[name]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_output_matches_golden_corpus(name):
    assert run_command(COMMANDS[name]) == json.loads(CORPUS.read_text())[name]


if __name__ == "__main__":
    corpus = {name: observe(config) for name, config in CASES.items()}
    corpus.update((name, run_command(case)) for name, case in COMMANDS.items())
    print(json.dumps(dict(sorted(corpus.items())), indent=1))
