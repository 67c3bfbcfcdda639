"""Golden CLI corpus: fixed invocations, each in a fresh interpreter, whose
exit codes and output hashes are pinned in tests/golden/cli.json.

A case runs `gen` on its config, writing the member to a file, then
`verify-p` on that member under the certificate's own seed (no --seed
when the certificate is exhaustive).  Any change to the random stream, the
certificates or the report bytes moves a hash here.

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

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "golden" / "cli.json"

# The bench's classp families: girth passes its sampled certificate at seed 0
# and fails it at seed 17; exact is certified exhaustively.
CASES = {
    "girth-seed0": {"a": 1, "b": 64, "c": "1/2", "eps": "4/5", "t": 2, "n": 32, "p": "3/10", "seed": 0},
    "girth-seed17": {"a": 1, "b": 64, "c": "1/2", "eps": "4/5", "t": 2, "n": 32, "p": "3/10", "seed": 17},
    "exact-seed0": {"a": 1, "b": 64, "c": "1/2", "eps": "4/5", "t": 1, "n": 20, "p": "7/10", "seed": 0},
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "pathramsey.cli", *argv],
                          capture_output=True, env=env, cwd=ROOT, timeout=120)


def observe(config: dict) -> dict:
    """The pinned facts of one case: gen's exit, stdout and member, then verify-p's."""
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_corpus(name):
    assert observe(CASES[name]) == json.loads(CORPUS.read_text())[name]


if __name__ == "__main__":
    print(json.dumps({name: observe(config) for name, config in sorted(CASES.items())}, indent=1))
