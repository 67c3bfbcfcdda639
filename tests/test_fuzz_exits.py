"""Three-exit fuzz over the golden corpus: every mutated input ends in exit
0, 1 or 2, with no `internal error:` line, within a per-case time limit.

Each JSON config of tests/golden (and each class-P config that `gen` reads)
has every field, at every depth, set in turn to each value of MUTATIONS, or
deleted.  Each integer flag of a golden command line is set to each value of
FLAG_VALUES, and each vertex-list flag (`--path`) to each of PATH_VALUES: a
negative vertex, a vertex beyond every golden graph and a repeated vertex.
The cases run in one worker process, `python test_fuzz_exits.py` reading
the case list on stdin, under an address-space limit, so an input
that allocates without bound ends in MemoryError (reported as a crash)
instead of taking the machine's memory.  Each case runs cli.main in process
under a timer: when it fires, main's catch-all reports `internal error:
Timeout`, which counts as a hang, not a crash.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

MUTATIONS = [-1, 0, 2, 1.5, True, None, "x", "1/0", "-1/2", "1e5000", "1e100000000", [], {}, [[0, 1]]]
DELETE = object()
FLAG_VALUES = ["-1", "0", "-7", "40"]  # 40: large but valid, e.g. constants --k 40
PATH_VALUES = ["-1", "99", "0,0"]
CASE_SECONDS = 4  # the per-case limit
MEMORY_BYTES = 1 << 30  # the worker's address space


class Timeout(Exception):
    pass


def _paths(doc: dict, prefix: tuple = ()):
    """Every key path into doc, descending into nested objects."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


def _mutated(doc: dict, path: tuple, value) -> dict:
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    if value is DELETE:
        del inner[path[-1]]
    else:
        inner[path[-1]] = value
    return doc


def _is_int(text: str) -> bool:
    return text.lstrip("-").isdigit()


def cases() -> list[dict]:
    """(name, input files, argv) for every mutation of the golden corpus inputs."""
    from test_golden import CASES, COMMANDS

    commands = dict(COMMANDS)
    for name, config in CASES.items():
        commands[f"gen-{name}"] = {"config.json": json.dumps(config),
                                   "argv": ["gen", "--config", "config.json", "--out", "member.edges"]}
    out = []
    for name, case in sorted(commands.items()):
        files = {f: text for f, text in case.items() if f != "argv"}
        argv = case["argv"]
        for f, text in files.items():
            if not f.endswith(".json"):
                continue
            doc = json.loads(text)
            for path in _paths(doc):
                for value in [*MUTATIONS, DELETE]:
                    shown = "deleted" if value is DELETE else json.dumps(value)
                    out.append({"name": f"{name} {f}:{'.'.join(path)}={shown}",
                                "files": {**files, f: json.dumps(_mutated(doc, path, value))},
                                "argv": argv})
        for i, token in enumerate(argv[:-1]):
            values = FLAG_VALUES if token.startswith("--") and _is_int(argv[i + 1]) else []
            for value in values + (PATH_VALUES if token == "--path" else []):
                out.append({"name": f"{name} {token} {value}", "files": files,
                            "argv": argv[:i + 1] + [value] + argv[i + 2:]})
    return out


def _run_case(main, case: dict) -> dict:
    """Run one case in a fresh directory under the timer: its exit code, first internal-error line and time."""
    with tempfile.TemporaryDirectory() as tmp:
        for f, text in case["files"].items():
            (Path(tmp) / f).write_text(text)
        err = io.StringIO()
        start = time.perf_counter()
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
                try:
                    code = main(case["argv"])
                except SystemExit as exc:  # argparse refusals
                    code = exc.code
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except Timeout:  # fired between main's return and the reset
            code = None
        finally:
            os.chdir(cwd)
        internal = next((line for line in err.getvalue().splitlines() if line.startswith("internal error:")),
                        None)
        return {"name": case["name"], "exit": code, "internal": internal,
                "seconds": round(time.perf_counter() - start, 3)}


def worker() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))

    def fire(signum, frame):
        raise Timeout(f"case ran past {CASE_SECONDS} s")

    signal.signal(signal.SIGALRM, fire)
    from pathramsey.cli import main

    for case in json.load(sys.stdin):
        sys.stdout.write(json.dumps(_run_case(main, case)) + "\n")
        sys.stdout.flush()


def test_every_mutated_input_ends_in_one_of_three_exits():
    todo = cases()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(TESTS)]))
    proc = subprocess.run([sys.executable, __file__], input=json.dumps(todo), capture_output=True,
                          text=True, env=env, timeout=240)
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert proc.returncode == 0 and len(results) == len(todo), (
        f"worker ended with {proc.returncode} after {len(results)} of {len(todo)} cases, "
        f"in {todo[len(results)]['name'] if len(results) < len(todo) else 'none'}: {proc.stderr[-2000:]}")
    problems = []
    for r in results:
        if r["internal"] and r["internal"].startswith("internal error: Timeout"):
            problems.append(f"hang: {r['name']}")
        elif r["internal"]:
            problems.append(f"crash: {r['name']}: {r['internal']}")
        elif r["exit"] not in (0, 1, 2):
            problems.append(f"exit {r['exit']}: {r['name']}")
        elif r["seconds"] > CASE_SECONDS:
            problems.append(f"slow ({r['seconds']} s): {r['name']}")
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    worker()
