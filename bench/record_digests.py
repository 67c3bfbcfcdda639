"""Record the replay digest of every instance a workload can draw.

    python3 bench/record_digests.py [workload ...]

Runs each pool instance once, refuses to record when any instance fails its
check, and rewrites those workloads' entries in bench/digests.json.  A change
that breaks replay on purpose re-records and says so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    names = argv or sorted(WORKLOADS)
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        print(f"unknown workloads: {sorted(unknown)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    path = run.BENCH / "digests.json"
    digests = json.loads(path.read_text())
    for name in names:
        expected = json.loads((run.BENCH / "expected" / f"{name}.json").read_text())
        wl = WORKLOADS[name](run.import_package(), 0, expected)
        results = [run.run_one(inst) for inst in wl.pool()]
        if run.report_failures(results):
            return 1
        digests[name] = {r.key: r.digest for r in results}
        print(f"{name}: {len(results)} digests")
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
