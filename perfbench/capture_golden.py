"""Capture the golden outputs the benchmark checks against.

Run from the root of a checkout, at the commit whose outputs are the
reference:

    python3 perfbench/capture_golden.py

It writes, under perfbench/golden/, the sha256 of every search table for
seeds 0 to GOLDEN_SEEDS - 1 of both search workloads, the full tables at seed 0, and
the identity names that ``report`` prints.  An output that fails the
benchmark's own checks is not captured; the script stops instead.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    os.environ.pop("THREADS", None)
    sys.path.insert(0, str(run.SRC))
    from specialperiods import cli

    golden = workloads.GOLDEN_DIR
    golden.mkdir(exist_ok=True)
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        report = workloads.prepare(workloads.WORKLOADS["report-identities"], 0, Path(tmp))
        code, _, stdout, stderr = run.invoke(cli, report.argv)
        if code != 0:
            raise SystemExit("report failed: %s" % stderr)
        names = [line.split()[0] for line in stdout.splitlines()[1:]]
        (golden / "report_identities.json").write_text(json.dumps(names, indent=1) + "\n")
        digests = {}
        for name, workload in workloads.WORKLOADS.items():
            if workload.subcommand != "search":
                continue
            digests[name] = {}
            for seed in range(workloads.GOLDEN_SEEDS):
                case = workloads.prepare(workload, seed, Path(tmp))
                code, _, stdout, stderr = run.invoke(cli, case.argv)
                reason = case.check(code, stdout)
                if reason is not None:
                    raise SystemExit("%s seed %d: %s %s" % (name, seed, reason, stderr))
                digests[name][str(seed)] = hashlib.sha256(stdout.encode()).hexdigest()
                if seed == 0:
                    (golden / ("%s.seed0.txt" % name)).write_text(stdout)
    (golden / "search_sha256.json").write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
