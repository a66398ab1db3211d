"""Freeze the oracle: python3 perfbench/freeze.py

Runs every job of every workload on seeds 0 and 1, requires the two
seeds to give identical invariants and the gallery fixtures to agree
with them, and writes perfbench/expected.json.  The frozen file is the
benchmark's correctness reference: regenerate it only when the job list
changes, and from a commit whose outputs are trusted.
"""

from __future__ import annotations

import json
import shutil
import sys

import gen
import oracle
import workloads
from worker import run_job

SEEDS = (0, 1)


def main() -> int:
    work = gen.ROOT / ".perfbench_work" / "freeze"
    found: dict[int, dict] = {}
    try:
        for seed in SEEDS:
            found[seed] = {}
            for workload in workloads.WORKLOADS:
                doc = gen.generate(workload, seed, work / f"{workload}-{seed}")
                for job in doc["jobs"]:
                    _s, code, stdout, errors = run_job(job["argv"])
                    if code != 0:
                        print(f"{job['id']}: exit {code}\n{errors}", file=sys.stderr)
                        return 1
                    found[seed][job["id"]] = oracle.invariants(
                        job["argv"][0], code, stdout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    first, second = (found[s] for s in SEEDS)
    differ = sorted(k for k in first if first[k] != second.get(k))
    problems = [f"{k}: seeds {SEEDS} disagree" for k in differ]
    problems += oracle.fixture_disagreements(first)
    problems += [f"{k}: gallery claim failed" for k, v in first.items()
                 if k.startswith("gallery/") and not v["output"]["all_pass"]]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    lines = [f"{json.dumps(k)}: {json.dumps(first[k], sort_keys=True)}"
             for k in sorted(first)]
    oracle.EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"froze {len(first)} jobs into {oracle.EXPECTED.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
