"""Write expected/<workload>.json, the stored answers the benchmark checks against.

    python3 perfbench/make_expected.py

It runs every case of every workload once, with every member of each random
pool, and records the answer (gamma, exists, witness; never a search-node
count).  The table is made once, at the commit that defined the benchmark,
and is then left alone: regenerating it from a later program would make the
check compare that program with itself.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main():
    sys.path.insert(0, run.SRC)
    dk = run.import_domkit()
    work_dir = os.path.join(run.OUT, f"expected-{os.getpid()}")
    tables = {name: {} for name in workloads.WORKLOADS}
    problems = 0
    try:
        for name, table in tables.items():
            for case in workloads.build(name, dk, 0, work_dir, everything=True):
                outcome = case.check(case.call())
                for note in outcome.errors + outcome.disagreements:
                    problems += 1
                    print(f"problem: {case.key}: {note}", file=sys.stderr)
                table[case.key] = outcome.answer
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if problems:
        print(f"{problems} problems; no table written", file=sys.stderr)
        return 1
    os.makedirs(run.EXPECTED_DIR, exist_ok=True)
    for name, table in tables.items():
        path = os.path.join(run.EXPECTED_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(table, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {len(table)} answers to {os.path.relpath(path, run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
