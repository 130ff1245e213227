"""Record the output digest of every pool argv into golden.json.

Run from the root of a checkout whose outputs are the reference:

    python3 bench/golden.py

Later runs of the benchmark require byte-identical output for every argv.
Each recorded output must also pass the closed-form checks, so a reference
that contradicts the paper cannot be recorded.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import run
import workloads


def main():
    root = Path.cwd()
    cli = run.import_package(root)
    state_dir = root / ".bench_work" / "golden"
    workloads.write_state_files(state_dir)
    golden, problems = {}, []
    try:
        for op in workloads.pool_ops(state_dir):
            outcome = workloads.invoke(cli.main, op.argv, time.perf_counter)
            golden[op.key] = workloads.digest(outcome.out)
            problem = workloads.check(op, outcome, golden)
            if problem:
                problems.append(f"{op.key}: {problem}")
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    path = run.BENCH_DIR / "golden.json"
    path.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
