"""Short smoke run of every workload; run from the root of a checkout:

    python3 bench/smoke.py

For each workload it runs the benchmark once untraced and twice traced, with
a one-second budget (each run still completes its minimum rounds), and
asserts that:

* the last stdout line has exactly the keys correct/attempted/failed/metrics,
  the run is correct and no op failed;
* every metric named in BENCHMARK.json is emitted with its unit, and no other;
* the line before it records the Python and NumPy versions, nproc and seed;
* count metrics repeat exactly between the two traced runs.

It finally checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
COUNT_UNITS = ("count", "1/row", "1/interval")


def run(root, workload, trace):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, f"{argv} exited {done.returncode}: {done.stderr}"
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["bench"], json.loads(lines[-1])


def check_result(result, declared, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {result}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == declared, f"{label}: metrics {sorted(got)} differ from {sorted(declared)}"
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}, f"{label}: {name}"
        assert isinstance(entry["value"], (int, float)), f"{label}: {name}"


def main():
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        info, result = run(root, workload, 0)
        check_result(result, end_to_end, f"{workload} untraced")
        for key in ("python", "numpy", "nproc", "seed"):
            assert key in info, f"{workload}: environment lacks {key}"
        traced = [run(root, workload, 1)[1] for _ in range(2)]
        for result in traced:
            check_result(result, per_layer, f"{workload} traced")
        counts = [{name: entry["value"] for name, entry in result["metrics"].items()
                   if per_layer[name] in COUNT_UNITS} for result in traced]
        assert counts[0] == counts[1], f"{workload}: counts differ between traced runs"
        print(f"ok {workload}: {result['attempted']} traced ops, {len(counts[0])} counts repeat")

    bare = root / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run([sys.executable, "bench/run.py", "--workload", "single-state",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    assert done.returncode != 0 and not done.stdout.strip(), "ran without the package"
    print("ok: refuses to run without the package")
    return 0


if __name__ == "__main__":
    sys.exit(main())
