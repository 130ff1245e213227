"""entclone benchmark driver.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep-grid --seed 1 --seconds 30 --trace 0

One closed-loop client calls the public CLI entry point
``entclone.cli.main(argv)`` in this process with stdout captured, one op at a
time.  Inputs are generated from ``--seed`` before timing starts, and every
op's output is checked (see ``workloads.check``).  Times are rescaled to a
reference machine speed (see ``calibration``); the wall-clock figures are
recorded beside them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` replays round 0
of the workload with every layer wrapped in spans (see ``tracing``) and
reports the per-layer metrics.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the environment and the sample counts.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP to one thread before NumPy is imported, here and in the
# set-up probes, so the timings do not depend on the machine's core count.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update({name: "1" for name in THREAD_VARS})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 11
# Candidate percentiles for latency_tail_ms, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

# A fresh interpreter imports the package and builds the CLI parser (by asking
# it for --help); the probe prints how long that took, then the calibration
# kernel's time in the same process.
SETUP_PROBE = """\
import time
start = time.perf_counter()
import contextlib, io, sys
sys.path.insert(0, "src")
import entclone.cli
try:
    with contextlib.redirect_stdout(io.StringIO()):
        entclone.cli.main(["--help"])
except SystemExit:
    pass
setup = time.perf_counter() - start
sys.path.insert(0, sys.argv[1])
import calibration
print(setup, calibration.kernel_seconds())
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(sorted_values, pct):
    """Linear interpolation between closest ranks."""
    position = (len(sorted_values) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (position - low)


def tail_percentile(count):
    """Highest ladder percentile with at least 10 samples beyond it."""
    eligible = [p for p in TAIL_LADDER if count * (100.0 - p) / 100.0 >= 10]
    return eligible[-1] if eligible else TAIL_LADDER[0]


def setup_probe(root):
    """Wall seconds a fresh interpreter takes to import the package and build
    the parser, and the calibration kernel's seconds in that interpreter."""
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(BENCH_DIR)], cwd=root,
                          env=os.environ, capture_output=True, text=True, timeout=60, check=True)
    setup, kernel = (float(x) for x in done.stdout.split())
    return setup, kernel


def import_package(root):
    src = root / "src"
    if not (src / "entclone" / "__init__.py").is_file():
        raise SystemExit(f"bench: no entclone package under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import entclone.cli
    if Path(entclone.__file__).resolve().parent != (src / "entclone").resolve():
        raise SystemExit(f"bench: imported entclone from {entclone.__file__}, not {src}")
    return entclone.cli


class Loop:
    """Closed-loop client: runs ops one at a time and checks each output.

    The calibration kernel runs before and after every stretch of at most
    ``calibration.INTERVAL_S`` of op time, and the stretch's latencies are
    rescaled by the mean of the two.
    """

    def __init__(self, cli, golden):
        self.cli, self.golden = cli, golden
        self.latencies, self.wall_latencies, self.rows, self.failures = [], [], 0, []
        self.scales = []

    def run(self, ops):
        """Run ops in order; returns their total rescaled op time."""
        total, stretch, before = 0.0, [], calibration.kernel_seconds()
        for i, op in enumerate(ops):
            # looked up per call, so that the traced run sees the wrapped main
            outcome = workloads.invoke(self.cli.main, op.argv, time.perf_counter)
            stretch.append(outcome.seconds)
            self.rows += workloads.result_rows(op, outcome.out)
            problem = workloads.check(op, outcome, self.golden)
            if problem:
                self.failures.append(f"{op.key}: {problem}")
            if sum(stretch) >= calibration.INTERVAL_S or i == len(ops) - 1:
                after = calibration.kernel_seconds()
                scale = calibration.scale(before, after)
                self.scales.append(scale)
                self.wall_latencies += stretch
                self.latencies += [seconds * scale for seconds in stretch]
                total += sum(stretch) * scale
                stretch, before = [], after
        return total


def warm_up(cli, state_dir):
    """Let lazy NumPy/LAPACK set-up finish before anything is timed."""
    argvs = [("sweep", "--scheme", s, "--grid", "3") for s in workloads.SCHEMES]
    argvs += [("table1", "--steps", "2"), ("interval", "--scheme", "local", "--tol", "1e-4"),
              ("analyze", "--input", str(state_dir / "rand-00.json"))]
    for argv in argvs:
        workloads.invoke(cli.main, argv, time.perf_counter)


def end_to_end(args, root, workload, cli, golden, state_dir):
    setup_probe(root)   # unmeasured: fills the bytecode cache
    warm_up(cli, state_dir)
    loop = Loop(cli, golden)
    rounds, setups, wall_start = 0, [], time.perf_counter()
    while rounds < workload.min_rounds or time.perf_counter() - wall_start < args.seconds:
        ops = workloads.round_ops(workload, args.seed, rounds, state_dir)
        loop.run(ops)
        rounds += 1
        # set-up probes are spread over the run, so that they meet the same
        # machine conditions as the ops do
        elapsed = time.perf_counter() - wall_start
        if len(setups) < SETUP_PROBES * min(elapsed / args.seconds, 1.0):
            setups.append(setup_probe(root))
    wall = time.perf_counter() - wall_start
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(root))
    ops_per_round = len(ops)
    # Fixing the percentile by the workload's minimum op count, not this
    # run's, reports the same percentile on every run.
    tail_pct = tail_percentile(workload.min_rounds * ops_per_round)
    ordered, wall_ordered = sorted(loop.latencies), sorted(loop.wall_latencies)
    metrics = {
        "ops_per_s": (len(ordered) / sum(ordered), "1/s"),
        "rows_per_s": (loop.rows / sum(ordered), "1/s"),
        "latency_p50_ms": (1e3 * percentile(ordered, 50.0), "ms"),
        "latency_tail_ms": (1e3 * percentile(ordered, tail_pct), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(s * calibration.REFERENCE_S / k for s, k in setups), "s"),
    }
    info = {
        "rounds": rounds, "ops": len(ordered), "rows": loop.rows,
        "loop_wall_seconds": wall,
        "failed_ops_ratio": len(loop.failures) / len(ordered),
        "latency_tail_percentile": tail_pct,
        "latency_tail_samples_beyond": len(ordered) * (100.0 - tail_pct) / 100.0,
        "samples": {"ops_per_s": len(ordered), "rows_per_s": loop.rows,
                    "latency_p50_ms": len(ordered), "latency_tail_ms": len(ordered),
                    "peak_rss_mb": 1, "setup_s": len(setups)},
        "speed_scale_median": statistics.median(loop.scales),
        "speed_scale_range": [min(loop.scales), max(loop.scales)],
        "wall_clock": {
            "ops_per_s": len(ordered) / sum(wall_ordered),
            "rows_per_s": loop.rows / sum(wall_ordered),
            "latency_p50_ms": 1e3 * percentile(wall_ordered, 50.0),
            "latency_tail_ms": 1e3 * percentile(wall_ordered, tail_pct),
            "setup_s": statistics.median(s for s, _ in setups),
        },
    }
    return loop, metrics, info, []


def traced(args, workload, cli, golden, state_dir):
    """Alternate untraced and traced replays of round 0 until time is up.

    At least one untraced and two traced replays run.  Self times are the
    median over traced replays, rescaled like the end-to-end times; counts
    must repeat exactly between replays.
    """
    warm_up(cli, state_dir)
    ops = workloads.round_ops(workload, args.seed, 0, state_dir)
    tracer = tracing.Tracer()
    loop = Loop(cli, golden)
    plain, with_trace, snapshots, problems = [], [], [], []
    start = time.perf_counter()
    while len(with_trace) < 2 or time.perf_counter() - start < args.seconds:
        if len(plain) <= len(with_trace):
            plain.append(loop.run(ops))
            continue
        rows_before, wall_before = loop.rows, sum(loop.wall_latencies)
        tracer.reset()
        tracer.install()
        try:
            with_trace.append(loop.run(ops))
        finally:
            tracer.uninstall()
        scale = with_trace[-1] / (sum(loop.wall_latencies) - wall_before)
        snapshots.append(layer_metrics(tracer, loop.rows - rows_before, scale))
        if tracer.counts() != snapshots[0][1]:
            problems.append("trace counts differ between two replays of the same round")
    metrics = {}
    for name, (_, unit) in snapshots[0][0].items():
        values = [snapshot[0][name][0] for snapshot in snapshots]
        # counts repeat exactly, so they are reported as counted
        metrics[name] = (values[0] if len(set(values)) == 1 else statistics.median(values), unit)
    metrics["trace.overhead_ratio"] = (statistics.median(with_trace) / statistics.median(plain),
                                       "ratio")
    info = {"ops_per_round": len(ops), "untraced_replays": len(plain),
            "traced_replays": len(with_trace), "counts": snapshots[0][1]}
    return loop, metrics, info, problems


def layer_metrics(tracer, rows, scale):
    """Per-layer metrics of one traced round, and the raw counts behind them.

    ``scale`` takes the round's wall-clock times to reference speed.
    """
    def self_ms(name):
        return tracer.self_ms(name) * scale

    metrics = {}
    for layer in tracing.LAYERS:
        calls, layer_ms = tracer.layer_totals(layer)
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_ms"] = (layer_ms * scale, "ms")
    eigensolves = sum(tracer.calls(f"numpy.{name}") for name in tracing.EIGENSOLVERS)
    validations = tracer.calls("states.validate_density")
    intervals = tracer.calls("separability.entanglement_interval")
    clones = sum(tracer.calls(name) for name in tracing.CLONERS)
    useful = tracer.iterate_rounds + tracer.direct_clones
    metrics.update({
        "numpy.self_ms": (tracer.layer_totals("numpy")[1] * scale, "ms"),
        "numpy.eigensolve_calls": (eigensolves, "count"),
        "numpy.eigensolve_matrices": (tracer.matrices, "count"),
        "numpy.eigensolves_per_row": (eigensolves / rows if rows else 0.0, "1/row"),
        "states.validate_density.calls": (validations, "count"),
        "states.validate_density.self_ms": (self_ms("states.validate_density"), "ms"),
        "states.validate_per_row": (validations / rows if rows else 0.0, "1/row"),
        "states.load_density.self_ms": (self_ms("states.load_density"), "ms"),
        "bell.correlation_matrix.calls": (tracer.calls("bell.correlation_matrix"), "count"),
        "bell.correlation_matrix.self_ms": (self_ms("bell.correlation_matrix"), "ms"),
        "bell.bmax.self_ms": (self_ms("bell.bmax"), "ms"),
        "bell.chsh_value.self_ms": (self_ms("bell.chsh_value"), "ms"),
        "bell.bmax_numeric.self_ms": (self_ms("bell.bmax_numeric"), "ms"),
        "entanglement.concurrence.self_ms": (self_ms("entanglement.concurrence"), "ms"),
        "linalg.psd_sqrt.self_ms": (self_ms("linalg.psd_sqrt"), "ms"),
        "cloning.iterate.self_ms": (self_ms("cloning.iterate"), "ms"),
        "cloning.clone_nonlocal.self_ms": (self_ms("cloning.clone_nonlocal"), "ms"),
        "cloning.clone_local.self_ms": (self_ms("cloning.clone_local"), "ms"),
        "cloning.useful_application_ratio": (useful / clones if clones else 0.0, "ratio"),
        "separability.ppt_verdict.calls": (tracer.calls("separability.ppt_verdict"), "count"),
        "separability.ppt_verdict.self_ms": (self_ms("separability.ppt_verdict"), "ms"),
        "separability.probes_per_interval": (
            tracer.interval_probes / intervals if intervals else 0.0, "1/interval"),
    })
    return metrics, tracer.counts()


def probe_known_defects(cli, state_dir):
    """Inputs the CLI is known to mishandle; reported, not counted as failed."""
    report = {}
    for op in workloads.known_defect_ops(state_dir):
        outcome = workloads.invoke(cli.main, op.argv, time.perf_counter)
        report[op.key] = workloads.check(op, outcome, {}) or "ok"
        if report[op.key] != "ok":
            print(f"bench: known defect still present: {op.key}: {report[op.key]}", file=sys.stderr)
    return report


def environment(args):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "threads": {name: os.environ[name] for name in THREAD_VARS},
    }


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    workload = workloads.WORKLOADS[args.workload]
    golden = json.loads((BENCH_DIR / "golden.json").read_text())
    cli = import_package(root)
    state_dir = root / ".bench_work" / f"run-{os.getpid()}"
    workloads.write_state_files(state_dir)
    try:
        if args.trace:
            loop, metrics, info, problems = traced(args, workload, cli, golden, state_dir)
        else:
            loop, metrics, info, problems = end_to_end(args, root, workload, cli, golden,
                                                       state_dir)
        info["known_defects"] = probe_known_defects(cli, state_dir)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
        try:
            state_dir.parent.rmdir()
        except OSError:
            pass
    for line in (loop.failures + problems)[:20]:
        print(f"bench: {line}", file=sys.stderr)
    info.update(environment(args), failures=loop.failures[:20])
    print(json.dumps({"bench": info}))
    print(json.dumps({
        "correct": not loop.failures and not problems,
        "attempted": len(loop.latencies),
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
