"""Command-line front end.

Subcommands:

* ``sweep``: alpha-grid sweep of CHSH, maximal CHSH, entanglement of
  formation, and the minimum partial-transpose eigenvalue, as CSV.
* ``table1``: entanglement of formation of the singlet after repeated
  non-local cloning.
* ``interval``: inseparability interval in alpha^2 for a cloning scheme.
* ``analyze``: full report on a density matrix loaded from a JSON file.

Exit codes: 0 success, 1 usage error (or an ``interval --tol`` finer than
the float spacing at an endpoint), 2 invalid input state (including a valid
state that is not two-qubit).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bell import bmax, bmax_numeric, chsh_value, correlation_matrix, planar_pi4_config
from .cloning import CloneScheme, bell_clone, iterate
from .entanglement import concurrence, entanglement_of_formation
from .errors import NoConvergenceError
from .linalg import hermitian_eig, require_two_qubit
from .separability import entanglement_interval, ppt_verdict
from .states import BellKind, bell_state, density_from_pure, load_density

CSV_HEADER = "alpha,chsh_pi4,bmax,eof,min_pt_eig"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; 2 is reserved for invalid input states here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_at_least(minimum):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _float_where(valid, requirement):
    def parse(text):
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}")
        if not valid(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {value}")
        return value

    return parse


_alpha_arg = _float_where(lambda v: 0.0 <= v <= 1.0, "alpha must lie in [0, 1]")
# v > 0.0 is False for NaN, so a NaN tolerance is a usage error too
_positive_float = _float_where(lambda v: v > 0.0, "must be positive")


def _build_parser() -> _Parser:
    parser = _Parser(prog="entclone", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="alpha-grid sweep as CSV")
    sweep.add_argument("--scheme", choices=[s.value for s in CloneScheme], default="pure")
    sweep.add_argument("--grid", type=_int_at_least(2), default=201,
                       help="uniform grid points over [0, 1], endpoints included")
    sweep.add_argument("--iterations", type=_int_at_least(0), default=0,
                       help="extra cloning steps beyond the first (nonlocal only)")
    sweep.add_argument("--alpha", type=_alpha_arg, default=None,
                       help="emit a single row at this alpha instead of the grid")
    sweep.add_argument("--out", default=None, help="CSV path (default: stdout)")

    table1 = sub.add_parser("table1", help="singlet EoF under repeated non-local cloning")
    table1.add_argument("--steps", type=_int_at_least(1), default=3)

    interval = sub.add_parser("interval", help="inseparability interval in alpha^2")
    interval.add_argument("--scheme", choices=["local", "nonlocal"], required=True)
    interval.add_argument("--tol", type=_positive_float, default=1e-8)

    analyze = sub.add_parser("analyze", help="report on a density matrix from a JSON file")
    analyze.add_argument("--input", required=True, help="JSON density-matrix file")
    analyze.add_argument("--validate-bmax", action="store_true",
                         help="cross-check the closed-form maximum numerically")
    analyze.add_argument("--seed", type=int, default=0,
                         help="seed for the numerical cross-check restarts")

    return parser


def _sweep_lines(scheme: CloneScheme, iterations: int, alphas) -> list[str]:
    cfg = planar_pi4_config()
    lines = [CSV_HEADER]
    for alpha in alphas:
        rho = bell_clone(scheme, float(alpha), iterations)
        row = (
            float(alpha),
            chsh_value(rho, cfg),
            bmax(rho),
            entanglement_of_formation(rho),
            ppt_verdict(rho).min_pt_eigenvalue,
        )
        lines.append(",".join(f"{value:.9g}" for value in row))
    return lines


def _cmd_sweep(args) -> int:
    alphas = [args.alpha] if args.alpha is not None else np.linspace(0.0, 1.0, args.grid)
    text = "\n".join(_sweep_lines(CloneScheme(args.scheme), args.iterations, alphas)) + "\n"
    if args.out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_table1(args) -> int:
    singlet = density_from_pure(bell_state(BellKind.PSI_MINUS, np.sqrt(0.5)))
    sequence = iterate(singlet, CloneScheme.NONLOCAL, args.steps)
    print("step eof")
    for step, state in enumerate(sequence.states):
        print(f"{step} {entanglement_of_formation(state):.6f}")
    return 0


def _cmd_interval(args) -> int:
    try:
        result = entanglement_interval(args.scheme, tol=args.tol)
    except NoConvergenceError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"[{result.low:.6f}, {result.high:.6f}]")
    return 0


def _cmd_analyze(args) -> int:
    try:
        rho = require_two_qubit(load_density(args.input))
    except ValueError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    verdict = ppt_verdict(rho)
    closed = bmax(rho)
    print(f"trace: {np.trace(rho).real:.9g}")
    print("eigenvalues: " + " ".join(f"{v:.9g}" for v in hermitian_eig(rho).eigenvalues))
    print(f"min PT eigenvalue: {verdict.min_pt_eigenvalue:.9g}")
    print(f"verdict: {'entangled' if verdict.entangled else 'separable'}")
    print("T matrix:")
    for row in correlation_matrix(rho):
        print("  " + " ".join(f"{v:.9g}" for v in row))
    print(f"bmax: {closed:.9g}")
    print(f"chsh_pi4: {chsh_value(rho, planar_pi4_config()):.9g}")
    print(f"concurrence: {concurrence(rho).concurrence:.9g}")
    print(f"eof: {entanglement_of_formation(rho):.9g}")
    if args.validate_bmax:
        numeric = bmax_numeric(rho, seed=args.seed)
        print(f"bmax numeric (seed {args.seed}): {numeric:.9g}")
        print(f"bmax gap: {abs(numeric - closed):.9g}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep":
        if args.iterations and args.scheme != "nonlocal":
            parser.error("--iterations applies only to --scheme nonlocal")
        return _cmd_sweep(args)
    if args.command == "table1":
        return _cmd_table1(args)
    if args.command == "interval":
        return _cmd_interval(args)
    return _cmd_analyze(args)


if __name__ == "__main__":
    raise SystemExit(main())
