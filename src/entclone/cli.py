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

from .bell import _bmax, _chsh, _correlations, bmax_numeric, planar_pi4_config
from .cloning import CloneScheme, _iterate, bell_clone
from .entanglement import _concurrence, _eof
from .errors import NoConvergenceError
from .linalg import hermitian_eig, require_two_qubit
from .separability import BISECTION_TOL, _verdict, entanglement_interval
from .states import load_density

CSV_HEADER = "alpha,chsh_pi4,bmax,eof,min_pt_eig"
_CSV_ROW = "%.9g,%.9g,%.9g,%.9g,%.9g"
# a larger grid would only exhaust memory in np.linspace and the CSV text
MAX_GRID = 1_000_000
# cloning rounds: (3/5)^k < 2^-52 for every k >= 71, so rounds past that only add roundoff
MAX_ROUNDS = 100


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; 2 is reserved for invalid input states here
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _arg_type(convert, noun, rules):
    def parse(text):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}")
        for valid, requirement in rules:
            if not valid(value):
                raise argparse.ArgumentTypeError(f"{requirement}, got {value}")
        return value

    return parse


def _int_arg(minimum, maximum=None):
    rules = [(lambda v: v >= minimum, f"must be at least {minimum}")]
    if maximum is not None:
        rules.append((lambda v: v <= maximum, f"must be at most {maximum}"))
    return _arg_type(int, "an integer", rules)


_alpha_arg = _arg_type(float, "a number", [(lambda v: 0.0 <= v <= 1.0, "alpha must lie in [0, 1]")])
# v > 0.0 is False for NaN, so a NaN tolerance is a usage error too
_positive_float = _arg_type(float, "a number", [(lambda v: v > 0.0, "must be positive")])


def _build_parser() -> _Parser:
    parser = _Parser(prog="entclone", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="alpha-grid sweep as CSV")
    sweep.add_argument("--scheme", choices=[s.value for s in CloneScheme], default=CloneScheme.PURE.value)
    sweep.add_argument("--grid", type=_int_arg(2, MAX_GRID), default=201,
                       help=f"uniform grid points over [0, 1], endpoints included (at most {MAX_GRID})")
    sweep.add_argument("--iterations", type=_int_arg(0, MAX_ROUNDS), default=0,
                       help=f"extra cloning steps beyond the first (nonlocal only, at most {MAX_ROUNDS})")
    sweep.add_argument("--alpha", type=_alpha_arg, default=None,
                       help="emit a single row at this alpha instead of the grid")
    sweep.add_argument("--out", default=None, help="CSV path (default: stdout)")
    sweep.set_defaults(run=_cmd_sweep)

    table1 = sub.add_parser("table1", help="singlet EoF under repeated non-local cloning")
    table1.add_argument("--steps", type=_int_arg(1, MAX_ROUNDS), default=3,
                        help=f"non-local cloning steps (at most {MAX_ROUNDS})")
    table1.set_defaults(run=_cmd_table1)

    interval = sub.add_parser("interval", help="inseparability interval in alpha^2")
    interval.add_argument("--scheme", choices=[s.value for s in CloneScheme if s is not CloneScheme.PURE], required=True)
    interval.add_argument("--tol", type=_positive_float, default=BISECTION_TOL)
    interval.set_defaults(run=_cmd_interval)

    analyze = sub.add_parser("analyze", help="report on a density matrix from a JSON file")
    analyze.add_argument("--input", required=True, help="JSON density-matrix file")
    analyze.add_argument("--validate-bmax", action="store_true",
                         help="cross-check the closed-form maximum numerically")
    analyze.add_argument("--seed", type=_int_arg(0), default=0,
                         help="seed for the numerical cross-check restarts")
    analyze.set_defaults(run=_cmd_analyze)

    return parser


# rows measured per stack: bounds the (N, 3, 3, 4, 4) product behind T
_BLOCK = 256


def _measures(rhos):
    # every state reaching here came from a checked alpha, load_density or iterate
    t = _correlations(rhos)
    low, entangled = _verdict(rhos)
    c = _concurrence(rhos)[1]
    return t, _chsh(t, _PI4), _bmax(t), c, _eof(c), low, entangled


def _sweep_lines(scheme: CloneScheme, iterations: int, alphas: np.ndarray) -> list[str]:
    lines = [CSV_HEADER]
    for start in range(0, len(alphas), _BLOCK):
        block = alphas[start:start + _BLOCK]
        _, chsh, closed, _, eof, low, _ = _measures(bell_clone(scheme, block, iterations))
        rows = zip(block.tolist(), chsh.tolist(), closed.tolist(), eof.tolist(), low.tolist())
        lines.extend(_CSV_ROW % row for row in rows)
    return lines


def _cmd_sweep(args) -> int:
    if args.iterations and args.scheme != CloneScheme.NONLOCAL.value:
        _PARSER.error("--iterations applies only to --scheme nonlocal")
    alphas = np.array([args.alpha]) if args.alpha is not None else np.linspace(0.0, 1.0, args.grid)
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
    singlet = bell_clone(CloneScheme.PURE, [np.sqrt(0.5)])
    sequence = np.concatenate(list(_iterate(singlet, CloneScheme.NONLOCAL, args.steps)))
    print("step eof")
    for step, eof in enumerate(_eof(_concurrence(sequence)[1]).tolist()):
        print(f"{step} {eof:.6f}")
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
        t, chsh, closed, c, eof, low, entangled = (m[0] for m in _measures(rho[None]))
    except (ValueError, NoConvergenceError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(f"trace: {np.trace(rho).real:.9g}")
    print("eigenvalues: " + " ".join(f"{v:.9g}" for v in hermitian_eig(rho).eigenvalues))
    print(f"min PT eigenvalue: {low:.9g}")
    print(f"verdict: {'entangled' if entangled else 'separable'}")
    print("T matrix:")
    for row in t:
        print("  " + " ".join(f"{v:.9g}" for v in row))
    print(f"bmax: {closed:.9g}")
    print(f"chsh_pi4: {chsh:.9g}")
    print(f"concurrence: {c:.9g}")
    print(f"eof: {eof:.9g}")
    if args.validate_bmax:
        numeric = bmax_numeric(rho, seed=args.seed)
        print(f"bmax numeric (seed {args.seed}): {numeric:.9g}")
        print(f"bmax gap: {abs(numeric - closed):.9g}")
    return 0


# built once per process: parse_args keeps no state between calls, and nothing writes to _PI4
_PARSER = _build_parser()
_PI4 = planar_pi4_config()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
