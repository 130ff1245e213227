"""Command-line front end.

Subcommands:

* ``sweep``: alpha-grid sweep of CHSH, maximal CHSH, entanglement of
  formation, and the minimum partial-transpose eigenvalue, as CSV.
* ``table1``: entanglement of formation of the singlet after repeated
  non-local cloning.
* ``interval``: inseparability interval in alpha^2 for a cloning scheme.
* ``analyze``: full report on a density matrix loaded from a JSON file.

Exit codes: 0 success; 1 usage error, an ``interval --tol`` finer than the
float spacing at an endpoint or a PT solve of ``interval`` that does not
converge, or output that cannot be written, a closed stdout among it; 2
invalid input state, including a valid non-two-qubit state and an oversized
file.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import os
import sys
from collections import deque

import numpy as np

from .bell import PLANAR_PI4, _bmax, _chsh, _correlations, _x_bmax, bmax_numeric
from .cloning import _BLOCK, CloneScheme, _iterate, bell_clone
from .entanglement import _concurrence, _eof, _x_concurrence
from .errors import NoConvergenceError
from .linalg import _psd_eigh, _x_entries
from .separability import BISECTION_TOL, _verdict, _x_pt_min, entanglement_interval
from .states import _read_density, _two_qubit_stack

CSV_HEADER = "alpha,chsh_pi4,bmax,eof,min_pt_eig"
_CSV_ROW = "%.9g,%.9g,%.9g,%.9g,%.9g\n"
# a larger grid would only exhaust memory in the amplitude array and the CSV text
MAX_GRID = 1_000_000
# cloning rounds: (3/5)^k < 2^-52 for every k >= 71, so rounds past that only add roundoff
MAX_ROUNDS = 100


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; 2 is reserved for invalid input states here
    def error(self, message):
        _report(f"{self.format_usage()}{self.prog}: error: {message}\n")
        raise SystemExit(1)

    def print_help(self, file=None):
        # --help's text is command output too: it takes the one write, whose exit code ends the parse
        raise SystemExit(_emit(None, 0, self.format_help()))


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
# v > 0.0 is False for NaN, so a NaN tolerance is a usage error too; an infinite one would skip the bisection
_positive_float = _arg_type(float, "a number", [(lambda v: v > 0.0, "must be positive"),
                                                (lambda v: v < np.inf, "must be finite")])


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
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

    return parser, sub.choices


def _clone_block(scheme: CloneScheme, iterations: int, alphas) -> np.ndarray:
    # a sweep block's stack: one channel round, unchecked, or 1 + iterations iterate rounds, keeping the last
    rhos = bell_clone(CloneScheme.PURE if iterations else scheme, alphas)
    if iterations:
        rhos = deque(_iterate(rhos, _psd_eigh(rhos), scheme, 1 + iterations), maxlen=1).pop()[0]
    return rhos


def _grid(points: int) -> np.ndarray:
    # the bits of np.linspace(0.0, 1.0, points) without its wrapper: k * (1 / (points - 1)), the last point set to 1
    alphas = np.arange(points) * (1.0 / (points - 1))
    alphas[-1] = 1.0
    return alphas


def _csv_rows(*columns: np.ndarray) -> str:
    # a block's CSV lines in one %: its columns interleaved row by row into one flat list
    return _CSV_ROW * len(columns[0]) % tuple(np.array(columns).T.ravel().tolist())


def _cmd_sweep(args) -> tuple[int, str]:
    if args.iterations and args.scheme != CloneScheme.NONLOCAL.value:
        _PARSER.error("--iterations applies only to --scheme nonlocal")
    alphas = np.array([args.alpha]) if args.alpha is not None else _grid(args.grid)
    scheme, texts = CloneScheme(args.scheme), [CSV_HEADER + "\n"]
    for start in range(0, len(alphas), _BLOCK):
        block = alphas[start:start + _BLOCK]
        # a built block is a real X stack: _x_entries is its density check, and the X-state kernels give its measures
        rhos = _clone_block(scheme, args.iterations, block)
        x, t = _x_entries(rhos), _correlations(rhos)
        texts.append(_csv_rows(block, _chsh(t, PLANAR_PI4), _x_bmax(t), _eof(_x_concurrence(*x)), _x_pt_min(*x)))
    return 0, "".join(texts)


def _cmd_table1(args) -> tuple[int, str]:
    singlet = bell_clone(CloneScheme.PURE, [np.sqrt(0.5)])
    stacks = [rhos for rhos, _ in _iterate(singlet, _psd_eigh(singlet), CloneScheme.NONLOCAL, args.steps)]
    eofs = _eof(_x_concurrence(*_x_entries(np.concatenate(stacks)))).tolist()
    return 0, "step eof\n" + "".join(f"{step} {eof:.6f}\n" for step, eof in enumerate(eofs))


def _cmd_interval(args) -> tuple[int, str]:
    try:
        result = entanglement_interval(args.scheme, tol=args.tol)
    except NoConvergenceError as exc:
        return 1, f"{type(exc).__name__}: {exc}"
    return 0, f"[{result.low:.6f}, {result.high:.6f}]\n"


def _cmd_analyze(args) -> tuple[int, str]:
    try:
        rhos, spectra = _two_qubit_stack(_read_density(args.input))
        t, (low, entangled), c = _correlations(rhos), _verdict(rhos), _concurrence(rhos, spectra)[1]
        chsh, closed, eof = _chsh(t, PLANAR_PI4)[0], _bmax(t)[0], _eof(c)[0]
        t, low, entangled, c = t[0], low[0], entangled[0], c[0]
        numeric = bmax_numeric(rhos[0], seed=args.seed) if args.validate_bmax else None
    except (ValueError, NoConvergenceError) as exc:
        return 2, f"{type(exc).__name__}: {exc}"
    lines = [f"trace: {np.trace(rhos[0]).real:.9g}",
             "eigenvalues: " + " ".join(f"{v:.9g}" for v in spectra.eigenvalues[0]),
             f"min PT eigenvalue: {low:.9g}", f"verdict: {'entangled' if entangled else 'separable'}", "T matrix:",
             *("  " + " ".join(f"{v:.9g}" for v in row) for row in t),
             f"bmax: {closed:.9g}", f"chsh_pi4: {chsh:.9g}", f"concurrence: {c:.9g}", f"eof: {eof:.9g}"]
    if numeric is not None:
        lines += [f"bmax numeric (seed {args.seed}): {numeric:.9g}", f"bmax gap: {abs(numeric - closed):.9g}"]
    return 0, "\n".join(lines) + "\n"


# built once per process: parse_args keeps no state between calls
_PARSER, _COMMANDS = _build_parser()


def _write(stream, text: str) -> None:
    # all of text to stream, flushed. Unbuffered (PYTHONUNBUFFERED, python -u), a standard stream's text layer writes
    # through to a raw FileIO, which takes what one write(2) takes, and does not retry the rest: a pipe whose reader
    # exits mid-write would end the write short without an error. So a raw stream is written in a loop until done
    if stream is None:  # the interpreter's stream for a descriptor that was closed when it started
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    raw = getattr(stream, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        stream.write(text)
        stream.flush()
        return
    stream.flush()
    data = memoryview(text.encode(stream.encoding, stream.errors))
    while data:
        written = raw.write(data)
        if written is None:  # a non-blocking descriptor that is full
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        data = data[written:]


def _drop(stream) -> None:
    # after a failed write to the process's own stdout or stderr, its descriptor to os.devnull (Python's note on
    # SIGPIPE): the text still buffered would fail the interpreter's flush at exit and turn the exit code into 120.
    # A caller's stream, and None, the stream of a descriptor closed at start-up, stay as they are
    if stream is not None and (stream is sys.__stdout__ or stream is sys.__stderr__):
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), stream.fileno())


def _report(text: str) -> None:
    # text to stderr; a stderr that cannot be written loses it, never the exit code
    try:
        _write(sys.stderr, text)
    except OSError:
        _drop(sys.stderr)


def _emit(args, code: int, text: str) -> int:
    # the one write of a _cmd_*'s (exit code, text): on exit 0 the text to --out or stdout, else its one line to stderr
    if code:
        _report(text + "\n")
        return code
    out = getattr(args, "out", None)
    try:
        with contextlib.nullcontext(sys.stdout) if out is None else open(out, "w", newline="") as handle:
            _write(handle, text)
    except OSError as exc:
        if out is None:
            _drop(sys.stdout)
        _report(f"cannot write {'stdout' if out is None else out}: {exc}\n")
        return 1
    return 0


def main(argv=None) -> int:
    # one parse, by the subcommand's own parser; an argv it leaves words of, or one that names no subcommand,
    # is parsed again from the top, so every usage error keeps the text and prog of the two-level parse
    argv = sys.argv[1:] if argv is None else list(argv)
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if command is None or extra:
        args = _PARSER.parse_args(argv)
    return _emit(args, *args.run(args))


if __name__ == "__main__":
    raise SystemExit(main())
