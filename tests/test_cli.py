import argparse
import contextlib
import io
import json
import locale
import os
import resource
import shlex
import subprocess
import sys

import numpy as np
import pytest

from entclone import BellKind, ChshConfig, bell_state, density_from_pure, save_density, states
from entclone import cli, cloning
from entclone.cli import CSV_HEADER, MAX_GRID, main
from entclone.states import MAX_STATE_BYTES

from helpers import ClosedPipeStream, FullStream, fail_solves, package_env


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _rows(out):
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    return [[float(x) for x in line.split(",")] for line in lines[1:]]


def test_no_subcommand_is_a_usage_error(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 1
    assert "usage" in err


def test_main_builds_no_parser_per_call(capsys, monkeypatch):
    original = argparse.ArgumentParser.__init__
    built = []

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run_cli(["sweep", "--grid", "2"], capsys)[0] == 0
    assert run_cli(["interval", "--scheme", "local", "--tol", "0.1"], capsys)[0] == 0
    assert run_cli(["sweep", "--grid", "1"], capsys)[0] == 1
    assert built == []


def test_main_builds_no_chsh_config_per_call(tmp_path, capsys, monkeypatch):
    original = ChshConfig.__init__
    built = []

    def counting(self, *args, **kwargs):
        built.append(kwargs)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ChshConfig, "__init__", counting)
    path = _write_state(tmp_path / "mixed.json", np.eye(4) / 4.0)
    assert run_cli(["sweep", "--grid", "2"], capsys)[0] == 0
    assert run_cli(["sweep", "--scheme", "nonlocal", "--iterations", "1", "--alpha", "0.6"], capsys)[0] == 0
    assert run_cli(["analyze", "--input", path], capsys)[0] == 0
    assert built == []


def test_flags_of_one_call_do_not_carry_into_the_next(capsys):
    argv = ["sweep", "--scheme", "pure", "--grid", "3"]
    assert run_cli(["sweep", "--scheme", "pure", "--alpha", "0.3"], capsys)[0] == 0
    code, out, _ = run_cli(argv, capsys)
    fresh = subprocess.run(
        [sys.executable, "-m", "entclone.cli", *argv], capture_output=True, text=True, env=package_env()
    )
    assert code == 0
    assert fresh.returncode == 0
    assert out == fresh.stdout
    assert len(_rows(out)) == 3


def test_sweep_single_alpha_pure(capsys):
    code, out, _ = run_cli(["sweep", "--alpha", str(np.sqrt(0.5))], capsys)
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 1
    alpha, chsh, maximal, eof, min_pt = rows[0]
    assert abs(chsh - 2.828427) < 1e-6
    assert abs(maximal - 2.828427) < 1e-6
    assert abs(eof - 1.0) < 1e-8
    assert abs(min_pt - (-0.5)) < 1e-8


def test_sweep_single_alpha_nonlocal(capsys):
    code, out, _ = run_cli(["sweep", "--scheme", "nonlocal", "--alpha", str(np.sqrt(0.5))], capsys)
    assert code == 0
    _, _, maximal, eof, _ = _rows(out)[0]
    assert abs(maximal - 1.697056) < 1e-6
    assert abs(eof - 0.250225) < 1e-6


def test_sweep_grid_covers_unit_interval(capsys):
    code, out, _ = run_cli(["sweep", "--grid", "11"], capsys)
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 11
    assert rows[0][0] == 0.0
    assert rows[-1][0] == 1.0
    assert all(np.isfinite(row).all() for row in map(np.array, rows))


def test_sweep_default_grid_has_201_rows(capsys):
    code, out, _ = run_cli(["sweep"], capsys)
    assert code == 0
    assert len(_rows(out)) == 201


def test_sweep_local_rows_never_violate_chsh(capsys):
    code, out, _ = run_cli(["sweep", "--scheme", "local", "--grid", "51"], capsys)
    assert code == 0
    assert all(row[2] <= 2.0 for row in _rows(out))


def test_sweep_iterations_extend_the_cloning_chain(capsys):
    # --iterations counts extra rounds beyond the first
    alpha = str(np.sqrt(0.5))
    code, out, _ = run_cli(["sweep", "--scheme", "nonlocal", "--iterations", "1", "--alpha", alpha], capsys)
    assert code == 0
    assert abs(_rows(out)[0][3] - 0.005094) < 1e-6
    code, out, _ = run_cli(["sweep", "--scheme", "nonlocal", "--iterations", "2", "--alpha", alpha], capsys)
    assert code == 0
    assert _rows(out)[0][3] == 0.0


def test_sweep_writes_file(tmp_path, capsys):
    target = tmp_path / "curve.csv"
    code, out, _ = run_cli(["sweep", "--grid", "5", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith(CSV_HEADER + "\n")
    assert text.endswith("\n")
    assert len(text.strip().split("\n")) == 6


def test_sweep_reports_an_unwritable_out_path(tmp_path, capsys):
    code, out, err = run_cli(["sweep", "--grid", "3", "--out", str(tmp_path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"cannot write {tmp_path}: ")
    assert err.count("\n") == 1


# an argv of each subcommand that writes to stdout, and the top-level help; {state} is a valid state file
_WRITING_ARGVS = [["sweep", "--grid", "5"], ["table1"], ["interval", "--scheme", "local"],
                  ["analyze", "--input", "{state}"], ["--help"]]


def _argv(argv, tmp_path):
    path = _write_state(tmp_path / "mixed.json", np.eye(4) / 4.0)
    return [path if arg == "{state}" else arg for arg in argv]


@pytest.mark.parametrize("stream, message", [(FullStream, "[Errno 28] No space left on device"),
                                             (ClosedPipeStream, "[Errno 32] Broken pipe")])
@pytest.mark.parametrize("argv", _WRITING_ARGVS, ids=" ".join)
def test_a_failed_stdout_write_is_one_line_and_exit_1(argv, stream, message, tmp_path):
    stdout, err = stream(), io.StringIO()
    before = os.fstat(1)
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        try:
            code = main(_argv(argv, tmp_path))
        except SystemExit as exc:
            code = exc.code
        assert sys.stdout is stdout
    assert (code, err.getvalue()) == (1, f"cannot write stdout: {message}\n")
    # an in-process caller keeps its streams: descriptor 1 is not pointed at os.devnull either
    after = os.fstat(1)
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)


@pytest.mark.parametrize("argv", _WRITING_ARGVS, ids=" ".join)
def test_a_closed_stdout_is_one_line_and_exit_1(argv, tmp_path, monkeypatch):
    # a descriptor 1 closed when the interpreter started leaves sys.stdout and sys.__stdout__ None
    err = io.StringIO()
    with monkeypatch.context() as patch, contextlib.redirect_stderr(err):
        patch.setattr(sys, "stdout", None)
        patch.setattr(sys, "__stdout__", None)
        try:
            code = main(_argv(argv, tmp_path))
        except SystemExit as exc:
            code = exc.code
    assert (code, err.getvalue()) == (1, "cannot write stdout: [Errno 9] Bad file descriptor\n")


@pytest.mark.parametrize("argv, code", [(["sweep", "--grid", "1"], 1),
                                        (["interval", "--scheme", "local", "--tol", "1e-30"], 1),
                                        (["analyze", "--input", "{dir}/missing.json"], 2)],
                         ids=["usage", "stall", "input"])
def test_a_closed_stderr_keeps_the_exit_code(argv, code, tmp_path, monkeypatch, capsys):
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stderr", None)
        patch.setattr(sys, "__stderr__", None)
        assert run_cli(argv, capsys)[0] == code
    assert capsys.readouterr() == ("", "")


def test_a_child_started_with_stdout_closed_is_one_line_and_exit_1():
    # as `entclone sweep --grid 3 >&-` in a shell
    command = f"{shlex.quote(sys.executable)} -m entclone.cli sweep --grid 3 >&-"
    done = subprocess.run(["sh", "-c", command], stderr=subprocess.PIPE, text=True, env=package_env())
    assert (done.returncode, done.stderr) == (1, "cannot write stdout: [Errno 9] Bad file descriptor\n")


def _module_env(unbuffered=False):
    # without PYTHONUNBUFFERED, as a shell runs it, unless unbuffered: a failed flush leaves text buffered for the
    # interpreter's flush at exit, which would print "Exception ignored" and exit 120 were the stream not pointed at
    # os.devnull; unbuffered, each standard stream writes through to a raw FileIO
    env = {name: value for name, value in package_env().items() if name != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


def _run_module(argv, stdout):
    done = subprocess.run([sys.executable, "-m", "entclone.cli", *argv], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=_module_env())
    return done.returncode, done.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", _WRITING_ARGVS, ids=" ".join)
def test_stdout_on_a_full_device_is_one_line_and_exit_1(argv, tmp_path):
    with open("/dev/full", "w") as full:
        done = _run_module(_argv(argv, tmp_path), full)
    assert done == (1, "cannot write stdout: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("argv", [["sweep", "--grid", "100001"], *_WRITING_ARGVS], ids=" ".join)
def test_stdout_into_a_closed_pipe_is_one_line_and_exit_1(argv, tmp_path):
    # the read end is closed before the child starts; sweep --grid 100001 writes about 6 MB, far past a pipe's buffer
    read, write = os.pipe()
    os.close(read)
    try:
        assert _run_module(_argv(argv, tmp_path), write) == (1, "cannot write stdout: [Errno 32] Broken pipe\n")
    finally:
        os.close(write)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stdout_into_a_pipe_whose_reader_exits_mid_write_is_one_line_and_exit_1(unbuffered, tmp_path):
    # as `entclone sweep --grid 100001 | head -n 1`: the reader takes one line of about 6 MB and exits while the
    # write blocks on the full pipe, so that write(2) returns short; unbuffered, only a retry of the rest meets EPIPE
    argv = [sys.executable, "-m", "entclone.cli", "sweep", "--grid", "100001"]
    with open(tmp_path / "err", "w+") as err:
        child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=_module_env(unbuffered))
        assert child.stdout.readline() == (CSV_HEADER + "\n").encode()
        child.stdout.close()
        assert child.wait(timeout=120) == 1
        err.seek(0)
        assert err.read() == "cannot write stdout: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, code", [(["sweep", "--grid", "1"], 1),
                                        (["interval", "--scheme", "local", "--tol", "1e-30"], 1),
                                        (["analyze", "--input", "{dir}/missing.json"], 2)],
                         ids=["usage", "stall", "input"])
def test_a_stderr_that_cannot_be_written_keeps_the_exit_code(argv, code, unbuffered, tmp_path):
    # the message is lost, but neither it nor the interpreter's flush at exit turns the exit code into 120
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "entclone.cli", *argv], stdout=subprocess.PIPE, stderr=full,
                              env=_module_env(unbuffered))
    assert (done.returncode, done.stdout) == (code, b"")


def test_sweep_flag_validation(capsys):
    assert run_cli(["sweep", "--grid", "1"], capsys)[0] == 1
    assert run_cli(["sweep", "--alpha", "1.5"], capsys)[0] == 1
    assert run_cli(["sweep", "--scheme", "telepathic"], capsys)[0] == 1
    assert run_cli(["sweep", "--iterations", "-1"], capsys)[0] == 1
    assert run_cli(["sweep", "--scheme", "local", "--iterations", "2"], capsys)[0] == 1
    assert run_cli(["sweep", "--scheme", "pure", "--iterations", "1"], capsys)[0] == 1
    assert run_cli(["sweep", "--scheme", "nonlocal", "--iterations", "101"], capsys)[0] == 1
    assert run_cli(["sweep", "--grid", str(MAX_GRID + 1)], capsys)[0] == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--grid", "1"], "entclone sweep: error: argument --grid: must be at least 2, got 1"),
        (["sweep", "--grid", "x"], "entclone sweep: error: argument --grid: not an integer: 'x'"),
        (["sweep", "--grid", "1000001"], "entclone sweep: error: argument --grid: must be at most 1000000, got 1000001"),
        (["sweep", "--alpha", "1.5"], "entclone sweep: error: argument --alpha: alpha must lie in [0, 1], got 1.5"),
        (["sweep", "--alpha", "nan"], "entclone sweep: error: argument --alpha: alpha must lie in [0, 1], got nan"),
        (["sweep", "--alpha", "abc"], "entclone sweep: error: argument --alpha: not a number: 'abc'"),
        (["interval", "--scheme", "local", "--tol", "0"], "entclone interval: error: argument --tol: must be positive, got 0.0"),
        (["interval", "--scheme", "local", "--tol", "nan"], "entclone interval: error: argument --tol: must be positive, got nan"),
        (["interval", "--scheme", "local", "--tol", "x"], "entclone interval: error: argument --tol: not a number: 'x'"),
        (["sweep", "--iterations", "101"], "entclone sweep: error: argument --iterations: must be at most 100, got 101"),
        (["sweep", "--iterations", "-1"], "entclone sweep: error: argument --iterations: must be at least 0, got -1"),
        (["table1", "--steps", "0"], "entclone table1: error: argument --steps: must be at least 1, got 0"),
        (["table1", "--steps", "101"], "entclone table1: error: argument --steps: must be at most 100, got 101"),
        (["analyze", "--input", "s.json", "--seed", "-1"], "entclone analyze: error: argument --seed: must be at least 0, got -1"),
        (["analyze", "--input", "s.json", "--seed", "1.5"], "entclone analyze: error: argument --seed: not an integer: '1.5'"),
        (["interval", "--scheme", "pure"],
         "entclone interval: error: argument --scheme: invalid choice: 'pure' (choose from 'local', 'nonlocal')"),
        (["interval", "--scheme", "local", "--tol", "inf"], "entclone interval: error: argument --tol: must be finite, got inf"),
    ],
)
def test_usage_errors_end_in_their_exact_message(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == message


def _two_level(argv):
    # main as it parsed before it went straight to the subcommand's parser: the top-level parser, which hands the
    # rest of argv to the subcommand's parser and reports what that parser leaves; the handler's result goes through
    # the same write as main's
    args = cli._PARSER.parse_args(argv)
    return cli._emit(args, *args.run(args))


def run_two_level(argv, capsys):
    try:
        code = _two_level(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


_PARSE_CORPUS = [
    # the usage errors the benchmark times
    ["sweep", "--scheme", "local", "--iterations", "2"],
    ["sweep", "--scheme", "pure", "--iterations", "1"],
    ["sweep", "--grid", "1"],
    ["sweep", "--alpha", "1.5"],
    ["table1", "--steps", "0"],
    ["interval", "--scheme", "pure"],
    ["interval", "--scheme", "local", "--tol", "0"],
    ["analyze"],
    [],
    # help, from the top and from each subcommand
    ["-h"],
    ["--help"],
    *([command, "--help"] for command in ("sweep", "table1", "interval", "analyze")),
    # words the subcommand's parser leaves, and argvs that name no subcommand
    ["sweep", "--bogus"],
    ["sweep", "--grid", "5", "stray"],
    ["bogus"],
    ["--", "sweep"],
    ["sweep", "--", "--grid"],
    ["sweep", "--"],
    ["table1", "--steps", "1", "--help", "stray"],
    # valid argvs that lean on argparse: an abbreviated flag, a negative-looking value, a repeated flag
    ["sweep", "--sch", "local"],
    ["sweep", "--alpha", "-0.5"],
    ["interval", "--scheme", "local", "--tol", "0.1", "--tol", "0.01"],
    ["table1", "--steps", "2"],
]


@pytest.mark.parametrize("argv", _PARSE_CORPUS, ids=" ".join)
def test_one_parse_has_the_bytes_of_the_two_level_parse(argv, capsys):
    assert run_cli(argv, capsys) == run_two_level(argv, capsys)


def test_one_parse_reads_sys_argv_like_the_two_level_parse(capsys, monkeypatch):
    for argv in (["table1", "--steps", "1"], ["sweep", "--bogus"], []):
        monkeypatch.setattr(sys, "argv", ["entclone", *argv])
        expected = run_two_level(None, capsys)
        assert run_cli(None, capsys) == expected == run_two_level(argv, capsys)


def test_a_valid_argv_is_parsed_only_by_its_subcommand(tmp_path, capsys, monkeypatch):
    original = cli._PARSER.parse_known_args
    entered = []

    def counting(*args, **kwargs):
        entered.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli._PARSER, "parse_known_args", counting)
    path = _write_state(tmp_path / "mixed.json", np.eye(4) / 4.0)
    valid = (["sweep", "--grid", "2"], ["table1", "--steps", "1"], ["interval", "--scheme", "nonlocal", "--tol", "0.1"],
             ["analyze", "--input", path, "--validate-bmax"], ("table1",))
    for argv in valid:
        assert run_cli(argv, capsys)[0] == 0
    assert entered == []
    # the counter is live: an argv with a word left over is parsed again from the top
    assert run_cli(["sweep", "--bogus"], capsys)[0] == 1
    assert len(entered) == 1


def test_sweep_iterations_bound(capsys):
    code, _, err = run_cli(["sweep", "--scheme", "nonlocal", "--iterations", "101"], capsys)
    assert code == 1
    assert err.strip().splitlines()[-1].endswith("--iterations: must be at most 100, got 101")
    code, out, _ = run_cli(["sweep", "--scheme", "nonlocal", "--iterations", "100", "--alpha", "0.6"], capsys)
    assert code == 0
    [row] = _rows(out)
    # 101 rounds of the 3/5 shrink leave I/4 to machine precision
    assert row[3] == 0.0
    assert abs(row[4] - 0.25) < 1e-12


@pytest.mark.parametrize("scheme", ["pure", "local", "nonlocal"])
def test_sweep_validates_no_state_it_builds(scheme, capsys, monkeypatch):
    # every density check, validate_density included, is a call of the stacked one
    original = states._check_densities
    calls = []

    def counting(m):
        calls.append(m.shape)
        return original(m)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("entclone") and getattr(module, "_check_densities", None) is original:
            monkeypatch.setattr(module, "_check_densities", counting)
    counts = []
    for grid in ("2", "201"):
        calls.clear()
        assert run_cli(["sweep", "--scheme", scheme, "--grid", grid, "--iterations", "0"], capsys)[0] == 0
        counts.append(len(calls))
    assert counts == [0, 0]
    # the counter does see the check iterate keeps: one per window of rounds, here both rounds of the 2-row block in
    # one (4, 4, 4) stack; a window fails over to the per-round density check only when that stacked check fails
    clean = cloning._clean

    def checking(scheme, chain, n, values):
        calls.append(chain[n:].shape)
        return clean(scheme, chain, n, values)

    monkeypatch.setattr(cloning, "_clean", checking)
    assert run_cli(["sweep", "--scheme", "nonlocal", "--grid", "2", "--iterations", "1"], capsys)[0] == 0
    assert calls == [(4, 4, 4)]


def test_table1_default_steps(capsys):
    code, out, _ = run_cli(["table1"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "step eof"
    values = [float(line.split()[1]) for line in lines[1:]]
    assert len(values) == 4
    assert abs(values[0] - 1.0) < 1e-6
    assert abs(values[1] - 0.250225) < 1e-4
    assert abs(values[2] - 0.005094) < 1e-4
    assert values[3] == 0.0


def test_table1_more_steps_stay_dead(capsys):
    code, out, _ = run_cli(["table1", "--steps", "4"], capsys)
    assert code == 0
    values = [float(line.split()[1]) for line in out.strip().split("\n")[1:]]
    assert len(values) == 5
    assert values[4] == 0.0


def test_table1_single_step(capsys):
    code, out, _ = run_cli(["table1", "--steps", "1"], capsys)
    assert code == 0
    values = [float(line.split()[1]) for line in out.strip().split("\n")[1:]]
    assert len(values) == 2
    assert abs(values[1] - 0.250225) < 1e-4


def test_table1_rejects_zero_steps(capsys):
    assert run_cli(["table1", "--steps", "0"], capsys)[0] == 1


def test_table1_steps_bound(capsys):
    code, _, err = run_cli(["table1", "--steps", "101"], capsys)
    assert code == 1
    assert err.strip().splitlines()[-1].endswith("--steps: must be at most 100, got 101")
    code, out, _ = run_cli(["table1", "--steps", "100"], capsys)
    assert code == 0
    assert out.strip().splitlines()[-1] == "100 0.000000"


def test_interval_local(capsys):
    code, out, _ = run_cli(["interval", "--scheme", "local"], capsys)
    assert code == 0
    assert out.strip() == "[0.109688, 0.890312]"


def test_interval_nonlocal(capsys):
    code, out, _ = run_cli(["interval", "--scheme", "nonlocal"], capsys)
    assert code == 0
    assert out.strip() == "[0.028595, 0.971405]"


def test_interval_tolerance_consistency(capsys):
    _, coarse, _ = run_cli(["interval", "--scheme", "local", "--tol", "1e-4"], capsys)
    _, fine, _ = run_cli(["interval", "--scheme", "local"], capsys)

    def endpoints(text):
        return [float(x) for x in text.strip(" []\n").split(",")]

    for a, b in zip(endpoints(coarse), endpoints(fine)):
        assert abs(a - b) < 1e-4


def test_interval_flag_validation(capsys):
    assert run_cli(["interval"], capsys)[0] == 1
    assert run_cli(["interval", "--scheme", "pure"], capsys)[0] == 1
    assert run_cli(["interval", "--scheme", "local", "--tol", "-1"], capsys)[0] == 1
    assert run_cli(["interval", "--scheme", "local", "--tol", "nan"], capsys)[0] == 1


HIGH_STALL_BRACKETS = {
    "local": "[0.8903123747197558, 0.8903123747197559]",
    "nonlocal": "[0.971404520732106, 0.9714045207321061]",
}


@pytest.mark.parametrize("scheme", ["local", "nonlocal"])
def test_interval_tol_below_float_spacing_is_reported(scheme, capsys):
    code, out, err = run_cli(["interval", "--scheme", scheme, "--tol", "1e-30"], capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("NoConvergenceError: bisection stalled at alpha^2 bracket [")
    # the low endpoint converges at 5e-17 and the high one stalls
    bracket = HIGH_STALL_BRACKETS[scheme]
    assert run_cli(["interval", "--scheme", scheme, "--tol", "5e-17"], capsys) == (
        1, "", f"NoConvergenceError: bisection stalled at alpha^2 bracket {bracket}, wider than tol 5e-17\n")


@pytest.mark.parametrize("tol", ["1e-14", "1e-12", "1e-10", "1e-8"])
def test_interval_fine_tolerances_print_the_paper_endpoints(tol, capsys):
    assert run_cli(["interval", "--scheme", "local", "--tol", tol], capsys)[1] == "[0.109688, 0.890312]\n"
    assert run_cli(["interval", "--scheme", "nonlocal", "--tol", tol], capsys)[1] == "[0.028595, 0.971405]\n"


def _write_state(path, rho):
    save_density(path, np.asarray(rho, dtype=complex))
    return str(path)


def test_analyze_maximally_mixed(tmp_path, capsys):
    path = _write_state(tmp_path / "mixed.json", np.eye(4) / 4.0)
    code, out, _ = run_cli(["analyze", "--input", path], capsys)
    assert code == 0
    assert "verdict: separable" in out
    assert "bmax: 0\n" in out
    assert "eof: 0\n" in out


def test_analyze_singlet(tmp_path, capsys):
    rho = density_from_pure(bell_state(BellKind.PSI_MINUS, np.sqrt(0.5)))
    path = _write_state(tmp_path / "singlet.json", rho)
    code, out, _ = run_cli(["analyze", "--input", path], capsys)
    assert code == 0
    assert "verdict: entangled" in out
    assert "bmax: 2.82842712" in out
    assert "trace: 1\n" in out
    assert "min PT eigenvalue: -0.5" in out


def test_analyze_validate_bmax(tmp_path, capsys):
    rho = density_from_pure(bell_state(BellKind.PSI_MINUS, 0.6))
    path = _write_state(tmp_path / "tilted.json", rho)
    code, out, _ = run_cli(["analyze", "--input", path, "--validate-bmax", "--seed", "3"], capsys)
    assert code == 0
    gap = [line for line in out.split("\n") if line.startswith("bmax gap:")]
    assert len(gap) == 1
    assert float(gap[0].split(":")[1]) < 1e-6


def test_analyze_rejects_nonpositive_matrix(tmp_path, capsys):
    alpha = np.sqrt(0.5)
    beta = np.sqrt(1.0 - alpha * alpha)
    m = np.zeros((4, 4))
    m[0, 0] = m[3, 3] = -4.0 * alpha * beta / 36.0
    m[1, 1] = (24.0 * alpha * alpha + 1.0) / 36.0
    m[2, 2] = (24.0 * beta * beta + 1.0) / 36.0
    m[1, 2] = m[2, 1] = 5.0 / 36.0
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps({"dim": 4, "re": m.tolist(), "im": np.zeros((4, 4)).tolist()}))
    code, out, err = run_cli(["analyze", "--input", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "NotPsd" in err


def test_analyze_missing_file(tmp_path, capsys):
    code, _, err = run_cli(["analyze", "--input", str(tmp_path / "nope.json")], capsys)
    assert code == 2
    assert err != ""


def test_analyze_garbled_json(tmp_path, capsys):
    path = tmp_path / "garbled.json"
    path.write_text("[[0.25")
    code, _, err = run_cli(["analyze", "--input", str(path)], capsys)
    assert code == 2
    assert "JSON" in err or "json" in err


def test_analyze_deeply_nested_json_is_an_invalid_input(tmp_path, capsys):
    # json.loads raises RecursionError past the interpreter's recursion limit (1000 by default)
    path = tmp_path / "nested.json"
    path.write_text("[" * 3000)
    code, out, err = run_cli(["analyze", "--input", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == "ValueError: state file nests JSON too deeply to parse\n"


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_analyze_of_an_endless_file_reads_only_the_bound():
    # in a child capped at 1.5 GB of address space, so a read without end ends in MemoryError, not in exhausted memory
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1536 * 2**20, 1536 * 2**20))

    done = subprocess.run([sys.executable, "-m", "entclone.cli", "analyze", "--input", "/dev/zero"],
                          capture_output=True, text=True, env=package_env(), preexec_fn=cap)
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"ValueError: state file is larger than {MAX_STATE_BYTES} bytes\n")


def test_analyze_reads_a_state_file_of_the_bound_and_refuses_one_byte_more(tmp_path, capsys):
    payload = json.dumps({"dim": 4, "re": (np.eye(4) / 4.0).tolist(), "im": np.zeros((4, 4)).tolist()})
    path = tmp_path / "padded.json"
    path.write_text(payload + " " * (MAX_STATE_BYTES - len(payload)))
    code, out, _ = run_cli(["analyze", "--input", str(path)], capsys)
    assert code == 0
    assert "verdict: separable\n" in out
    path.write_text(payload + " " * (MAX_STATE_BYTES - len(payload) + 1))
    code, out, err = run_cli(["analyze", "--input", str(path)], capsys)
    assert (code, out, err) == (2, "", f"ValueError: state file is larger than {MAX_STATE_BYTES} bytes\n")


@pytest.mark.skipif(locale.getpreferredencoding(False).lower().replace("-", "") != "utf8", reason="needs UTF-8 text")
def test_analyze_names_a_decoding_error_by_its_place_in_the_whole_file(tmp_path, capsys):
    # the file is read in pieces but decoded whole, so the position counts from its first byte, past any piece
    path = tmp_path / "cut.json"
    path.write_bytes(b" " * 100_000 + b'"\xc3')
    code, out, err = run_cli(["analyze", "--input", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xc3 in position 100001: unexpected end of data\n"


def test_analyze_negative_seed_is_a_usage_error(tmp_path, capsys):
    path = _write_state(tmp_path / "mixed.json", np.eye(4) / 4.0)
    code, out, err = run_cli(["analyze", "--input", path, "--validate-bmax", "--seed", "-1"], capsys)
    assert code == 1
    assert out == ""
    assert err.endswith("argument --seed: must be at least 0, got -1\n")
    assert "Traceback" not in err


def test_analyze_wrong_trace(tmp_path, capsys):
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps({"dim": 4, "re": (np.eye(4) / 2.0).tolist(), "im": np.zeros((4, 4)).tolist()}))
    code, _, err = run_cli(["analyze", "--input", str(path)], capsys)
    assert code == 2
    assert "Trace" in err or "trace" in err


def test_analyze_complex_correlation_is_an_invalid_input(tmp_path, capsys):
    # anti-Hermitian residue within HERMITIAN_TOL per entry passes load_density,
    # but four such entries give tr(rho sigma_x (x) sigma_x) an imaginary part of 1.96e-10
    rho = np.eye(4, dtype=complex) / 4.0
    for i, j in ((0, 3), (3, 0), (1, 2), (2, 1)):
        rho[i, j] = 0.49e-10j
    path = _write_state(tmp_path / "skew.json", rho)
    code, out, err = run_cli(["analyze", "--input", path], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("NotHermitianError: correlation (0,0)")
    assert err.count("\n") == 1


def test_analyze_infinite_dim_is_an_invalid_input(tmp_path, capsys):
    # JSON reads 1e400 as float infinity, which is not an integer
    path = tmp_path / "infinite.json"
    path.write_text('{"dim": 1e400, "re": [[1.0]], "im": [[0.0]]}')
    code, out, err = run_cli(["analyze", "--input", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == "ValueError: malformed density payload: dim must be a JSON integer, got inf\n"


@pytest.mark.parametrize("dim, size", [(4.7, 4), (4.0, 4), ("4", 4), (True, 1)])
def test_analyze_non_integer_dim_is_an_invalid_input(tmp_path, capsys, dim, size):
    # int() would read each of these dims as one whose arrays match: 4, 4, 4 and 1
    path = tmp_path / "dim.json"
    rho = np.eye(size) / size
    path.write_text(json.dumps({"dim": dim, "re": rho.tolist(), "im": np.zeros_like(rho).tolist()}))
    code, out, err = run_cli(["analyze", "--input", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"ValueError: malformed density payload: dim must be a JSON integer, got {dim!r}\n"


def test_analyze_state_the_eigensolver_cannot_diagonalize_is_an_invalid_input(tmp_path, capsys):
    # finite, Hermitian entries whose symmetrized sum overflows to inf
    path = _write_state(tmp_path / "huge.json", np.full((4, 4), 1e308))
    code, out, err = run_cli(["analyze", "--input", path], capsys)
    assert code == 2
    assert out == ""
    assert err == "NoConvergenceError: Eigenvalues did not converge\n"


def test_interval_whose_pt_solve_does_not_converge_is_one_line_and_exit_1(monkeypatch, capsys):
    fail_solves(monkeypatch, "eigvalsh")
    assert run_cli(["interval", "--scheme", "local"], capsys) == (
        1, "", "NoConvergenceError: Eigenvalues did not converge\n")


def test_analyze_whose_bmax_cross_check_does_not_converge_is_one_line_and_exit_2(tmp_path, capsys, monkeypatch):
    # the first eigh-kind solve is the file's own density check; the next is bmax_numeric's check of the same state
    path = _write_state(tmp_path / "mixed.json", np.eye(4) / 4.0)
    fail_solves(monkeypatch, "eigh", after=1)
    assert run_cli(["analyze", "--input", path, "--validate-bmax"], capsys) == (
        2, "", "NoConvergenceError: Eigenvalues did not converge\n")


def test_analyze_valid_two_by_two_state_is_an_invalid_input(tmp_path, capsys):
    path = _write_state(tmp_path / "qubit.json", np.eye(2) / 2.0)
    code, out, err = run_cli(["analyze", "--input", path], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("BadDimensionError:")
