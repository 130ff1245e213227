import argparse
import json
import subprocess
import sys

import numpy as np
import pytest

from entclone import BellKind, ChshConfig, bell_state, density_from_pure, save_density, states
from entclone.cli import CSV_HEADER, MAX_GRID, main

from helpers import package_env


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
    ],
)
def test_usage_errors_end_in_their_exact_message(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == message


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
    # the counter does see the check iterate keeps on every round: one per round for the whole block
    assert run_cli(["sweep", "--scheme", "nonlocal", "--grid", "2", "--iterations", "1"], capsys)[0] == 0
    assert calls == [(2, 4, 4)] * 2


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


@pytest.mark.parametrize("scheme", ["local", "nonlocal"])
def test_interval_tol_below_float_spacing_is_reported(scheme, capsys):
    code, out, err = run_cli(["interval", "--scheme", scheme, "--tol", "1e-30"], capsys)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("NoConvergenceError: bisection stalled at alpha^2 bracket [")


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
    # JSON reads 1e400 as float infinity, which int() cannot convert
    path = tmp_path / "infinite.json"
    path.write_text('{"dim": 1e400, "re": [[1.0]], "im": [[0.0]]}')
    code, out, err = run_cli(["analyze", "--input", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == "ValueError: malformed density payload: cannot convert float infinity to integer\n"


def test_analyze_state_the_eigensolver_cannot_diagonalize_is_an_invalid_input(tmp_path, capsys):
    # finite, Hermitian entries whose symmetrized sum overflows to inf
    path = _write_state(tmp_path / "huge.json", np.full((4, 4), 1e308))
    code, out, err = run_cli(["analyze", "--input", path], capsys)
    assert code == 2
    assert out == ""
    assert err == "NoConvergenceError: Eigenvalues did not converge\n"


def test_analyze_valid_two_by_two_state_is_an_invalid_input(tmp_path, capsys):
    path = _write_state(tmp_path / "qubit.json", np.eye(2) / 2.0)
    code, out, err = run_cli(["analyze", "--input", path], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("BadDimensionError:")
