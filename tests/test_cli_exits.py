"""Every command line ends in exit 0, 1 or 2, with one message line on stderr.

argv comes from a grammar of every subcommand and flag with valid, invalid,
edge and non-finite values; ``analyze`` state files come from a grammar of
JSON payloads and raw bytes; stdout is a working stream, one on a full disk
or one into a closed pipe.  ``main`` runs in-process, once per example, and
the grammars stay small enough that no example runs long.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entclone import density_to_dict
from entclone.cli import MAX_GRID, MAX_ROUNDS, main

from helpers import ClosedPipeStream, FullStream, psi_minus, random_density, werner


def _texts(*values):
    return st.sampled_from([str(value) for value in values])


_NOT_NUMBERS = ("nan", "inf", "-inf", "", " ", "abc", "1e", "0x10", "1_0")
_DIR, _STATE = "{dir}", "{state}"

# each subcommand's flags and their values; None marks a flag that takes no value
_FLAGS = {
    "sweep": {
        "--scheme": _texts("pure", "local", "nonlocal", "NONLOCAL", ""),
        "--grid": _texts(2, 3, 17, 513, 1, 0, -4, MAX_GRID + 1, 2.5, "1e3", *_NOT_NUMBERS),
        "--iterations": _texts(0, 1, 2, MAX_ROUNDS, MAX_ROUNDS + 1, -1, 1.5, *_NOT_NUMBERS),
        "--iter": _texts(0, 1, -1),
        "--alpha": _texts(0, 1, 0.5, 0.7071067811865476, -0.0, 1e-300, 5e-324, 1.0000000001, -0.1, 2,
                          1e400, "-1e400", *_NOT_NUMBERS),
        "--out": _texts(f"{_DIR}/out.csv", _DIR, f"{_DIR}/missing/out.csv"),
    },
    "table1": {
        "--steps": _texts(1, 2, MAX_ROUNDS, 0, MAX_ROUNDS + 1, -3, 2.0, *_NOT_NUMBERS),
    },
    "interval": {
        "--scheme": _texts("local", "nonlocal", "pure", "Local"),
        "--tol": _texts(0.1, 1e-8, 1e-14, 1e-300, 5e-324, 0, -1e-8, 1e400, *_NOT_NUMBERS),
    },
    "analyze": {
        "--input": _texts(_STATE, f"{_DIR}/missing.json", _DIR, ""),
        "--validate-bmax": None,
        "--seed": _texts(0, 7, -1, 2**64, 1.5, *_NOT_NUMBERS),
    },
}
_ANY_FLAG = {flag: values for flags in _FLAGS.values() for flag, values in flags.items()}
_STRAYS = st.sampled_from(["--help", "-h", "--", "extra", "-1", "--bogus"])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from([*_FLAGS, "bogus", "", "--help"]))
    argv = [command]
    for _ in range(draw(st.integers(0, 4))):
        pick = draw(st.integers(0, 9))
        if pick == 0:
            argv.append(draw(_STRAYS))
            continue
        # mostly the subcommand's own flags, sometimes another subcommand's
        flags = _FLAGS.get(command) if pick > 2 and command in _FLAGS else _ANY_FLAG
        flag = draw(st.sampled_from(sorted(flags)))
        argv.append(flag)
        if flags[flag] is not None and draw(st.integers(0, 7)):  # sometimes the value is missing
            argv.append(draw(flags[flag]))
    return argv


_VALID_STATES = [psi_minus(np.sqrt(0.5)), werner(0.2), np.eye(4) / 4, random_density(np.random.default_rng(0)),
                 random_density(np.random.default_rng(1), dim=2), np.ones((1, 1))]
# Hermitian matrices whose entries or trace reach past the float maximum inside the checks
_HUGE_STATES = [np.diag([1e308, 1e308, 0.0, 0.0]), np.eye(4) * 1e308, np.full((4, 4), 1e308), psi_minus(0.6) * 1.7e308]
_NUMBERS = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 5e-324, math.nan, math.inf, -math.inf]),
    st.integers(-3, 3),
)
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), _NUMBERS, st.text(max_size=3), st.just(10**30)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(["dim", "re", "im", "x"]), inner, max_size=4),
    max_leaves=12,
)
_TEXTS = st.sampled_from([
    "", "{", "[]", "null", "4", '"dim"', "NaN", "[" * 50_000, '{"dim": 4', '{"dim": 1e400, "re": [], "im": []}',
    '{"dim": 4, "re": [[1e999]], "im": [[0]]}', '{"dim": ' + "9" * 5000 + ', "re": [], "im": []}',
])
_BYTES = st.sampled_from([b"\xff\xfe", b"\x00", '{"dim": 4}'.encode("utf-16"), "{\"é\": 1}".encode("latin-1")])


def _payload(re_entry, im_entry, at):
    # a 4x4 payload of zeros with one real and one imaginary entry set at (at, at)
    re, im = np.zeros((4, 4)), np.zeros((4, 4))
    re[at, at], im[at, at] = re_entry, im_entry
    return json.dumps({"dim": 4, "re": re.tolist(), "im": im.tolist()}).encode()


def _matrix(draw, dim, entries):
    return [[draw(entries) for _ in range(dim)] for _ in range(dim)]


@st.composite
def state_files(draw):
    """Bytes of a state file: a valid payload, one with a bad part, or no payload at all."""
    kind = draw(st.sampled_from(["valid", "huge", "entries", "dim", "arrays", "json", "text", "bytes"]))
    if kind == "text":
        return draw(_TEXTS).encode()
    if kind == "bytes":
        return draw(_BYTES)
    if kind == "json":
        return json.dumps(draw(_JSON)).encode()
    payload = density_to_dict(draw(st.sampled_from(_HUGE_STATES if kind == "huge" else _VALID_STATES)))
    if kind == "entries":
        payload.update(dim=4, re=_matrix(draw, 4, _NUMBERS), im=_matrix(draw, 4, _NUMBERS))
    elif kind == "dim":
        payload["dim"] = draw(st.one_of(_JSON, st.sampled_from([4.0, 4.7, "4", True, [4], {"dim": 4}])))
    elif kind == "arrays":
        payload[draw(st.sampled_from(["re", "im"]))] = draw(_JSON)
    return json.dumps(payload).encode()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-exits")


_STDOUTS = st.sampled_from([io.StringIO, FullStream, ClosedPipeStream])


def _exit_of(argv, workdir, stdout):
    argv = [arg.replace(_STATE, str(workdir / "state.json")).replace(_DIR, str(workdir)) for arg in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(stdout()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    err = err.getvalue()
    if code == 0:
        assert err == "", (argv, err)
        return code
    lines = err.splitlines()
    assert err.endswith("\n") and lines[-1].strip(), (argv, err)
    if lines[0].startswith("usage: "):
        # a usage error: argparse's usage block, then one "prog: error: message" line
        assert code == 1 and [": error: " in line for line in lines].index(True) == len(lines) - 1, (argv, err)
    else:
        assert len(lines) == 1, (argv, err)
    return code


@settings(max_examples=150, deadline=None)
@given(argvs(), st.sampled_from(_VALID_STATES), _STDOUTS)
def test_every_argv_ends_in_one_line_exit(workdir, argv, rho, stdout):
    (workdir / "state.json").write_text(json.dumps(density_to_dict(rho)))
    _exit_of(argv, workdir, stdout)


@settings(max_examples=150, deadline=None)
@given(state_files(), st.sampled_from([[], ["--validate-bmax"], ["--validate-bmax", "--seed", "3"]]), _STDOUTS)
# each once printed a NumPy RuntimeWarning ahead of its message: 1j * inf, a Hermiticity defect
# past the float maximum, and a trace past it
@example(_payload(0.0, math.inf, 3), [], io.StringIO)
@example(_payload(0.0, 1e308, 3), [], io.StringIO)
@example(json.dumps(density_to_dict(np.diag([1e308, 1e308, 0.0, 0.0]))).encode(), [], io.StringIO)
def test_every_state_file_ends_in_one_line_exit(workdir, data, extra, stdout):
    (workdir / "state.json").write_bytes(data)
    _exit_of(["analyze", "--input", _STATE, *extra], workdir, stdout)
