"""Byte guard on the CLI: SHA-256 digests of its printed output.

Refactors of the numeric path must not change a printed byte.  Update a
digest only for a deliberate, reviewed change of output.
"""

import contextlib
import hashlib
import io

import pytest

from entclone.cli import main

DIGESTS = {
    "sweep --scheme pure --grid 201":
        "90800ae2e6810c68d79b006d2ca54b8aee03ff2e88b05f082bcfd82744ce8c92",
    "sweep --scheme local --grid 201":
        "59312e424b3dc3dc2555376706f1667252e881d2e6f23bd69b5e2e2ef112555f",
    "sweep --scheme nonlocal --grid 201":
        "955652f60e6089f1e9730d17d73aa43adbdac2e6cad628ee0a8bc76e25df8af4",
    # the largest bench grid: several full row blocks and a partial last one
    "sweep --scheme pure --grid 2001":
        "94115e2e8f6e693298e8fa1a5128b439935427ec4ed657658caf07a0f9b40e13",
    "sweep --scheme local --grid 2001":
        "0d46cfb95b9924e6db69af816be342e064e534d9fbfee818210549150628fde5",
    "sweep --scheme nonlocal --grid 2001":
        "b633b0682661df278687fa7a96be6a1d6e47dde967a5ed9845d61571fedf3ac8",
    "sweep --scheme nonlocal --iterations 2 --grid 101":
        "f6c51218b580ed2f187555e97e5ccffcfbe8db448864e7c5c3c38297c869e5b6",
    # high K: the small columns print 9 digits down to roundoff, so any reordered arithmetic shows
    "sweep --scheme nonlocal --iterations 29 --grid 13":
        "8792eae9a127f52f5677a7f8b826c86c126c8b78e0434747aa463e33fea77982",
    "sweep --scheme nonlocal --iterations 61 --grid 6":
        "5ca85722c8fb0604f9ae544172714382e0df8aff869f626ab4fd6c0a83b806f0",
    # iterated rounds over a whole row block and across its boundary, up to the --iterations cap
    "sweep --scheme nonlocal --iterations 1 --grid 300":
        "752595571b69e197337bf9c5a5ddd45a5cf5e450ae43216f8fc9e793f45d49df",
    "sweep --scheme nonlocal --iterations 100 --grid 300":
        "94ca48c10164c0d9b5a3cc0cf02c7340602d598b9df0a5cd459a3a6081683d15",
    "table1 --steps 3":
        "1217b950210e0a5f435f9a68e8c1f2eab8604d24747f4889b91b22de0929b592",
    "table1 --steps 64":
        "d555a8ee17d19747ed46d456921b1426bb86870f31c45649f0ea772a659032a8",
    "interval --scheme local":
        "c340d10195341eba98afdf362e2b4ad5a93efa9e4ef70c41e59a23637c953de0",
    "interval --scheme nonlocal":
        "3436bc04e93f6ca2facbc4ef992287ea74221da216c38d0c8ec1ca23419289d6",
    # the finest bench tolerance: the longest bracket walk that still converges
    "interval --scheme local --tol 1e-14":
        "c340d10195341eba98afdf362e2b4ad5a93efa9e4ef70c41e59a23637c953de0",
    "interval --scheme nonlocal --tol 1e-14":
        "3436bc04e93f6ca2facbc4ef992287ea74221da216c38d0c8ec1ca23419289d6",
}


@pytest.mark.parametrize("command", list(DIGESTS))
def test_cli_output_bytes_are_unchanged(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(command.split()) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[command]


# each parser's --help: its defaults, limits and choices are read from constants the library modules own
HELP_DIGESTS = {
    "--help": "53b1a242b4da6abe93c4d4227b0ea7ea4135170b7f9928f1d69c862220b149bc",
    "sweep --help": "06c31312d88b7eb6231210815f2fba4381dd79e18577995b95ab5758e3474bc2",
    "table1 --help": "19f03f1c1799fad9d4a9e0d0a0c4220e2483cc195c9747964bc4cf498a44920e",
    "interval --help": "e01a030dfe25b6283dbac13d225ff0747dfb7619d9a15bf85cf858a1caafa255",
    "analyze --help": "764180bc1df48ac2c1c9a0a47421ab817f78299c7f8bf09655a15dbb25cdca26",
}


@pytest.mark.parametrize("command", list(HELP_DIGESTS))
def test_cli_help_bytes_are_unchanged(command, monkeypatch):
    # argparse wraps help to the terminal width, which it reads from COLUMNS first
    monkeypatch.setenv("COLUMNS", "80")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
        main(command.split())
    assert exit_info.value.code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == HELP_DIGESTS[command]
