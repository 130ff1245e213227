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
    "sweep --scheme nonlocal --iterations 2 --grid 101":
        "f6c51218b580ed2f187555e97e5ccffcfbe8db448864e7c5c3c38297c869e5b6",
    "table1 --steps 3":
        "1217b950210e0a5f435f9a68e8c1f2eab8604d24747f4889b91b22de0929b592",
    "interval --scheme local":
        "c340d10195341eba98afdf362e2b4ad5a93efa9e4ef70c41e59a23637c953de0",
    "interval --scheme nonlocal":
        "3436bc04e93f6ca2facbc4ef992287ea74221da216c38d0c8ec1ca23419289d6",
}


@pytest.mark.parametrize("command", list(DIGESTS))
def test_cli_output_bytes_are_unchanged(command):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(command.split()) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[command]
