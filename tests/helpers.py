"""Shared across the test modules: state builders, call counters, failing output streams and the child-process
environment."""

import errno
import io
import itertools
import os
from pathlib import Path

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

import entclone
from entclone import linalg


def psi_minus(alpha):
    return entclone.density_from_pure(entclone.bell_state(entclone.BellKind.PSI_MINUS, alpha))


def werner(p):
    # p psi- + (1 - p) I/4: minimal PT eigenvalue (1 - 3p) / 4, concurrence max(0, (3p - 1) / 2)
    return p * psi_minus(np.sqrt(0.5)) + (1.0 - p) * np.eye(4) / 4.0


def random_density(rng, dim=4):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng, dim=4):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def random_ket(rng, dim=2):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


_entries = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def densities(draw):
    """Hypothesis strategy: valid 4x4 density matrices g g^dagger / tr."""
    g = np.array(draw(st.lists(_entries, min_size=32, max_size=32))).reshape(2, 4, 4)
    g = g[0] + 1j * g[1]
    rho = g @ g.conj().T
    trace = np.trace(rho).real
    assume(trace > 1e-2)
    return rho / trace


def with_member(member, n=5, at=3):
    """A stack of n random states whose row ``at`` is replaced by member."""
    rhos = np.array([random_density(np.random.default_rng(k)) for k in range(n)])
    rhos[at] = member
    return rhos


def count_calls(monkeypatch, module, names):
    """Count the calls made from here on to each named function of module, looked up by that name."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _function=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _function(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    return calls


def count_solves(monkeypatch):
    """Count the stacked eigh and eigvalsh solves made from here on, each a call of a gufunc linalg._solve looks up
    (with the output arrays it is given, if any)."""
    calls = dict.fromkeys(linalg._SOLVERS, 0)
    for kind, solver in linalg._SOLVERS.items():
        def counting(m, *out, _kind=kind, _solver=solver):
            calls[_kind] += 1
            return _solver(m, *out)
        monkeypatch.setitem(linalg._SOLVERS, kind, counting)
    return calls


def fail_solves(monkeypatch, kind, after=0):
    """Make every solve of kind past the next ``after`` fail as LAPACK's non-convergence does: its gufunc runs on a
    NaN copy, writing into the output arrays it is given, if any."""
    solver, calls = linalg._SOLVERS[kind], itertools.count()
    monkeypatch.setitem(
        linalg._SOLVERS, kind, lambda m, *out: solver(m if next(calls) < after else np.full_like(m, np.nan), *out))


def package_env():
    """os.environ with the imported entclone's source directory first on PYTHONPATH."""
    src = str(Path(entclone.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + rest if rest else src}


class FullStream(io.StringIO):
    """A stdout on a full disk: every write raises ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class ClosedPipeStream(io.StringIO):
    """A stdout whose reader has gone: a write lands in the buffer and the flush raises EPIPE."""

    def flush(self):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
