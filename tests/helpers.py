"""Random-state builders and the child-process environment shared across the test modules."""

import os
from pathlib import Path

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

import entclone


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


def package_env():
    """os.environ with the imported entclone's source directory first on PYTHONPATH."""
    src = str(Path(entclone.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + rest if rest else src}
