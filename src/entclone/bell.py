"""CHSH correlation machinery for two-qubit states.

The CHSH quantity for measurement directions a, a', b, b' is

    B = |E(a,b) - E(a',b) + E(a,b') + E(a',b')|,

with E(a,b) the spin correlation along a on the first qubit and b on the
second.  Local realism bounds B by 2; quantum states reach at most 2 sqrt(2).
B is a contraction of the 3x3 correlation matrix T, and its maximum over all
direction choices has the closed form 2 sqrt(u1 + u2) with u1 >= u2 the two
largest eigenvalues of T^T T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDimensionError, NotHermitianError, NotNormalizedError
from .linalg import HERMITIAN_TOL, PAULIS
from .states import validate_two_qubit

UNIT_TOL = 1e-12
BMAX_RESTARTS = 64  # random starting direction pairs of bmax_numeric

# sigma_i (x) sigma_j observables, shape (3, 3, 4, 4) indexed [i, j]
_PAULI_PAIRS = np.array([[np.kron(a, b) for b in PAULIS] for a in PAULIS])


def _unit_vector(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise BadDimensionError(f"measurement direction must be a 3-vector, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > UNIT_TOL:
        raise NotNormalizedError(f"measurement direction must be unit length, got norm {norm:.12g}")
    return v


@dataclass(frozen=True)
class ChshConfig:
    """Four unit measurement directions entering the CHSH combination."""

    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray

    def __post_init__(self):
        for name in ("a", "a_prime", "b", "b_prime"):
            object.__setattr__(self, name, _unit_vector(getattr(self, name)))


def _correlations(rhos: np.ndarray) -> np.ndarray:
    # unchecked kernel of correlation_matrix: (N, 3, 3) from an (N, 4, 4) stack;
    # tr(rho P) = sum_kl rho[k, l] P[l, k], so no product beyond the diagonal is formed
    values = (rhos[:, None, None] * _PAULI_PAIRS.swapaxes(-1, -2)).sum((-2, -1))
    complex_entries = np.argwhere(np.abs(values.imag) > HERMITIAN_TOL)
    if len(complex_entries):
        n, i, j = complex_entries[0]
        raise NotHermitianError(f"correlation ({i},{j}) has imaginary part {values[n, i, j].imag:.3e}")
    return values.real.copy()


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """3x3 matrix of Pauli-pair expectation values tr(rho sigma_i (x) sigma_j)."""
    return _correlations(validate_two_qubit(rho)[None])[0]


def correlation(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Spin correlation E(a, b) = a . T b."""
    a, b = _unit_vector(a), _unit_vector(b)
    return float(a @ correlation_matrix(rho) @ b)


def _chsh(t: np.ndarray, cfg: ChshConfig) -> np.ndarray:
    # (N,) CHSH values from an (N, 3, 3) stack of correlation matrices
    a, a_prime, b, b_prime = cfg.a, cfg.a_prime, cfg.b, cfg.b_prime
    return np.abs(a @ t @ b - a_prime @ t @ b + a @ t @ b_prime + a_prime @ t @ b_prime)


def chsh_value(rho: np.ndarray, cfg: ChshConfig) -> float:
    """CHSH quantity B for an explicit set of measurement directions."""
    return float(_chsh(correlation_matrix(rho)[None], cfg)[0])


def planar_pi4_config() -> ChshConfig:
    """Coplanar directions at consecutive pi/4 spacing in the x-z plane.

    Ordered b, a, b', a' at angles 0, pi/4, pi/2, 3pi/4 from the z axis; this
    ordering makes the maximally entangled alpha|01> - beta|10> state reach
    2 sqrt(2).
    """
    r = np.sqrt(0.5)
    return ChshConfig(
        a=np.array([r, 0.0, r]),
        a_prime=np.array([r, 0.0, -r]),
        b=np.array([0.0, 0.0, 1.0]),
        b_prime=np.array([1.0, 0.0, 0.0]),
    )


def _bmax(t: np.ndarray) -> np.ndarray:
    # (N,) closed-form maxima from an (N, 3, 3) stack: one stacked eigvalsh of T^T T
    u = np.linalg.eigvalsh(t.swapaxes(-1, -2) @ t)
    return 2.0 * np.sqrt(np.maximum(u[:, -1] + u[:, -2], 0.0))


def bmax(rho: np.ndarray) -> float:
    """Maximum of the CHSH quantity over all measurement directions.

    Closed form 2 sqrt(u1 + u2) from the two largest eigenvalues of T^T T.
    """
    return float(_bmax(correlation_matrix(rho)[None])[0])


def bmax_numeric(rho: np.ndarray, seed: int = 0) -> float:
    """Maximize the CHSH quantity directly, validating the closed form.

    Writes B = a . T(b + b') + a' . T(b' - b) and alternates between the
    optimal (a, a') for fixed (b, b') and vice versa, from BMAX_RESTARTS
    random starting direction pairs.  Deterministic for fixed seed.
    """
    t = correlation_matrix(rho)
    n = BMAX_RESTARTS
    # b and b' (then a and a') stacked as rows [:n] and [n:], so each half-step is one product;
    # every step writes into buffers made here
    a, b, s, p, sq = (np.empty((2 * n, 3)) for _ in range(5))
    norms = np.empty((2 * n, 1))
    a_lo, a_hi, b_lo, b_hi, s_lo, s_hi = a[:n], a[n:], b[:n], b[n:], s[:n], s[n:]
    sq_x, sq_y, sq_z, norm = sq[:, 0], sq[:, 1], sq[:, 2], norms[:, 0]

    def row_norms(rows):
        # np.linalg.norm(rows, axis=1): add.reduce sums a length-3 axis left to right
        np.multiply(rows, rows, out=sq)
        np.add(sq_x, sq_y, out=norm)
        np.add(norm, sq_z, out=norm)
        return np.sqrt(norm, out=norm)

    def unit_rows(rows, out):
        # rows scaled to unit length into out; a row of norm <= 1e-15 is divided by inf and comes out zero.
        # The inf divisor is built only when some row needs it: building it every time cost 5 % of the
        # single-state workload's ops_per_s
        row_norms(rows)
        np.divide(rows, norms if norms.min() > 1e-15 else np.where(norms > 1e-15, norms, np.inf), out=out)

    unit_rows(np.random.default_rng(seed).standard_normal((2 * n, 3)), b)
    for _ in range(300):
        np.add(b_lo, b_hi, out=s_lo)
        np.subtract(b_hi, b_lo, out=s_hi)
        unit_rows(np.matmul(s, t.T, out=p), a)
        np.subtract(a_lo, a_hi, out=s_lo)
        np.add(a_lo, a_hi, out=s_hi)
        unit_rows(np.matmul(s, t, out=p), b)
    np.add(b_lo, b_hi, out=s_lo)
    np.subtract(b_hi, b_lo, out=s_hi)
    values = row_norms(np.matmul(s, t.T, out=p))
    return float((values[:n] + values[n:]).max())
