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
from .linalg import PAULIS, kron
from .states import validate_two_qubit

UNIT_TOL = 1e-12

# sigma_i (x) sigma_j observables indexed [i][j]
_PAULI_PAIRS = [[kron(a, b) for b in PAULIS] for a in PAULIS]


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


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """3x3 matrix of Pauli-pair expectation values tr(rho sigma_i (x) sigma_j)."""
    rho = validate_two_qubit(rho)
    t = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            value = complex(np.trace(rho @ _PAULI_PAIRS[i][j]))
            if abs(value.imag) > 1e-10:
                raise NotHermitianError(
                    f"correlation ({i},{j}) has imaginary part {value.imag:.3e}"
                )
            t[i, j] = value.real
    return t


def correlation(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Spin correlation E(a, b) = a . T b."""
    a = _unit_vector(a)
    b = _unit_vector(b)
    return float(a @ correlation_matrix(rho) @ b)


def chsh_value(rho: np.ndarray, cfg: ChshConfig) -> float:
    """CHSH quantity B for an explicit set of measurement directions."""
    t = correlation_matrix(rho)

    def e(x, y):
        return x @ t @ y

    return float(
        abs(e(cfg.a, cfg.b) - e(cfg.a_prime, cfg.b) + e(cfg.a, cfg.b_prime) + e(cfg.a_prime, cfg.b_prime))
    )


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


def bmax(rho: np.ndarray) -> float:
    """Maximum of the CHSH quantity over all measurement directions.

    Closed form 2 sqrt(u1 + u2) from the two largest eigenvalues of T^T T.
    """
    t = correlation_matrix(rho)
    u = np.linalg.eigvalsh(t.T @ t)
    return float(2.0 * np.sqrt(max(u[-1] + u[-2], 0.0)))


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return np.divide(rows, norms, out=np.zeros_like(rows), where=norms > 1e-15)


def bmax_numeric(rho: np.ndarray, restarts: int = 64, seed: int = 0) -> float:
    """Maximize the CHSH quantity directly, validating the closed form.

    Writes B = a . T(b + b') + a' . T(b' - b) and alternates between the
    optimal (a, a') for fixed (b, b') and vice versa, from ``restarts`` random
    starting direction pairs.  Deterministic for fixed seed.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    t = correlation_matrix(rho)
    rng = np.random.default_rng(seed)
    b = _unit_rows(rng.standard_normal((restarts, 3)))
    b_prime = _unit_rows(rng.standard_normal((restarts, 3)))
    for _ in range(300):
        a = _unit_rows((b + b_prime) @ t.T)
        a_prime = _unit_rows((b_prime - b) @ t.T)
        b = _unit_rows((a - a_prime) @ t)
        b_prime = _unit_rows((a + a_prime) @ t)
    values = np.linalg.norm((b + b_prime) @ t.T, axis=1) + np.linalg.norm(
        (b_prime - b) @ t.T, axis=1
    )
    return float(values.max())
