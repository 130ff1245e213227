"""Concurrence and entanglement of formation for two-qubit states."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotXShapeError, OutOfRangeError
from .linalg import PAULI_Y, hermitian_eig, kron, psd_sqrt, require_two_qubit
from .states import validate_two_qubit

# eigenvalues of sqrt(rho) rho~ sqrt(rho) below this are eigensolver noise;
# sqrt would amplify ~1e-16 residue to ~1e-8 in the lambdas
NOISE_FLOOR = 1e-14

X_SHAPE_TOL = 1e-12

# sigma_y (x) sigma_y in the computational basis; it is real, so the
# imaginary parts are dropped rather than kept as signed zeros
SIGMA_YY = kron(PAULI_Y, PAULI_Y).real.astype(complex)


def spin_flip(rho: np.ndarray) -> np.ndarray:
    """Spin-flipped state (sigma_y (x) sigma_y) rho* (sigma_y (x) sigma_y)."""
    rho = require_two_qubit(np.asarray(rho, dtype=complex))
    return SIGMA_YY @ rho.conj() @ SIGMA_YY


@dataclass(frozen=True)
class ConcurrenceResult:
    """Concurrence together with the four lambda values that produced it."""

    lambdas: np.ndarray
    concurrence: float


def concurrence(rho: np.ndarray) -> ConcurrenceResult:
    """Concurrence C = max(0, l1 - l2 - l3 - l4).

    The l_i are the descending square roots of the eigenvalues of
    sqrt(rho) rho~ sqrt(rho) with rho~ the spin-flipped state.
    """
    rho = validate_two_qubit(rho)
    root = psd_sqrt(rho)
    m = root @ spin_flip(rho) @ root
    w = hermitian_eig(m).eigenvalues
    w = np.where(w < NOISE_FLOOR, 0.0, w)
    lambdas = np.sqrt(w)
    c = max(0.0, float(lambdas[0] - lambdas[1] - lambdas[2] - lambdas[3]))
    return ConcurrenceResult(lambdas=lambdas, concurrence=c)


def binary_entropy(x: float) -> float:
    """Shannon entropy -x log2 x - (1-x) log2 (1-x), with 0 log 0 = 0."""
    if not 0.0 <= x <= 1.0:
        raise OutOfRangeError(f"binary entropy argument must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


def entanglement_of_formation(rho: np.ndarray) -> float:
    """Entanglement of formation h((1 + sqrt(1 - C^2)) / 2)."""
    c = concurrence(rho).concurrence
    return binary_entropy((1.0 + np.sqrt(max(1.0 - c * c, 0.0))) / 2.0)


def concurrence_xstate_oracle(rho: np.ndarray) -> float:
    """Closed-form concurrence for states with only diagonal and anti-diagonal entries.

    C = 2 max(0, |rho_12| - sqrt(rho_00 rho_33), |rho_03| - sqrt(rho_11 rho_22)).
    Raises NotXShapeError when any other entry is nonzero.
    """
    rho = validate_two_qubit(rho)
    mask = np.zeros((4, 4), dtype=bool)
    mask[np.arange(4), np.arange(4)] = True
    mask[np.arange(4), np.arange(4)[::-1]] = True
    if np.abs(rho[~mask]).max() > X_SHAPE_TOL:
        raise NotXShapeError("state has entries off the diagonal and anti-diagonal")
    d = np.maximum(np.real(np.diag(rho)), 0.0)
    inner = abs(rho[1, 2]) - np.sqrt(d[0] * d[3])
    outer = abs(rho[0, 3]) - np.sqrt(d[1] * d[2])
    return float(2.0 * max(0.0, inner, outer))
