"""Closed-form references the tests check the package against.

They live outside the package so that each stays independent of the code it
checks; nothing in the package or its command line calls them.
"""

import numpy as np

from entclone import BadDimensionError, OutOfRangeError, validate_density
from entclone.linalg import _require_two_qubit

X_SHAPE_TOL = 1e-12


class NotXShapeError(ValueError):
    """Matrix carries weight outside the diagonal and anti-diagonal."""


def shrink_channel(rho: np.ndarray, eta: float) -> np.ndarray:
    """Mix a density matrix toward the maximally mixed state.

    Returns eta * rho + (1 - eta) * I/d for 0 < eta <= 1.
    """
    if not 0.0 < eta <= 1.0:
        raise OutOfRangeError(f"shrink factor must lie in (0, 1], got {eta}")
    rho = validate_density(rho)
    d = rho.shape[0]
    return eta * rho + (1.0 - eta) * np.eye(d) / d


def symmetric_cloner_joint(rho: np.ndarray) -> np.ndarray:
    """Joint state of both clones produced by the optimal symmetric cloner.

    For a d-dimensional input the output is (2/(d+1)) S (rho (x) I) S with S
    the projector onto the symmetric subspace; tracing out either clone gives
    eta rho + (1 - eta) I/d with eta = (d+2)/(2(d+1)) (Buzek & Hillery,
    Phys. Rev. A 54, 1844 (1996)).
    """
    rho = validate_density(rho)
    d = rho.shape[0]
    if d not in (2, 4):
        raise BadDimensionError(f"supported clone dimensions are 2 and 4, got {d}")
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    sym = (np.eye(d * d) + swap) / 2
    return (2.0 / (d + 1)) * sym @ np.kron(rho, np.eye(d)) @ sym


def cloner_isometry(d: int) -> np.ndarray:
    """The universal symmetric cloner with its machine, as a (d^3, d) isometry.

    V|psi> = sqrt(2/(d+1)) sum_j S(|psi>|j>) (x) |j>_M maps the input into
    copy (x) copy (x) machine, each of dimension d, with S the projector onto
    the symmetric subspace of the two copies.  Tracing out the machine gives
    symmetric_cloner_joint; nothing of the package enters.
    """
    eye = np.eye(d)
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    sym = (np.eye(d * d) + swap) / 2
    # column j of eye is |j>, so np.kron(eye, ket) maps |psi> to |psi>|j>
    return np.sqrt(2.0 / (d + 1)) * sum(np.kron(sym @ np.kron(eye, eye[:, [j]]), eye[:, [j]]) for j in range(d))


def machine_joint_nonlocal(rho: np.ndarray) -> np.ndarray:
    """Joint state of the first clone and the machine, 16x16 ordered (clone, machine).

    cloner_isometry(4) copies the two-qubit state as one register; the
    second copy is traced out.
    """
    v = cloner_isometry(4)
    out = (v @ validate_density(rho) @ v.conj().T).reshape((4,) * 6)
    return np.einsum("ajbcjd->abcd", out).reshape(16, 16)


def machine_joint_local(rho: np.ndarray) -> np.ndarray:
    """Joint state of both qubits' first clones and their machines, 16x16 ordered (A1, B1, M_A, M_B).

    V_2 (x) V_2, one cloner_isometry(2) per qubit, maps qubits (A, B) into
    (A1, A2, M_A, B1, B2, M_B); the second copies A2 and B2 are traced out.
    """
    v = np.kron(cloner_isometry(2), cloner_isometry(2))
    out = (v @ validate_density(rho) @ v.conj().T).reshape((2,) * 12)
    return np.einsum("axcdyfgxhiyk->adcfgihk", out).reshape(16, 16)


def concurrence_xstate_oracle(rho: np.ndarray) -> float:
    """Closed-form concurrence for states with only diagonal and anti-diagonal entries.

    C = 2 max(0, |rho_12| - sqrt(rho_00 rho_33), |rho_03| - sqrt(rho_11 rho_22))
    (Yu & Eberly, Quantum Inf. Comput. 7, 459 (2007)).
    Raises NotXShapeError when any other entry is nonzero.
    """
    rho = _require_two_qubit(validate_density(rho))
    mask = np.zeros((4, 4), dtype=bool)
    mask[np.arange(4), np.arange(4)] = True
    mask[np.arange(4), np.arange(4)[::-1]] = True
    if np.abs(rho[~mask]).max() > X_SHAPE_TOL:
        raise NotXShapeError("state has entries off the diagonal and anti-diagonal")
    d = np.maximum(np.real(np.diag(rho)), 0.0)
    inner = abs(rho[1, 2]) - np.sqrt(d[0] * d[3])
    outer = abs(rho[0, 3]) - np.sqrt(d[1] * d[2])
    return float(2.0 * max(0.0, inner, outer))
