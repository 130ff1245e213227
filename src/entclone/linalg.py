"""Dense complex linear algebra for small composite quantum systems.

Two-qubit operators use the computational basis ordered |00>, |01>, |10>, |11>
with the first qubit as the most significant index.  All comparisons use the
maximum absolute entry difference.

The private helpers (``_eigh``, ``_psd_eigh``, ``_psd_root``,
``_transpose_second``, ``_partial_trace``) act on every matrix of a stack of
shape (..., n, n) and make each check once per stack; the public functions
check one square matrix and call them.  The finite and Hermiticity checks are
written once, in ``_eigh``, and the PSD_TOL floor once, in ``_psd_eigh``,
which ``_psd_root`` and the density check in ``states`` both call.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import BadDimensionError, NoConvergenceError, NotHermitianError, NotPsdError

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-10

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)

kron = np.kron


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each matrix of a stack)."""
    return np.swapaxes(m.conj(), -1, -2)


def hermiticity_defect(m: np.ndarray) -> float:
    """Maximum absolute entry of m - m^dagger (over the whole of a stack)."""
    return float(np.abs(m - dagger(m)).max())


class SpectralDecomposition(NamedTuple):
    """Eigensystem of a Hermitian matrix, eigenvalues descending.

    ``eigenvectors`` is unitary; column i pairs with ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise BadDimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def _finite(m: np.ndarray) -> np.ndarray:
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def require_two_qubit(m: np.ndarray) -> np.ndarray:
    """Return m unchanged if it is a 4x4 two-qubit operator; else raise BadDimensionError."""
    if m.shape != (4, 4):
        raise BadDimensionError(f"expected a 4x4 two-qubit operator, got shape {m.shape}")
    return m


def _eigh(m: np.ndarray) -> SpectralDecomposition:
    # hermitian_eig of each matrix of a stack; one finite and one Hermiticity check for all
    defect = hermiticity_defect(_finite(m))
    if defect > HERMITIAN_TOL:
        raise NotHermitianError(f"not Hermitian: max |m - m^dagger| = {defect:.3e}")
    try:
        values, vectors = np.linalg.eigh((m + dagger(m)) / 2)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    return SpectralDecomposition(values[..., ::-1].copy(), vectors[..., ::-1].copy())


def hermitian_eig(m: np.ndarray) -> SpectralDecomposition:
    """Diagonalize a Hermitian matrix.

    Raises NotHermitianError if m deviates from m^dagger by more than
    HERMITIAN_TOL in any entry.
    """
    return _eigh(_as_square(m))


def _psd_eigh(m: np.ndarray) -> SpectralDecomposition:
    # _eigh of each matrix of a stack plus the PSD_TOL floor, checked on the stack minimum
    decomposition = _eigh(m)
    low = float(decomposition.eigenvalues.min())
    if low < -PSD_TOL:
        raise NotPsdError(f"not positive semidefinite: min eigenvalue = {low:.3e}")
    return decomposition


def _psd_root(m: np.ndarray) -> np.ndarray:
    # psd_sqrt of each matrix of a stack
    values, vectors = _psd_eigh(m)
    root = (vectors * np.sqrt(np.clip(values, 0.0, None))[..., None, :]) @ dagger(vectors)
    return (root + dagger(root)) / 2


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive semidefinite Hermitian matrix.

    Eigenvalues in [-PSD_TOL, 0) are clamped to 0; anything lower raises
    NotPsdError.
    """
    return _psd_root(_as_square(m))


def _transpose_second(m: np.ndarray) -> np.ndarray:
    # partial_transpose of each 4x4 matrix of a stack: swap the second qubit's two indices
    return _finite(m).reshape(*m.shape[:-2], 2, 2, 2, 2).swapaxes(-3, -1).reshape(m.shape)


def partial_transpose(m: np.ndarray) -> np.ndarray:
    """Transpose the second qubit's indices of a two-qubit operator.

    Entry ((a, n), (b, m)) of the output equals entry ((a, m), (b, n)) of the
    input.  The map is an exact entry permutation, hence involutive and
    trace preserving.
    """
    return _transpose_second(require_two_qubit(np.asarray(m, dtype=complex)))


def _partial_trace(m: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    # partial_trace of each matrix of a stack (..., dA dB, dA dB)
    da, db = dims
    t = m.reshape(*m.shape[:-2], da, db, da, db)
    if keep == "first":
        return np.einsum("...ijkj->...ik", t)
    if keep == "second":
        return np.einsum("...ijil->...jl", t)
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")


def partial_trace(m: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one tensor factor of an operator on a dA x dB system.

    ``keep`` selects the surviving factor, "first" or "second".
    """
    m = _finite(_as_square(m))
    if m.shape[0] != dims[0] * dims[1]:
        raise BadDimensionError(f"matrix of dim {m.shape[0]} does not factor as {dims[0]}x{dims[1]}")
    return _partial_trace(m, dims, keep)
