"""Concurrence and entanglement of formation for two-qubit states.

A state a caller gives takes Wootters' general form (``_concurrence``); the
X states the program builds itself take Yu and Eberly's closed form
(``_x_concurrence``), which needs no eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfRangeError
from .linalg import SpectralDecomposition, _as_square, _eigvalsh, _finite, _psd_root, _real, _require_two_qubit
from .states import _two_qubit_stack

__all__ = [
    "ConcurrenceResult",
    "binary_entropy",
    "concurrence",
    "entanglement_of_formation",
    "spin_flip",
]

# eigenvalues of sqrt(rho) rho~ sqrt(rho) below this are eigensolver noise;
# sqrt would amplify ~1e-16 residue to ~1e-8 in the lambdas
NOISE_FLOOR = 1e-14

# sigma_y (x) sigma_y maps |k> to s_k |3 - k>, so the spin flip is
# s_k s_l conj(rho[3 - k, 3 - l]): an index reversal and these signs
_FLIP_SIGNS = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])


def spin_flip(rho: np.ndarray) -> np.ndarray:
    """Spin-flipped state (sigma_y (x) sigma_y) rho* (sigma_y (x) sigma_y)."""
    return _spin_flip(_finite(_require_two_qubit(_as_square(rho))))


def _spin_flip(rhos: np.ndarray) -> np.ndarray:
    # in one buffer; + 0.0 turns the -0.0 that a sign flip makes of a zero into the +0.0 the matrix product gave
    flipped = np.conjugate(rhos[..., ::-1, ::-1])
    np.multiply(_FLIP_SIGNS, flipped, out=flipped)
    return np.add(flipped, 0.0, out=flipped)


@dataclass(frozen=True, eq=False)
class ConcurrenceResult:
    """Concurrence together with the four lambda values that produced it; compares by identity."""

    lambdas: np.ndarray
    concurrence: float


def _concurrence(rhos: np.ndarray, spectra: SpectralDecomposition) -> tuple[np.ndarray, np.ndarray]:
    # unchecked kernel of concurrence: (N, 4) lambdas and (N,) C of validated 4x4 states and their decomposition
    root = _psd_root(spectra)
    w = _eigvalsh(root @ _spin_flip(rhos) @ root)
    lambdas = np.sqrt(np.where(w < NOISE_FLOOR, 0.0, w))
    c = np.maximum(0.0, lambdas[:, 0] - lambdas[:, 1] - lambdas[:, 2] - lambdas[:, 3])
    return lambdas, c


def _x_concurrence(diagonal: np.ndarray, anti: np.ndarray) -> np.ndarray:
    # (N,) C of the states the program built, from their linalg._x_entries, in Yu and Eberly's X-state form (QIC 7,
    # 459 (2007)): 2 max(0, |rho_12| - sqrt(rho_00 rho_33), |rho_03| - sqrt(rho_11 rho_22)). Within about 1e-16 of
    # _concurrence, which states a caller gives keep: its solves are needed wherever the X shape is not known
    d0, d1, d2, d3 = diagonal.T
    inner = np.abs(anti[:, 1]) - np.sqrt(np.maximum(d0 * d3, 0.0))
    outer = np.abs(anti[:, 0]) - np.sqrt(np.maximum(d1 * d2, 0.0))
    return 2.0 * np.maximum(np.maximum(inner, outer), 0.0)


def concurrence(rho: np.ndarray) -> ConcurrenceResult:
    """Concurrence C = max(0, l1 - l2 - l3 - l4).

    The l_i are the descending square roots of the eigenvalues of
    sqrt(rho) rho~ sqrt(rho) with rho~ the spin-flipped state.
    """
    lambdas, c = _concurrence(*_two_qubit_stack(rho))
    return ConcurrenceResult(lambdas=lambdas[0], concurrence=float(c[0]))


def _entropy(x: np.ndarray) -> np.ndarray:
    # binary entropy of each entry of an array in [0, 1]; exactly 0 at 0 and 1
    inner = (x != 0.0) & (x != 1.0)
    x = np.where(inner, x, 0.5)  # keeps log2 off 0, which would warn on stderr
    return np.where(inner, -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x), 0.0)


def binary_entropy(x: float) -> float:
    """Shannon entropy -x log2 x - (1-x) log2 (1-x), with 0 log 0 = 0."""
    if not _real(x) or not 0.0 <= x <= 1.0:
        raise OutOfRangeError(f"binary entropy argument must lie in [0, 1], got {x}")
    return float(_entropy(np.float64(x)))


def _eof(c: np.ndarray) -> np.ndarray:
    # entanglement of formation of each concurrence of an array
    return _entropy((1.0 + np.sqrt(np.maximum(1.0 - c * c, 0.0))) / 2.0)


def entanglement_of_formation(rho: np.ndarray) -> float:
    """Entanglement of formation h((1 + sqrt(1 - C^2)) / 2)."""
    return float(_eof(_concurrence(*_two_qubit_stack(rho))[1])[0])
