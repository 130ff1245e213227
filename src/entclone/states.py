"""Two-qubit pure states, density matrices, and their validation.

The Bell-basis constructors take a real amplitude alpha in [0, 1] with
beta = sqrt(1 - alpha^2); alpha controls how entangled the state is, from a
product state at the endpoints to maximal entanglement at alpha = 1/sqrt(2).
"""

from __future__ import annotations

import enum
import json
from pathlib import Path

import numpy as np

from .errors import BadDimensionError, BadTraceError, NotNormalizedError, OutOfRangeError
from .linalg import SpectralDecomposition, _as_square, _psd_eigh, require_two_qubit

NORM_TOL = 1e-12
TRACE_TOL = 1e-10


class BellKind(enum.Enum):
    PSI_MINUS = "psi_minus"
    PSI_PLUS = "psi_plus"
    PHI_MINUS = "phi_minus"
    PHI_PLUS = "phi_plus"


# indices of the alpha and beta amplitudes of each Bell-basis state, and beta's sign
_BELL_SLOTS = {
    BellKind.PSI_MINUS: ((1, 2), -1.0),
    BellKind.PSI_PLUS: ((1, 2), 1.0),
    BellKind.PHI_MINUS: ((0, 3), -1.0),
    BellKind.PHI_PLUS: ((0, 3), 1.0),
}


def bell_state(kind: BellKind, alpha) -> np.ndarray:
    """Bell-basis pure state with amplitude alpha.

    PSI states are alpha|01> +/- beta|10>, PHI states alpha|00> +/- beta|11>,
    with beta = sqrt(1 - alpha^2).  An array of amplitudes gives a stack of
    states of shape (..., 4).
    """
    alpha = np.asarray(alpha, dtype=float)
    inside = (0.0 <= alpha) & (alpha <= 1.0)
    if not inside.all():
        raise OutOfRangeError(f"alpha must lie in [0, 1], got {alpha[~inside].flat[0]}")
    psi = np.zeros(alpha.shape + (4,), dtype=complex)
    (i_alpha, i_beta), sign = _BELL_SLOTS[kind]
    psi[..., i_alpha] = alpha
    psi[..., i_beta] = sign * np.sqrt(1.0 - alpha * alpha)
    return psi


def density_from_pure(psi: np.ndarray) -> np.ndarray:
    """Projector |psi><psi| of a normalized pure state (of each state of a stack)."""
    psi = np.asarray(psi, dtype=complex)
    norms = np.sqrt(np.vecdot(psi, psi).real)
    off = np.abs(norms - 1.0) > NORM_TOL
    if off.any():
        raise NotNormalizedError(f"state norm must be 1, got {norms[off].flat[0]:.12g}")
    return psi[..., :, None] * psi.conj()[..., None, :]


def _check_densities(m: np.ndarray) -> SpectralDecomposition:
    # validate_density of each matrix of a stack (..., n, n); returns its checked eigendecomposition
    decomposition = _psd_eigh(m)
    traces = np.trace(m, axis1=-2, axis2=-1)
    off = np.abs(traces - 1.0) > TRACE_TOL
    if off.any():
        raise BadTraceError(f"trace must be 1, got {traces[off].flat[0].real:.12g}")
    return decomposition


def validate_density(m: np.ndarray) -> np.ndarray:
    """Check that m is a density matrix and return it as a complex array.

    Raises NotHermitianError, NotPsdError, or BadTraceError naming the violated
    invariant; eigenvalues in [-PSD_TOL, 0) are accepted as roundoff.  Raises
    NoConvergenceError if the eigensolver fails on m.
    """
    m = _as_square(m)
    _check_densities(m)
    return m


def validate_two_qubit(m: np.ndarray) -> np.ndarray:
    """validate_density for a two-qubit state; also raises BadDimensionError unless m is 4x4."""
    return require_two_qubit(validate_density(m))


def density_to_dict(rho: np.ndarray) -> dict:
    """JSON-ready payload {"dim": d, "re": [[...]], "im": [[...]]}, row-major."""
    rho = np.asarray(rho, dtype=complex)
    return {
        "dim": rho.shape[0],
        "re": rho.real.tolist(),
        "im": rho.imag.tolist(),
    }


def density_from_dict(data: dict) -> np.ndarray:
    """Parse and validate a density matrix payload produced by density_to_dict."""
    try:
        dim = int(data["dim"])
        re = np.array(data["re"], dtype=float)
        im = np.array(data["im"], dtype=float)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed density payload: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise BadDimensionError(
            f"payload arrays must be {dim}x{dim}, got re {re.shape} and im {im.shape}"
        )
    return validate_density(re + 1j * im)


def save_density(path: str | Path, rho: np.ndarray) -> None:
    Path(path).write_text(json.dumps(density_to_dict(rho)) + "\n")


def load_density(path: str | Path) -> np.ndarray:
    """Load and validate a density matrix from a JSON file."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read state file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"state file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError("state file nests JSON too deeply to parse") from exc
    if not isinstance(data, dict):
        raise ValueError("state file must hold a JSON object")
    return density_from_dict(data)
