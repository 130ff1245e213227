"""Two-qubit pure states, density matrices, and their validation.

The Bell-basis constructors take a real amplitude alpha in [0, 1] with
beta = sqrt(1 - alpha^2); alpha controls how entangled the state is, from a
product state at the endpoints to maximal entanglement at alpha = 1/sqrt(2).
"""

from __future__ import annotations

import enum
import io
import itertools
import json
from functools import partial
from pathlib import Path

import numpy as np

from .errors import BadDimensionError, BadTraceError, NotNormalizedError, OutOfRangeError
from .linalg import (HERMITIAN_TOL, PSD_TOL, SpectralDecomposition, _as_square, _dagger, _hermitian_defect, _member,
                     _numeric, _psd_eigh, _require_two_qubit, _Vocabulary)

__all__ = [
    "BellKind",
    "bell_state",
    "density_from_dict",
    "density_from_pure",
    "density_to_dict",
    "load_density",
    "save_density",
    "validate_density",
]

NORM_TOL = 1e-12
TRACE_TOL = 1e-10
# a 4x4 payload is about 2 KB; a longer file, or a device such as /dev/zero, is refused before it is decoded
MAX_STATE_BYTES = 16 * 2**20
# a state file is read in pieces: one read of MAX_STATE_BYTES + 1 would allocate that much for every file
_READ_PIECE = 2**16


class BellKind(enum.Enum, metaclass=_Vocabulary):
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


def bell_state(kind: BellKind | str, alpha) -> np.ndarray:
    """Bell-basis pure state with amplitude alpha.

    PSI states are alpha|01> +/- beta|10>, PHI states alpha|00> +/- beta|11>,
    with beta = sqrt(1 - alpha^2).  ``kind`` is a BellKind or its value
    ("psi_minus", ...).  An array of amplitudes gives a stack of states of
    shape (..., 4).
    """
    kind = _member(BellKind, kind, "kind")
    alpha = np.asarray(_numeric(alpha, "alpha must be a real amplitude", real=True), dtype=float)
    inside = (0.0 <= alpha) & (alpha <= 1.0)
    if not inside.all():
        raise OutOfRangeError(f"alpha must lie in [0, 1], got {alpha[~inside].flat[0]}")
    return _bell_ket(kind, alpha)


def _bell_ket(kind: BellKind, alpha: np.ndarray) -> np.ndarray:
    psi = np.zeros(alpha.shape + (4,), dtype=complex)
    (i_alpha, i_beta), sign = _BELL_SLOTS[kind]
    psi[..., i_alpha] = alpha
    psi[..., i_beta] = sign * np.sqrt(1.0 - alpha * alpha)
    return psi


def density_from_pure(psi: np.ndarray) -> np.ndarray:
    """Projector |psi><psi| of a normalized pure state (of each state of a stack)."""
    psi = np.asarray(_numeric(psi, "ket entries must be numbers"), dtype=complex)
    if psi.ndim == 0:
        raise BadDimensionError(f"ket must be a vector or a stack of vectors, got shape {psi.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite or huge entry gives a norm reported below
        norms = np.sqrt(np.vecdot(psi, psi).real)
    # written as not <=, so a NaN norm is off too
    off = ~(np.abs(norms - 1.0) <= NORM_TOL)
    if off.any():
        raise NotNormalizedError(f"state norm must be 1, got {norms[off].flat[0]:.12g}")
    return _projector(psi)


def _projector(psi: np.ndarray) -> np.ndarray:
    return psi[..., :, None] * psi.conj()[..., None, :]


def _trace_deviations(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the trace of each matrix of a stack and its distance from 1; a trace past the float maximum reads inf
    with np.errstate(over="ignore"):
        traces = m.trace(axis1=-2, axis2=-1)
    return traces, np.abs(traces - 1.0)


def _check_densities(m: np.ndarray) -> SpectralDecomposition:
    # validate_density of each matrix of a stack (..., n, n); returns its checked eigendecomposition
    decomposition = _psd_eigh(m)
    traces, deviations = _trace_deviations(m)
    if deviations.max() > TRACE_TOL:
        raise BadTraceError(f"trace must be 1, got {traces[deviations > TRACE_TOL][0].real:.12g}")
    return decomposition


def _densities_clean(m: np.ndarray, values: np.ndarray) -> bool:
    # _check_densities without raising, of a stack and its eigenvalues: x <= tol fails a NaN, which max and min carry
    return (_hermitian_defect(m, _dagger(m)) <= HERMITIAN_TOL and -float(values.min()) <= PSD_TOL
            and float(_trace_deviations(m)[1].max()) <= TRACE_TOL)


def validate_density(m: np.ndarray) -> np.ndarray:
    """Check that m is a density matrix and return it as a complex array.

    Raises NotHermitianError, NotPsdError, or BadTraceError naming the violated
    invariant; eigenvalues in [-PSD_TOL, 0) are accepted as roundoff.  Raises
    NoConvergenceError if the eigensolver fails on m.
    """
    m = _as_square(m)
    _check_densities(m)
    return m


def _two_qubit_stack(m: np.ndarray) -> tuple[np.ndarray, SpectralDecomposition]:
    # validate_density, then BadDimensionError unless 4x4: m as a (1, 4, 4) stack and its checked decomposition
    m = _as_square(m)
    spectra = _check_densities(m[None])
    return _require_two_qubit(m)[None], spectra


def density_to_dict(rho: np.ndarray) -> dict:
    """JSON-ready payload {"dim": d, "re": [[...]], "im": [[...]]}, row-major, of a square matrix, state or not."""
    rho = _as_square(rho)
    return {"dim": rho.shape[0], "re": rho.real.tolist(), "im": rho.imag.tolist()}


def density_from_dict(data: dict) -> np.ndarray:
    """Parse and validate a density matrix payload produced by density_to_dict."""
    return validate_density(_parse_density(data))


def _parse_density(data: dict) -> np.ndarray:
    if not isinstance(data, dict):
        raise ValueError("state file must hold a JSON object")
    try:
        dim = data["dim"]
        # bool is a subclass of int, so JSON true would otherwise read as 1
        if isinstance(dim, bool) or not isinstance(dim, int):
            raise TypeError(f"dim must be a JSON integer, got {dim!r}")
        re, im = (np.array(_numeric(data[part], f"{part} must hold real numbers", real=True), dtype=float)
                  for part in ("re", "im"))
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed density payload: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise BadDimensionError(f"payload arrays must be {dim}x{dim}, got re {re.shape} and im {im.shape}")
    with np.errstate(invalid="ignore"):  # 1j * inf has a NaN real part, which the density check reports
        return re + 1j * im


def save_density(path: str | Path, rho: np.ndarray) -> None:
    """Write density_to_dict(rho) to path as one line of JSON."""
    try:
        Path(path).write_text(json.dumps(density_to_dict(rho)) + "\n")
    except (OSError, TypeError) as exc:
        raise ValueError(f"cannot write state file: {exc}") from exc


def load_density(path: str | Path) -> np.ndarray:
    """Load and validate a density matrix from a JSON file."""
    return validate_density(_read_density(path))


def _read_density(path: str | Path) -> np.ndarray:
    try:
        with Path(path).open("rb") as handle:
            pieces = iter(partial(handle.read, _READ_PIECE), b"")
            raw = b"".join(itertools.islice(pieces, MAX_STATE_BYTES // _READ_PIECE + 1))
    except (OSError, TypeError) as exc:
        raise ValueError(f"cannot read state file: {exc}") from exc
    if len(raw) > MAX_STATE_BYTES:
        raise ValueError(f"state file is larger than {MAX_STATE_BYTES} bytes")
    try:
        # decoded whole, in the default text encoding and newlines, so a decoding error names its place in the file
        data = json.loads(io.TextIOWrapper(io.BytesIO(raw)).read())
    except json.JSONDecodeError as exc:
        raise ValueError(f"state file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError("state file nests JSON too deeply to parse") from exc
    return _parse_density(data)
