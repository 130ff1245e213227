"""Dense complex linear algebra for small composite quantum systems.

Two-qubit operators use the computational basis ordered |00>, |01>, |10>, |11>
with the first qubit as the most significant index.  All comparisons use the
maximum absolute entry difference.

The private helpers (``_eigh``, ``_psd_eigh``, ``_psd_root``,
``_transpose_second``, ``_partial_trace``) act on every matrix of a stack of
shape (..., n, n) and check once per stack; the public functions check one
square matrix and call them.  ``_eigh`` holds the finite and Hermiticity
checks and returns descending views of eigh's arrays, not copies (``_eigvalsh``
the same checks and eigenvalues alone); ``_psd_eigh`` adds the PSD_TOL floor;
``_psd_root`` builds the root from its decomposition.  ``_x_entries`` is the
density check of the stacks the program builds, all real X states (nonzero
only on the diagonal and the anti-diagonal); the X-state kernels beside
each general one (``entanglement``, ``separability``, ``bell``) take its
output.  The split is by input structure, states the program built versus
states a caller gives, not scalar versus batched: both kinds take stacks.

Every eigensolve of the package goes through ``_solve``.  It calls the
gufuncs that ``numpy.linalg.eigh`` and ``eigvalsh`` call with UPLO='L', under
the same floating-point handling, without the wrapper around them: for one
4x4 matrix the wrapper's array, type and shape handling cost about twice the
solve itself.  A solve that fails raises NoConvergenceError, whoever called
it.  ``tests/test_linalg.py`` pins ``_solve`` to the two NumPy functions bit
for bit, so a NumPy build whose private gufuncs differ fails there by name.
"""

from __future__ import annotations

import enum
import numbers
import operator
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import BadDimensionError, NoConvergenceError, NotHermitianError, NotPsdError, OutOfRangeError

__all__ = [
    "PAULIS",
    "SpectralDecomposition",
    "hermitian_eig",
    "partial_trace",
    "partial_transpose",
    "psd_sqrt",
]

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-10

# sigma_x, sigma_y, sigma_z
PAULIS = tuple(np.array(s, dtype=complex) for s in ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]))


def _dagger(m: np.ndarray) -> np.ndarray:
    # conjugate transpose of each matrix of a stack
    return m.conj().swapaxes(-1, -2)


# the gufuncs numpy.linalg.eigh and eigvalsh call with UPLO='L', by the name of the function each stands in for
_SOLVERS = {"eigh": _umath_linalg.eigh_lo, "eigvalsh": _umath_linalg.eigvalsh_lo}


def _no_convergence(err, flag):
    raise NoConvergenceError("Eigenvalues did not converge")


def _solve(kind: str, m: np.ndarray, guard: bool = True, out: tuple = ()):
    # numpy.linalg.<kind>(m): eigh's (values, vectors) or eigvalsh's values, ascending, of each Hermitian matrix of a
    # complex128 or float64 stack, its lower triangle read. The same gufunc on the same array under the same errstate,
    # but a failed solve raises NoConvergenceError. guard=False leaves that errstate out, for a caller that runs under
    # np.errstate(invalid="ignore") and checks the outputs NaN-safely: there a failed solve's rows read NaN. out, the
    # arrays to write the outputs into (one per output, as eigh's gufunc refuses out=None), is passed positionally
    if not guard:
        return _SOLVERS[kind](m, *out)
    with np.errstate(call=_no_convergence, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _SOLVERS[kind](m, *out)


class SpectralDecomposition(NamedTuple):
    """Eigensystem of a Hermitian matrix, eigenvalues descending.

    ``eigenvectors`` is unitary; column i pairs with ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


_KIND_NAMES = {"b": "a bool", "c": "a complex number", "O": "an object", "S": "a string", "U": "a string"}


def _numeric(x, what: str, real: bool = False) -> np.ndarray:
    # x as an array, or OutOfRangeError unless it holds ints or floats (or complex numbers, unless real), so no bool,
    # string, None or other object is parsed or cast into a number; one entry is shown, as an array prints on many lines
    a = np.asarray(x)
    if a.dtype.kind not in ("iuf" if real else "iufc"):
        shown = repr(a.item(0)) if a.size else "an empty array"
        raise OutOfRangeError(f"{what}, not {_KIND_NAMES.get(a.dtype.kind, a.dtype.name)}, got {shown}")
    return a


def _as_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(_numeric(m, "matrix entries must be numbers"), dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise BadDimensionError(f"expected a square matrix, got shape {m.shape}")
    if not m.size:
        raise BadDimensionError("expected a non-empty matrix, got shape (0, 0)")
    return m


def _finite(m: np.ndarray) -> np.ndarray:
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    return m


def _real(x) -> bool:
    # a real scalar other than a bool: NumPy floats and ints pass; a string, None, True, np.True_ and a 0-d array do not
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _count(n) -> bool:
    # a non-negative integer other than a bool: NumPy ints pass; a float, a string, None, True and a 0-d array do not
    return isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 0


def _member(kind: type[enum.Enum], value, name: str) -> enum.Enum:
    # kind(value) by EnumMeta's lookup (a _Vocabulary enum's own call is this function) for a member or a string;
    # anything else, an array among them, whose comparison in that lookup raises NumPy's ambiguous-truth error, is
    # refused naming the parameter
    if not isinstance(value, (kind, str)):
        raise ValueError(f"{name} must be a {kind.__name__} or its value, got {value!r}")
    return enum.EnumMeta.__call__(kind, value)


class _Vocabulary(enum.EnumMeta):
    # the metaclass of the exported enums, whose call takes a member or its value and refuses anything else by name
    def __call__(cls, value):
        return _member(cls, value, cls.__name__)


def _require_two_qubit(m: np.ndarray) -> np.ndarray:
    # m unchanged if it is a 4x4 two-qubit operator, else BadDimensionError
    if m.shape != (4, 4):
        raise BadDimensionError(f"expected a 4x4 two-qubit operator, got shape {m.shape}")
    return m


def _hermitian_defect(m: np.ndarray, m_dagger: np.ndarray) -> float:
    # the largest |m - m^dagger| entry of a stack, NaN or inf for a non-finite entry or one near the float max
    return float(np.abs(m - m_dagger).max())


def _hermitian_solve(kind: str, m: np.ndarray):
    # _solve(kind) of the Hermitian part of each matrix of a stack. A non-finite entry makes the defect NaN or inf, so
    # the finite check runs only if the Hermiticity test fails; entries near the float max overflow it or the solver
    with np.errstate(over="ignore", invalid="ignore"):
        m_dagger = _dagger(m)
        defect = _hermitian_defect(m, m_dagger)
        if not defect <= HERMITIAN_TOL:
            _finite(m)
            raise NotHermitianError(f"not Hermitian: max |m - m^dagger| = {defect:.3e}")
        hermitian = (m + m_dagger) / 2
    return _solve(kind, hermitian)


def _descending(values: np.ndarray, vectors: np.ndarray) -> SpectralDecomposition:
    # eigh's ascending arrays as a decomposition of descending views of them
    return SpectralDecomposition(values[..., ::-1], vectors[..., ::-1])


def _eigh(m: np.ndarray) -> SpectralDecomposition:
    # hermitian_eig of each matrix of a stack
    return _descending(*_hermitian_solve("eigh", m))


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    # _eigh's checks and descending eigenvalues by LAPACK's values-only path, whose rounding can differ from eigh's
    return _hermitian_solve("eigvalsh", m)[..., ::-1]


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


def _psd_root(decomposition: SpectralDecomposition) -> np.ndarray:
    # psd_sqrt of each matrix of a stack, from its _psd_eigh decomposition
    values, vectors = decomposition
    root = (vectors * np.sqrt(np.maximum(values, 0.0))[..., None, :]) @ _dagger(vectors)
    return (root + _dagger(root)) / 2


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive semidefinite Hermitian matrix.

    Eigenvalues in [-PSD_TOL, 0) are clamped to 0; anything lower raises
    NotPsdError.
    """
    return _psd_root(_psd_eigh(_as_square(m)))


# flat indices of a 4x4 matrix's diagonal, of its anti-diagonal (entry k at row k, column 3 - k) and of the rest
_DIAGONAL, _ANTI_DIAGONAL = np.arange(0, 16, 5), np.arange(3, 13, 3)
_OFF_X = np.flatnonzero(~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]))


def _pair_low(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    # the smaller eigenvalue of each real symmetric 2x2 matrix [[a, c], [c, b]]
    return (a + b) / 2 - np.hypot((a - b) / 2, c)


def _x_entries(rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the density check of an (N, 4, 4) stack the program built, whose states must be real X states, zero off the
    # diagonal and the anti-diagonal: RuntimeError, a fault of the program, unless each such entry and each imaginary
    # part is exactly 0. Then _psd_eigh's Hermiticity and PSD floor, with the smallest eigenvalue of the two 2x2 blocks
    # ({0, 3} and {1, 2}) in closed form. Returns the real diagonal and anti-diagonal, (N, 4) each
    flat = rhos.reshape(len(rhos), 16)
    if flat.imag.any() or flat[:, _OFF_X].any():
        raise RuntimeError("a state the program built is not a real X state")
    diagonal, anti = flat.real[:, _DIAGONAL], flat.real[:, _ANTI_DIAGONAL]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry makes the defect or the minimum inf or NaN
        defect = float(np.abs(anti - anti[:, ::-1]).max())
        low = float(np.minimum(_pair_low(diagonal[:, 0], diagonal[:, 3], anti[:, 0]),
                               _pair_low(diagonal[:, 1], diagonal[:, 2], anti[:, 1])).min())
    if not defect <= HERMITIAN_TOL:
        raise NotHermitianError(f"not Hermitian: max |m - m^dagger| = {defect:.3e}")
    if not low >= -PSD_TOL:
        raise NotPsdError(f"not positive semidefinite: min eigenvalue = {low:.3e}")
    return diagonal, anti


def _transpose_second(m: np.ndarray) -> np.ndarray:
    # partial_transpose of each 4x4 matrix of a stack: swap the second qubit's two indices
    return m.reshape(*m.shape[:-2], 2, 2, 2, 2).swapaxes(-3, -1).reshape(m.shape)


def partial_transpose(m: np.ndarray) -> np.ndarray:
    """Transpose the second qubit's indices of a two-qubit operator.

    Entry ((a, n), (b, m)) of the output equals entry ((a, m), (b, n)) of the
    input.  The map is an exact entry permutation, hence involutive and
    trace preserving.
    """
    return _transpose_second(_finite(_require_two_qubit(_as_square(m))))


def _partial_trace(m: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    # partial_trace of each matrix of a stack (..., dA dB, dA dB)
    da, db = dims
    t = m.reshape(*m.shape[:-2], da, db, da, db)
    if keep == "first":
        return np.einsum("...ijkj->...ik", t)
    return np.einsum("...ijil->...jl", t)


def partial_trace(m: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one tensor factor of an operator on a dA x dB system.

    ``keep`` selects the surviving factor, "first" or "second"; ``dims``
    holds two positive integers.
    """
    m = _finite(_as_square(m))
    try:
        if any(isinstance(d, bool) for d in dims):  # an int subclass, so True would read as 1; np.True_ has no index
            raise TypeError
        da, db = map(operator.index, dims)
    except (TypeError, ValueError):
        raise BadDimensionError(f"dims must be two positive integers, got {dims!r}") from None
    if min(da, db) < 1 or m.shape[0] != da * db:  # (-2, -2) has the product 4 too
        raise BadDimensionError(f"matrix of dim {m.shape[0]} does not factor as {da}x{db}")
    if not isinstance(keep, str) or keep not in ("first", "second"):  # an array's == would raise NumPy's own error
        raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")
    return _partial_trace(m, (da, db), keep)
