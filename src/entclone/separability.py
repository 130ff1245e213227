"""Partial-transpose separability test and inseparability intervals.

For two qubits a state is separable exactly when its partial transpose is
positive semidefinite, so the sign of the smallest partial-transpose
eigenvalue decides entanglement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloning import CloneScheme, bell_clone
from .errors import NoConvergenceError, OutOfRangeError
from .linalg import _transpose_second, dagger
from .states import validate_two_qubit

# a min PT eigenvalue in [-PPT_TOL, 0) reads separable though concurrence is positive there
PPT_TOL = 1e-10
BISECTION_TOL = 1e-8
# bisection levels whose midpoints are evaluated as one stack
_TREE_DEPTH = 4


@dataclass
class SeparabilityVerdict:
    min_pt_eigenvalue: float
    entangled: bool
    tolerance: float


@dataclass
class AlphaSquaredInterval:
    """Interval of alpha^2 values on which a scheme's output is entangled."""

    low: float
    high: float


def _verdict(rhos: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    # unchecked kernel of ppt_verdict: (N,) minimal PT eigenvalues and entangled flags
    pt = _transpose_second(rhos)
    low = np.linalg.eigvalsh((pt + dagger(pt)) / 2)[:, 0]  # eigvalsh sorts ascending
    return low, low < -tol


def ppt_verdict(rho: np.ndarray, tol: float = PPT_TOL) -> SeparabilityVerdict:
    """Classify a two-qubit state by the sign of its minimal PT eigenvalue.

    States with |min eigenvalue| <= tol are reported separable.
    """
    low, entangled = _verdict(validate_two_qubit(rho)[None], tol)
    return SeparabilityVerdict(float(low[0]), bool(entangled[0]), tol)


def _bisect_boundary(
    scheme: CloneScheme, separable_end: float, entangled_end: float, tol: float
) -> float:
    while abs(entangled_end - separable_end) > tol:
        # midpoints of the next _TREE_DEPTH bisection levels in heap order, as one stack:
        # node k splits its bracket into 2k + 1 (mid entangled) and 2k + 2 (mid separable)
        brackets, mids = [(separable_end, entangled_end)], []
        while len(mids) < 2**_TREE_DEPTH - 1:
            sep, ent = brackets[len(mids)]
            mids.append((sep + ent) / 2)
            brackets += [(sep, mids[-1]), (mids[-1], ent)]
        entangled = _verdict(bell_clone(scheme, np.sqrt(mids)), PPT_TOL)[1]
        node = 0
        while node < len(mids) and abs(entangled_end - separable_end) > tol:
            mid = mids[node]
            if mid in (separable_end, entangled_end):
                low, high = sorted((separable_end, entangled_end))
                raise NoConvergenceError(
                    f"bisection stalled at alpha^2 bracket [{low!r}, {high!r}], "
                    f"wider than tol {tol:g}"
                )
            if entangled[node]:
                entangled_end, node = mid, 2 * node + 1
            else:
                separable_end, node = mid, 2 * node + 2
    return (separable_end + entangled_end) / 2


def entanglement_interval(
    scheme: CloneScheme | str, tol: float = BISECTION_TOL
) -> AlphaSquaredInterval:
    """Bisect for the alpha^2 interval on which the scheme output is entangled.

    ``scheme`` is a CloneScheme or its value ("pure", "local", "nonlocal");
    the output is evaluated on the alpha|01> - beta|10> family.  Both
    endpoints are located to within ``tol``, exploiting that the interval is
    symmetric about 1/2 and contains it.  Raises NoConvergenceError when
    ``tol`` is below the float spacing at an endpoint, so that the midpoint
    no longer splits the bracket.
    """
    scheme = CloneScheme(scheme)
    if not tol > 0.0:
        raise OutOfRangeError(f"tolerance must be positive, got {tol}")
    low = _bisect_boundary(scheme, 0.0, 0.5, tol)
    high = _bisect_boundary(scheme, 1.0, 0.5, tol)
    return AlphaSquaredInterval(low=low, high=high)
