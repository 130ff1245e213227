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
from .linalg import dagger, partial_transpose
from .states import validate_two_qubit

PPT_TOL = 1e-10
BISECTION_TOL = 1e-8


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


def ppt_verdict(rho: np.ndarray, tol: float = PPT_TOL) -> SeparabilityVerdict:
    """Classify a two-qubit state by the sign of its minimal PT eigenvalue.

    States with |min eigenvalue| <= tol are reported separable.
    """
    pt = partial_transpose(validate_two_qubit(rho))
    low = float(np.linalg.eigvalsh((pt + dagger(pt)) / 2).min())
    return SeparabilityVerdict(min_pt_eigenvalue=low, entangled=low < -tol, tolerance=tol)


def _bisect_boundary(
    scheme: CloneScheme, separable_end: float, entangled_end: float, tol: float
) -> float:
    while abs(entangled_end - separable_end) > tol:
        mid = (separable_end + entangled_end) / 2
        if mid in (separable_end, entangled_end):
            low, high = sorted((separable_end, entangled_end))
            raise NoConvergenceError(
                f"bisection stalled at alpha^2 bracket [{low!r}, {high!r}], "
                f"wider than tol {tol:g}"
            )
        if ppt_verdict(bell_clone(scheme, float(np.sqrt(mid)))).entangled:
            entangled_end = mid
        else:
            separable_end = mid
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
