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


def _verdict(rhos: np.ndarray, tol: float = PPT_TOL) -> tuple[np.ndarray, np.ndarray]:
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


def _tree(separable_end: float, entangled_end: float) -> list[float]:
    # midpoints of the next _TREE_DEPTH bisection levels in heap order:
    # node k splits its bracket into 2k + 1 (mid entangled) and 2k + 2 (mid separable)
    brackets, mids = [(separable_end, entangled_end)], []
    while len(mids) < 2**_TREE_DEPTH - 1:
        sep, ent = brackets[len(mids)]
        mids.append((sep + ent) / 2)
        brackets += [(sep, mids[-1]), (mids[-1], ent)]
    return mids


def _walk(ends: list[float], mids: list[float], entangled: np.ndarray, tol: float) -> str | None:
    # narrows ends = [separable_end, entangled_end] down one tree; returns the stall
    # message if a midpoint no longer splits the bracket, None otherwise
    node = 0
    while node < len(mids) and abs(ends[1] - ends[0]) > tol:
        mid = mids[node]
        if mid in ends:
            low, high = sorted(ends)
            return f"bisection stalled at alpha^2 bracket [{low!r}, {high!r}], wider than tol {tol:g}"
        if entangled[node]:
            ends[1], node = mid, 2 * node + 1
        else:
            ends[0], node = mid, 2 * node + 2
    return None


def entanglement_interval(
    scheme: CloneScheme | str, tol: float = BISECTION_TOL
) -> AlphaSquaredInterval:
    """Bisect for the alpha^2 interval on which the scheme output is entangled.

    ``scheme`` is a CloneScheme or its value ("pure", "local", "nonlocal");
    the output is evaluated on the alpha|01> - beta|10> family.  Both
    endpoints are located to within ``tol``, exploiting that the interval is
    symmetric about 1/2 and contains it.  Raises NoConvergenceError when
    ``tol`` is below the float spacing at an endpoint, so that the midpoint
    no longer splits the bracket; a high-endpoint stall is reported only
    after the low endpoint converges.
    """
    scheme = CloneScheme(scheme)
    if not tol > 0.0:
        raise OutOfRangeError(f"tolerance must be positive, got {tol}")
    # [separable_end, entangled_end] of the low and the high endpoint; every round stacks the
    # tree midpoints of each endpoint still walking, and each walks its own tree
    ends, stalls = [[0.0, 0.5], [1.0, 0.5]], [None, None]
    while walking := [k for k in (0, 1) if stalls[k] is None and abs(ends[k][1] - ends[k][0]) > tol]:
        trees = [_tree(*ends[k]) for k in walking]
        entangled = _verdict(bell_clone(scheme, np.sqrt(np.concatenate(trees))))[1]
        for k, mids, flags in zip(walking, trees, np.split(entangled, len(trees))):
            stalls[k] = _walk(ends[k], mids, flags, tol)
        # as in a sequential bisection, a high-endpoint stall is reported only after the low endpoint converges
        if stalls[0] is not None:
            raise NoConvergenceError(stalls[0])
    if stalls[1] is not None:
        raise NoConvergenceError(stalls[1])
    (low_sep, low_ent), (high_sep, high_ent) = ends
    return AlphaSquaredInterval(low=(low_sep + low_ent) / 2, high=(high_sep + high_ent) / 2)
