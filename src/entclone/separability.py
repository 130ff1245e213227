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
from .linalg import _dagger, _real, _transpose_second
from .states import _two_qubit_stack

__all__ = [
    "AlphaSquaredInterval",
    "SeparabilityVerdict",
    "entanglement_interval",
    "ppt_verdict",
]

# a min PT eigenvalue in [-PPT_TOL, 0) reads separable though concurrence is positive there
PPT_TOL = 1e-10
BISECTION_TOL = 1e-8


@dataclass
class SeparabilityVerdict:
    min_pt_eigenvalue: float
    entangled: bool


@dataclass
class AlphaSquaredInterval:
    """Interval of alpha^2 values on which a scheme's output is entangled."""

    low: float
    high: float


def _verdict(rhos: np.ndarray, tol: float = PPT_TOL) -> tuple[np.ndarray, np.ndarray]:
    # unchecked kernel of ppt_verdict: (N,) minimal PT eigenvalues and entangled flags
    pt = _transpose_second(rhos)
    low = np.linalg.eigvalsh((pt + _dagger(pt)) / 2)[:, 0]  # eigvalsh sorts ascending
    return low, low < -tol


def ppt_verdict(rho: np.ndarray, tol: float = PPT_TOL) -> SeparabilityVerdict:
    """Classify a two-qubit state by the sign of its minimal PT eigenvalue.

    States with |min eigenvalue| <= tol are reported separable; tol must be a finite real >= 0, not a bool.
    """
    if not _real(tol) or not 0.0 <= tol < np.inf:
        raise OutOfRangeError(f"tolerance must be finite and non-negative, got {tol}")
    low, entangled = _verdict(_two_qubit_stack(rho)[0], tol)
    return SeparabilityVerdict(float(low[0]), bool(entangled[0]))


def _path(ends: list[float], margins: list[float | None], tol: float) -> list[float]:
    # the midpoints a sequential bisection of ends = [separable_end, entangled_end] visits down to tol if each
    # falls on the side of a guessed root: the secant root through the ends' PT margins, or an end with none yet
    (sep, ent), (m_sep, m_ent) = ends, margins
    guess = sep if m_sep is None else ent if m_ent is None else sep + (ent - sep) * m_sep / (m_sep - m_ent)
    mids = []
    while abs(ent - sep) > tol and (mid := (sep + ent) / 2) not in (sep, ent):
        mids.append(mid)
        sep, ent = (mid, ent) if (mid < guess) == (sep < ent) else (sep, mid)
    return mids


def _walk(ends: list[float], margins: list[float | None], path: list[float], verdicts: list, tol: float) -> str | None:
    # narrows ends by the path's (margin, entangled) verdicts up to and including its first wrong prediction, past
    # which its midpoints are not the bracket's; returns the stall message if the next midpoint fails to split it
    for mid, (margin, side) in zip(path, verdicts):
        if mid != (ends[0] + ends[1]) / 2:
            break
        ends[side], margins[side] = mid, margin
    if abs(ends[1] - ends[0]) > tol and (ends[0] + ends[1]) / 2 in ends:
        return "bisection stalled at alpha^2 bracket [{!r}, {!r}], wider than tol {:g}".format(*sorted(ends), tol)
    return None


def entanglement_interval(
    scheme: CloneScheme | str, tol: float = BISECTION_TOL
) -> AlphaSquaredInterval:
    """Bisect for the alpha^2 interval on which the scheme output is entangled.

    ``scheme`` is a CloneScheme or its value ("pure", "local", "nonlocal");
    the output is evaluated on the alpha|01> - beta|10> family.  Both
    endpoints are located to within ``tol``, exploiting that the interval is
    symmetric about 1/2 and contains it; ``tol`` must be a finite positive
    real (not a bool), as an infinite one would end the bisection before its
    first step.  Each stacked PPT test holds, per endpoint still wider than
    ``tol``, the midpoints a sequential bisection visits down to ``tol`` if
    each falls on the side of the secant root of the bracket ends' PT
    margins; the endpoint walks them up to and including the first wrong
    prediction, so each stack settles at least one level and the brackets
    are those of one probe per step.  Raises NoConvergenceError when ``tol``
    is below the float spacing at an endpoint, so that the midpoint no
    longer splits the bracket; a high-endpoint stall is reported only after
    the low endpoint converges.
    """
    scheme = CloneScheme(scheme)
    if not _real(tol) or not 0.0 < tol < np.inf:
        raise OutOfRangeError(f"tolerance must be finite and positive, got {tol}")
    # [separable_end, entangled_end] of the low and the high endpoint and their PT margins low + PPT_TOL, once known;
    # every round stacks the predicted path of each endpoint still walking, and each walks its own path
    ends, margins, stalls = [[0.0, 0.5], [1.0, 0.5]], [[None, None], [None, None]], [None, None]
    while walking := [k for k in (0, 1) if stalls[k] is None and abs(ends[k][1] - ends[k][0]) > tol]:
        paths = [_path(ends[k], margins[k], tol) for k in walking]
        low, entangled = _verdict(bell_clone(scheme, np.sqrt([mid for path in paths for mid in path])))
        verdicts = list(zip((low + PPT_TOL).tolist(), entangled.tolist()))
        for k, path in zip(walking, paths):
            stalls[k] = _walk(ends[k], margins[k], path, verdicts, tol)
            verdicts = verdicts[len(path):]
    # as in a sequential bisection, low then high: a high-endpoint stall is reported only if the low endpoint converges
    for stall in stalls:
        if stall is not None:
            raise NoConvergenceError(stall)
    return AlphaSquaredInterval(*((sep + ent) / 2 for sep, ent in ends))
