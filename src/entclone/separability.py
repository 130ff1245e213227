"""Partial-transpose separability test and inseparability intervals.

For two qubits a state is separable exactly when its partial transpose is
positive semidefinite, so the sign of the smallest partial-transpose
eigenvalue decides entanglement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloning import CloneScheme, bell_clone
from .errors import NoConvergenceError, OutOfRangeError
from .linalg import _dagger, _member, _pair_low, _real, _solve, _transpose_second
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

# flat rho index of each PT entry in the basis order |00>, |11>, |01>, |10>: a permutation similarity, same spectrum.
# A Bell-family state's one coherence |01><10| moves to |00><11| under the PT, adjacent in this order, so the PT
# of every state interval's bisection builds is tridiagonal here and eigvalsh has no reduction to make
_PT_INDEX = _transpose_second(np.arange(16).reshape(4, 4))[[0, 3, 1, 2]][:, [0, 3, 1, 2]].ravel()


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
    pt = rhos.reshape(len(rhos), 16).take(_PT_INDEX, axis=1).reshape(len(rhos), 4, 4)
    low = _solve("eigvalsh", (pt + _dagger(pt)) / 2)[:, 0]  # eigvalsh sorts ascending
    return low, low < -tol


def _x_pt_min(diagonal: np.ndarray, anti: np.ndarray) -> np.ndarray:
    # (N,) minimal PT eigenvalues of the states the program built, from their linalg._x_entries: the PT swaps the two
    # coherences between the blocks {0, 3} and {1, 2}, so the minimum is the smaller of their closed-form low ends.
    # Within about 1e-16 of _verdict's solve, which states a caller gives and interval's bisection bits keep
    return np.minimum(_pair_low(diagonal[:, 0], diagonal[:, 3], anti[:, 1]),
                      _pair_low(diagonal[:, 1], diagonal[:, 2], anti[:, 0]))


def ppt_verdict(rho: np.ndarray, tol: float = PPT_TOL) -> SeparabilityVerdict:
    """Classify a two-qubit state by the sign of its minimal PT eigenvalue.

    States with |min eigenvalue| <= tol are reported separable; tol must be a finite real >= 0, not a bool.
    The minimum is of the same spectrum, solved in the basis order |00>, |11>, |01>, |10>.
    """
    if not _real(tol) or not 0.0 <= tol < np.inf:
        raise OutOfRangeError(f"tolerance must be finite and non-negative, got {tol}")
    low, entangled = _verdict(_two_qubit_stack(rho)[0], tol)
    return SeparabilityVerdict(float(low[0]), bool(entangled[0]))


# an interval's first stack cuts each endpoint's bracket into _GRID equal steps, ends included: the top levels of its
# bisection tree, so every bracket it walks to has stacked ends; each later stack a path toward a root guessed from them
_GRID = 16


def _guess(ends: list[float], samples: dict[float, float]) -> float:
    # regula falsi in u = alpha beta: the secant root of the PT margin through the bracket's two ends, mapped back to
    # alpha^2 on the bracket's side of 1/2; the margin is affine in u near each root, so the secant is exact there.
    # u^2 / (1/2 + sqrt(1/4 - u^2)) is 1/2 - sqrt(1/4 - u^2) without its cancellation near u = 0.  The bracket middle
    # if the two margins share a sign, which only contrived verdicts give; else u lies between the ends' u <= 1/2
    (x0, x1), (g0, g1) = ends, (samples[end] for end in ends)
    if (g0 < 0.0) == (g1 < 0.0):
        return (x0 + x1) / 2
    u0, u1 = math.sqrt(x0 * (1.0 - x0)), math.sqrt(x1 * (1.0 - x1))
    u = u0 - g0 * (u1 - u0) / (g1 - g0)
    low = u * u / (0.5 + math.sqrt(0.25 - u * u))
    return low if x0 < 0.5 else 1.0 - low


def _path(ends: list[float], samples: dict[float, float], tol: float) -> list[float]:
    # the points to stack for ends = [separable_end, entangled_end]: with no samples yet the _GRID + 1 grid points;
    # else, from the bracket's own midpoint on, those a sequential bisection visits if each falls on the side of the
    # guessed root, down to tol or a stall
    (sep, ent), mids = ends, []
    if not samples:
        return [sep + (ent - sep) * k / _GRID for k in range(_GRID + 1)]
    guess = _guess(ends, samples)
    while abs(ent - sep) > tol and (mid := (sep + ent) / 2) not in (sep, ent):
        mids.append(mid)
        sep, ent = (mid, ent) if (mid < guess) == (sep < ent) else (sep, mid)
    return mids


def _walk(ends: list[float], samples: dict[float, float], tol: float) -> str | None:
    # narrows ends while their midpoint has a margin in samples, negative where _verdict reads entangled; returns the
    # stall message if the midpoint fails to split them, tested first because such a midpoint is an end, and so a sample
    while abs(ends[1] - ends[0]) > tol:
        mid = (ends[0] + ends[1]) / 2
        if mid in ends:
            return f"bisection stalled at alpha^2 bracket [{min(ends)!r}, {max(ends)!r}], wider than tol {tol:g}"
        if mid not in samples:
            break
        ends[samples[mid] < 0.0] = mid
    return None


def entanglement_interval(scheme: CloneScheme | str, tol: float = BISECTION_TOL) -> AlphaSquaredInterval:
    """Bisect for the alpha^2 interval on which the scheme output is entangled.

    ``scheme`` is a CloneScheme or its value ("pure", "local", "nonlocal");
    the output is evaluated on the alpha|01> - beta|10> family.  Both
    endpoints are located to within ``tol``, exploiting that the interval is
    symmetric about 1/2 and contains it; ``tol`` must be a finite positive
    real (not a bool), as an infinite one would end the bisection before its
    first step.  The brackets are those of a bisection with one PPT probe per
    step, but the probes are stacked.  The first stacked PPT test holds each
    endpoint's bracket cut into 16 equal steps, ends included, so every
    bracket an endpoint walks to has two evaluated ends.  Each later one
    holds, per endpoint still wider than ``tol``, the midpoints a sequential
    bisection visits down to ``tol`` if each falls on the side of a root
    guessed by regula falsi in alpha beta through the PT margins at the
    bracket's ends.  An endpoint settles every midpoint of its bracket that
    has a margin, so each stack settles at least one level.  Raises
    NoConvergenceError when ``tol`` is below the float spacing at an
    endpoint, so that the midpoint no longer splits the bracket; a
    high-endpoint stall is reported only after the low endpoint converges.
    """
    scheme = _member(CloneScheme, scheme, "scheme")
    if not _real(tol) or not 0.0 < tol < np.inf:
        raise OutOfRangeError(f"tolerance must be finite and positive, got {tol}")
    # [separable_end, entangled_end] of the low and the high endpoint, and each one's samples: every point it has
    # stacked, with its PT margin low + PPT_TOL, whose sign is _verdict's (the sum is exact within a factor 2 of
    # -PPT_TOL); every round stacks the paths of the endpoints still walking, and each walks its own samples
    ends, samples, stalls = [[0.0, 0.5], [1.0, 0.5]], [{}, {}], [None, None]
    while walking := [k for k in (0, 1) if stalls[k] is None and abs(ends[k][1] - ends[k][0]) > tol]:
        paths = [_path(ends[k], samples[k], tol) for k in walking]
        margins = (_verdict(bell_clone(scheme, np.sqrt(np.concatenate(paths))))[0] + PPT_TOL).tolist()
        for k, path in zip(walking, paths):
            samples[k].update(zip(path, margins))
            stalls[k] = _walk(ends[k], samples[k], tol)
            margins = margins[len(path):]
    # as in a sequential bisection, low then high: a high-endpoint stall is reported only if the low endpoint converges
    for stall in stalls:
        if stall is not None:
            raise NoConvergenceError(stall)
    return AlphaSquaredInterval(*((sep + ent) / 2 for sep, ent in ends))
