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
from .linalg import _dagger, _member, _real, _transpose_second
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


# an interval's first stack holds the top _TREE_DEPTH levels of each endpoint's bisection tree, which always leaves the
# two samples a guess needs; each later stack a path toward the root guessed from the two samples nearest the bracket
_TREE_DEPTH = 4


def _guess(ends: list[float], samples: dict[float, tuple[float, bool]]) -> float:
    # the secant root, in u = alpha beta, of the PT margin through the two samples nearest the bracket middle, mapped
    # back to alpha^2 on the bracket's side of 1/2; the margin is affine in u near each root, so the secant is exact
    # there.  u^2 / (1/2 + sqrt(1/4 - u^2)) is 1/2 - sqrt(1/4 - u^2) without its cancellation near u = 0.  The
    # bracket middle if the two margins are equal
    middle = (ends[0] + ends[1]) / 2
    (x0, (g0, _)), (x1, (g1, _)) = sorted(samples.items(), key=lambda item: abs(item[0] - middle))[:2]
    if g0 == g1:
        return middle
    u0, u1 = math.sqrt(x0 * (1.0 - x0)), math.sqrt(x1 * (1.0 - x1))
    u = u0 - g0 * (u1 - u0) / (g1 - g0)
    low = u * u / (0.5 + math.sqrt(0.25 - u * u))
    return low if middle < 0.5 else 1.0 - low


def _path(ends: list[float], samples: dict[float, tuple[float, bool]], tol: float) -> list[float]:
    # the midpoints to stack for ends = [separable_end, entangled_end]: with no samples yet every midpoint of the top
    # _TREE_DEPTH bisection levels; else, from the bracket's own midpoint on, those a sequential bisection visits if
    # each falls on the side of the guessed root, down to tol or a stall
    if not samples:
        brackets, mids = [tuple(ends)], []
        for _ in range(_TREE_DEPTH):
            if abs(brackets[0][1] - brackets[0][0]) <= tol:
                break
            halves = [(sep + ent) / 2 for sep, ent in brackets]
            mids += halves
            brackets = [half for (sep, ent), mid in zip(brackets, halves) for half in ((sep, mid), (mid, ent))]
        return mids
    guess = _guess(ends, samples)
    (sep, ent), mids = ends, []
    while abs(ent - sep) > tol and (mid := (sep + ent) / 2) not in (sep, ent):
        mids.append(mid)
        sep, ent = (mid, ent) if (mid < guess) == (sep < ent) else (sep, mid)
    return mids


def _walk(ends: list[float], samples: dict[float, tuple[float, bool]], tol: float) -> str | None:
    # narrows ends while their midpoint has a verdict in samples; returns the stall message if the midpoint fails to
    # split them, tested first because such a midpoint is an end, and so a sample
    while abs(ends[1] - ends[0]) > tol:
        mid = (ends[0] + ends[1]) / 2
        if mid in ends:
            return "bisection stalled at alpha^2 bracket [{!r}, {!r}], wider than tol {:g}".format(*sorted(ends), tol)
        if mid not in samples:
            break
        ends[samples[mid][1]] = mid
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
    first step.  The brackets are those of a bisection with one PPT probe per
    step, but the probes are stacked.  The first stacked PPT test holds the
    top four levels of each endpoint's bisection tree, which always leaves
    the two samples a guess needs.  Each later one holds, per endpoint still
    wider than ``tol``, the midpoints a sequential bisection visits down to
    ``tol`` if each falls on the side of a root guessed by a secant in
    alpha beta through the two evaluated PT margins nearest the bracket.
    An endpoint settles every midpoint of its bracket that has a verdict, so
    each stack settles at least one level.  Raises
    NoConvergenceError when ``tol`` is below the float spacing at an
    endpoint, so that the midpoint no longer splits the bracket; a
    high-endpoint stall is reported only after the low endpoint converges.
    """
    scheme = _member(CloneScheme, scheme, "scheme")
    if not _real(tol) or not 0.0 < tol < np.inf:
        raise OutOfRangeError(f"tolerance must be finite and positive, got {tol}")
    # [separable_end, entangled_end] of the low and the high endpoint, and each one's samples: every midpoint it has
    # stacked, with its PT margin low + PPT_TOL and its verdict; every round stacks the paths of the endpoints still
    # walking, and each walks its own samples
    ends, samples, stalls = [[0.0, 0.5], [1.0, 0.5]], [{}, {}], [None, None]
    while walking := [k for k in (0, 1) if stalls[k] is None and abs(ends[k][1] - ends[k][0]) > tol]:
        paths = [_path(ends[k], samples[k], tol) for k in walking]
        low, entangled = _verdict(bell_clone(scheme, np.sqrt([mid for path in paths for mid in path])))
        verdicts = list(zip((low + PPT_TOL).tolist(), entangled.tolist()))
        for k, path in zip(walking, paths):
            samples[k].update(zip(path, verdicts))
            stalls[k] = _walk(ends[k], samples[k], tol)
            verdicts = verdicts[len(path):]
    # as in a sequential bisection, low then high: a high-endpoint stall is reported only if the low endpoint converges
    for stall in stalls:
        if stall is not None:
            raise NoConvergenceError(stall)
    return AlphaSquaredInterval(*((sep + ent) / 2 for sep, ent in ends))
