"""Optimal symmetric cloning of two-qubit states, local and non-local.

A universal symmetric cloner acting on a d-dimensional system leaves each
clone in the shrunk state eta * rho + (1 - eta) * I/d with
eta = (d + 2) / (2 (d + 1)).  Two schemes follow for an entangled pair:

* local: each qubit is cloned by its own single-qubit machine (eta = 2/3 per
  side), the joint channel being the tensor product of two qubit cloners;
* non-local: the pair is cloned as one 4-dimensional register (eta = 3/5).

On the Bell-basis input alpha|01> - beta|10> the local scheme yields
populations (24 alpha^2 + 1)/36 and (24 beta^2 + 1)/36 on |01>, |10>,
populations 5/36 on |00>, |11>, and coherence -16 alpha beta / 36.  A variant
form sometimes written with populations -4 alpha beta / 36 on |00>, |11> and a
constant 5/36 coherence is not a density matrix (negative diagonal, trace
below 1) and is rejected by validate_density; the channel implemented here is
the positive map whose inseparability threshold is 16 alpha beta = 5.
"""

from __future__ import annotations

import enum
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import BadDimensionError, OutOfRangeError
from .linalg import _eigh, _partial_trace, kron
from .states import BellKind, _check_densities, bell_state, density_from_pure, validate_density, validate_two_qubit

QUBIT_SHRINK = 2.0 / 3.0
REGISTER_SHRINK = 3.0 / 5.0

# per-step agreement bound between eigenbasis remixing and the direct channel
REMIX_TOL = 1e-10


class CloneScheme(enum.Enum):
    """The channel a two-qubit state passes through; PURE is the identity."""

    PURE = "pure"
    LOCAL = "local"
    NONLOCAL = "nonlocal"

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Send a 4x4 density matrix, or each of a stack (..., 4, 4), through this channel.

        Unchecked: rho must already be validated, or built by the caller.
        LOCAL is the tensor square of the single-qubit shrink map,
        rho -> (4/9) rho + (1/9) rho_A (x) I + (1/9) I (x) rho_B + I/36.
        """
        if self is CloneScheme.PURE:
            return rho
        if self is CloneScheme.NONLOCAL:
            return REGISTER_SHRINK * rho + (1.0 - REGISTER_SHRINK) * np.eye(4) / 4
        rho_a = _partial_trace(rho, (2, 2), "first")
        rho_b = _partial_trace(rho, (2, 2), "second")
        eye2 = np.eye(2)
        # rho_a (x) I and I (x) rho_b: the products np.kron forms, broadcast over the stack
        a_eye = (rho_a[..., :, None, :, None] * eye2[:, None, :]).reshape(rho.shape)
        eye_b = (eye2[:, None, :, None] * rho_b[..., None, :, None, :]).reshape(rho.shape)
        return (4.0 / 9.0) * rho + (1.0 / 9.0) * a_eye + (1.0 / 9.0) * eye_b + np.eye(4) / 36.0


@dataclass
class CloneSequence:
    """States visited by repeated cloning; states[0] is the input."""

    states: list[np.ndarray]
    scheme: CloneScheme


def shrink_channel(rho: np.ndarray, eta: float) -> np.ndarray:
    """Mix a density matrix toward the maximally mixed state.

    Returns eta * rho + (1 - eta) * I/d for 0 < eta <= 1.
    """
    if not 0.0 < eta <= 1.0:
        raise OutOfRangeError(f"shrink factor must lie in (0, 1], got {eta}")
    rho = validate_density(rho)
    d = rho.shape[0]
    return eta * rho + (1.0 - eta) * np.eye(d) / d


def clone_nonlocal(rho: np.ndarray) -> np.ndarray:
    """Clone a two-qubit state as a single 4-dimensional register."""
    return CloneScheme.NONLOCAL.apply(validate_two_qubit(rho))


def clone_local(rho: np.ndarray) -> np.ndarray:
    """Clone each qubit of a two-qubit state with its own machine."""
    return CloneScheme.LOCAL.apply(validate_two_qubit(rho))


def _iterate(rhos: np.ndarray, scheme: CloneScheme, n: int) -> Iterator[np.ndarray]:
    # iterate over an (N, 4, 4) stack of valid states: yields the n + 1 stacks visited;
    # each round's density check hands its eigendecomposition to the next round
    yield rhos
    weights, vectors = _eigh(rhos)
    for _ in range(n):
        # (N, 4, 4, 4): the projector of eigenvector k of row r at [r, k]
        clones = scheme.apply(density_from_pure(vectors.swapaxes(-1, -2)))
        remixed = np.zeros_like(rhos)
        # summed term by term in eigenvalue order; a .sum over k reorders the additions
        for k in range(4):
            remixed = remixed + weights[:, k, None, None] * clones[:, k]
        gap = float(np.abs(remixed - scheme.apply(rhos)).max())
        if gap > REMIX_TOL:
            raise RuntimeError(
                f"eigenbasis remixing deviates from the direct channel by {gap:.3e}"
            )
        weights, vectors = _check_densities(remixed)
        rhos = remixed
        yield rhos


def iterate(rho: np.ndarray, scheme: CloneScheme, n: int) -> CloneSequence:
    """Clone a state n times, feeding each output back in as the next input.

    A mixed intermediate state is first diagonalized, each eigenvector is
    cloned separately, and the results are remixed with the eigenvalue
    weights.  Channel linearity makes this equal to cloning the mixed state
    directly; both are computed and required to agree within REMIX_TOL, and
    every output is checked as a density matrix.
    """
    if n < 0:
        raise OutOfRangeError(f"step count must be non-negative, got {n}")
    stacks = _iterate(validate_two_qubit(rho)[None], scheme, n)
    return CloneSequence(states=[stack[0] for stack in stacks], scheme=scheme)


def bell_clone(scheme: CloneScheme, alphas, extra_rounds: int = 0) -> np.ndarray:
    """Outputs of ``scheme`` on alpha|01> - beta|10>, as an (N, 4, 4) stack over ``alphas``.

    One round is the channel applied to the whole stack; with extra rounds
    the stack goes through 1 + extra_rounds stacked ``iterate`` rounds, each
    keeping its remix check.
    """
    rhos = density_from_pure(bell_state(BellKind.PSI_MINUS, alphas))
    if extra_rounds == 0:
        return scheme.apply(rhos)
    # keep only the last stack, so each round's stack is freed once the next is built
    return deque(_iterate(rhos, scheme, 1 + extra_rounds), maxlen=1).pop()


def symmetric_cloner_joint(rho: np.ndarray) -> np.ndarray:
    """Joint state of both clones produced by the optimal symmetric cloner.

    For a d-dimensional input the output is (2/(d+1)) S (rho (x) I) S with S
    the projector onto the symmetric subspace; tracing out either clone gives
    shrink_channel(rho, (d+2)/(2(d+1))).
    """
    rho = validate_density(rho)
    d = rho.shape[0]
    if d not in (2, 4):
        raise BadDimensionError(f"supported clone dimensions are 2 and 4, got {d}")
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    sym = (np.eye(d * d) + swap) / 2
    return (2.0 / (d + 1)) * sym @ kron(rho, np.eye(d)) @ sym
