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
from collections.abc import Iterator

import numpy as np

from .errors import OutOfRangeError
from .linalg import SpectralDecomposition, _count, _dagger, _descending, _member, _partial_trace, _solve, _Vocabulary
from .states import BellKind, _bell_ket, _check_densities, _densities_clean, _projector, _two_qubit_stack

__all__ = [
    "CloneScheme",
    "QUBIT_SHRINK",
    "REGISTER_SHRINK",
    "clone_local",
    "clone_nonlocal",
    "iterate",
]

QUBIT_SHRINK = 2.0 / 3.0
REGISTER_SHRINK = 3.0 / 5.0

# per-step agreement bound between eigenbasis remixing and the direct channel
REMIX_TOL = 1e-10

# matrices per stack, the rows of a sweep block or the rows times rounds of an iterate window (whose checks run once
# over its stack before any of its rounds is handed on): bounds the temporaries, the largest a block's 4N clones
_BLOCK = 512

# the channels' constant terms, built once
_REGISTER_NOISE = (1.0 - REGISTER_SHRINK) * np.eye(4) / 4
_QUBIT_PAIR_NOISE = np.eye(4) / 36.0


class CloneScheme(enum.Enum, metaclass=_Vocabulary):
    """The channel a two-qubit state passes through; PURE is the identity."""

    PURE = "pure"
    LOCAL = "local"
    NONLOCAL = "nonlocal"


def _channel(scheme: CloneScheme, rhos: np.ndarray) -> np.ndarray:
    # unchecked: a 4x4 density matrix, or each of a stack (..., 4, 4), already validated or built by the caller, sent
    # through scheme's channel.  Affine, not linear: the constant identity term assumes tr rho = 1.  LOCAL is the
    # tensor square of the single-qubit shrink map, rho -> (4/9) rho + (1/9) rho_A (x) I + (1/9) I (x) rho_B + I/36.
    # Terms after the first are added in place, the same sums left to right: on an iterate round's (N, 4, 4, 4) clone
    # stack each temporary is megabytes, and freeing fewer keeps the allocator from handing them back to the system
    if scheme is CloneScheme.PURE:
        return rhos
    if scheme is CloneScheme.NONLOCAL:
        out = REGISTER_SHRINK * rhos
        out += _REGISTER_NOISE
        return out
    # rho_a (x) I and I (x) rho_b, indexed [..., a, b, a', b'], copied into zeros: each nonzero entry is the product
    # np.kron forms, and a zero whose sign differs from kron's is made +0.0 by the identity term
    a_eye, eye_b = terms = np.zeros((2, *rhos.shape[:-2], 2, 2, 2, 2), dtype=complex)
    a_eye[..., :, 0, :, 0] = a_eye[..., :, 1, :, 1] = _partial_trace(rhos, (2, 2), "first")
    eye_b[..., 0, :, 0, :] = eye_b[..., 1, :, 1, :] = _partial_trace(rhos, (2, 2), "second")
    a_eye, eye_b = np.multiply(1.0 / 9.0, terms, out=terms).reshape(2, *rhos.shape)
    out = (4.0 / 9.0) * rhos + a_eye
    out += eye_b
    out += _QUBIT_PAIR_NOISE
    return out


def clone_nonlocal(rho: np.ndarray) -> np.ndarray:
    """Clone a two-qubit state as a single 4-dimensional register."""
    return _channel(CloneScheme.NONLOCAL, _two_qubit_stack(rho)[0][0])


def clone_local(rho: np.ndarray) -> np.ndarray:
    """Clone each qubit of a two-qubit state with its own machine."""
    return _channel(CloneScheme.LOCAL, _two_qubit_stack(rho)[0][0])


def _remix_gap(scheme: CloneScheme, rhos: np.ndarray, remixed: np.ndarray) -> float:
    # the largest entry of |remix - direct channel| over a stack of round inputs and their remixes
    return float(np.abs(remixed - _channel(scheme, rhos)).max())


def _clean(scheme: CloneScheme, chain: np.ndarray, n: int, values: np.ndarray) -> bool:
    # all checks of a window's rounds, chain[n:] the outputs of inputs chain[:-n] and values their eigenvalues, NaN-safe
    return _remix_gap(scheme, chain[:-n], chain[n:]) <= REMIX_TOL and _densities_clean(chain[n:], values)


def _window(rhos: np.ndarray, spectra: SpectralDecomposition, scheme: CloneScheme, count: int) -> list:
    # count iterate rounds from a checked (rhos, spectra), as (stack, decomposition) pairs, made unchecked and then
    # checked as one stack. The clones, (N, 4, 4, 4) and fresh for every scheme (PURE returns them), are weighted in
    # place; C-ordered, the clone of eigenvector k of row r is the contiguous 4x4 at [r, k], so the reduce adds whole
    # clones in k order from +0.0: (((0 + w0 C0) + w1 C1) + w2 C2) + w3 C3 (over an innermost k it pairs them). The
    # remix check vets eigh's norms. Each solve runs under the window's errstate, not one of its own, so a solve that
    # fails leaves NaN rows, which fail the check. A window that is not clean has its rounds checked one by one
    # (_check_densities repeats each solve on the same bytes, guarded), so its first failing round raises. The last
    # clone stack is freed before the check, and the loop kept out of _iterate's frame: held, it doubles a block's
    # page faults
    chain, window = [rhos], []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(count):
            weights, vectors = spectra
            kets = vectors.swapaxes(-1, -2)
            clones = _channel(scheme, np.multiply(kets[..., :, None], kets.conj()[..., None, :], order="C"))
            np.multiply(weights[:, :, None, None], clones, out=clones)
            chain.append(remixed := np.add.reduce(clones, axis=1, initial=0.0))
            spectra = _descending(*_solve("eigh", (remixed + _dagger(remixed)) / 2, guard=False))
            window.append((remixed, spectra))
        del clones
        if _clean(scheme, np.concatenate(chain), len(rhos), np.concatenate([values for _, (values, _) in window])):
            return window
    for inputs, outputs in zip(chain, chain[1:]):
        if (gap := _remix_gap(scheme, inputs, outputs)) > REMIX_TOL:
            raise RuntimeError(f"eigenbasis remixing deviates from the direct channel by {gap:.3e}")
        _check_densities(outputs)
    return window


def _iterate(rhos: np.ndarray, spectra: SpectralDecomposition, scheme: CloneScheme, n: int) -> Iterator[tuple]:
    # iterate over an (N, 4, 4) stack of valid states and its decomposition: yields n + 1 (stack, decomposition) pairs,
    # the rounds in windows of _BLOCK // N of them (one at least), each window checked before its first round is yielded
    yield rhos, spectra
    size = max(1, _BLOCK // len(rhos))
    for start in range(0, n, size):
        window = _window(rhos, spectra, scheme, min(size, n - start))
        yield from window
        rhos, spectra = window[-1]


def iterate(rho: np.ndarray, scheme: CloneScheme | str, n: int) -> list[np.ndarray]:
    """Clone a state n times, feeding each output back in as the next input.

    Returns the n + 1 states visited, the input first.  A mixed intermediate
    state is first diagonalized, each eigenvector is cloned separately, and
    the results are remixed with the eigenvalue weights.  Channel linearity
    makes this equal to cloning the mixed state directly; both are computed
    and required to agree within REMIX_TOL, and every output is checked as a
    density matrix.  The checks run once over each window of at most 512
    rounds, before any state is returned; a failing window's rounds are then
    checked one by one, from the states made: the first failing one raises.
    ``scheme`` is a CloneScheme or its value ("pure", "local", "nonlocal");
    ``n`` is a non-negative integer (not a bool).
    """
    scheme = _member(CloneScheme, scheme, "scheme")
    if not _count(n):
        raise OutOfRangeError(f"step count must be a non-negative integer, got {n!r}")
    return [rhos[0] for rhos, _ in _iterate(*_two_qubit_stack(rho), scheme, n)]


def bell_clone(scheme: CloneScheme, alphas) -> np.ndarray:
    """Outputs of ``scheme`` on alpha|01> - beta|10>, as an (N, 4, 4) stack over ``alphas``.

    Unchecked: for amplitudes the program made in [0, 1], whose kets are
    within about 1e-16 of norm 1.  Pass others through bell_state first.
    """
    return _channel(scheme, _projector(_bell_ket(BellKind.PSI_MINUS, np.asarray(alphas, dtype=float))))

