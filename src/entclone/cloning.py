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
from .linalg import SpectralDecomposition, _count, _descending, _member, _partial_trace, _solve, _Vocabulary
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


def _channel(scheme: CloneScheme, rhos: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # unchecked: a 4x4 density matrix, or each of a stack (..., 4, 4), already validated or built by the caller, sent
    # through scheme's channel. out, if given, is rhos itself, which the channel then overwrites (PURE returns rhos).
    # Affine, not linear: the constant identity term assumes tr rho = 1.  LOCAL is the tensor square of the
    # single-qubit shrink map, rho -> (4/9) rho + (1/9) rho_A (x) I + (1/9) I (x) rho_B + I/36, summed left to right
    if scheme is CloneScheme.PURE:
        return rhos
    if scheme is CloneScheme.NONLOCAL:
        out = np.multiply(REGISTER_SHRINK, rhos, out=out)
        out += _REGISTER_NOISE
        return out
    # the partial traces first, as out may be rhos. rho_a (x) I holds rho_a at rows and columns (2a + b, 2a' + b), the
    # slices a0 (b = 0) and a1 (b = 1); I (x) rho_b holds rho_b at (2a + b, 2a + b'), the slices b0 (a = 0) and b1
    # (a = 1). Only those entries get a term: the +0.0 each term holds elsewhere would only turn a -0.0 into +0.0,
    # which the identity term, added to every entry last, does too, so the bytes are those of the full sums
    rho_a = _partial_trace(rhos, (2, 2), "first")
    rho_b = _partial_trace(rhos, (2, 2), "second")
    rho_a *= 1.0 / 9.0
    rho_b *= 1.0 / 9.0
    out = np.multiply(4.0 / 9.0, rhos, out=out)
    a0, a1, b0, b1 = out[..., ::2, ::2], out[..., 1::2, 1::2], out[..., :2, :2], out[..., 2:, 2:]
    a0 += rho_a
    a1 += rho_a
    b0 += rho_b
    b1 += rho_b
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


def _window(rhos: np.ndarray, spectra: SpectralDecomposition, scheme: CloneScheme, count: int, space: tuple) -> list:
    # count iterate rounds from a checked (rhos, spectra), as (stack, decomposition) pairs, made unchecked and then
    # checked as one stack. The window owns its chain of stacks (its input first) and eigh's ascending eigenvalues and
    # eigenvectors, a slot per round, and the pairs are views of them; every round works in space, the _iterate call's
    # (N, 4, 4, 4) clone stack, (N, 4, 4) conjugate buffer and (N, 4, 4) Hermitian part. The C-ordered clone of
    # eigenvector k of row r is the contiguous 4x4 at [r, k]: weighted in place, the reduce adds whole clones in k
    # order from +0.0, (((0 + w0 C0) + w1 C1) + w2 C2) + w3 C3 (over an innermost k it would pair them). The remix
    # check vets eigh's norms. Each solve runs under the window's errstate, not one of its own, so a solve that fails
    # leaves NaN rows, which fail the check. A window that is not clean has its rounds checked one by one
    # (_check_densities repeats each solve on the same bytes, guarded), so its first failing round raises
    clones, conj, hermitian = space
    chain = np.empty((count + 1, *rhos.shape), dtype=complex)
    chain[0] = rhos
    values, vectors = np.empty((count, len(rhos), 4)), np.empty((count, *rhos.shape), dtype=complex)
    made = _descending(values, vectors)
    # each round's input decomposition, the window's and then the window's own but the last, as the weights and kets
    # the round broadcasts; the conjugate buffer's views take a ket stack's conjugate and give it as bras, and give a
    # stack's conjugate written there as its conjugate transpose
    weights = [spectra.eigenvalues[..., None, None], *made.eigenvalues[:-1, ..., None, None]]
    kets = [spectra.eigenvectors.swapaxes(-1, -2)[..., :, None], *made.eigenvectors[:-1].swapaxes(-1, -2)[..., :, None]]
    conj_kets, bras, dagger = conj[..., :, None], conj[..., None, :], conj.swapaxes(-1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        for weight, ket, remixed, solved in zip(weights, kets, chain[1:], zip(values, vectors)):
            np.conjugate(ket, out=conj_kets)
            np.multiply(ket, bras, out=clones)
            np.multiply(weight, _channel(scheme, clones, out=clones), out=clones)
            np.add.reduce(clones, axis=1, initial=0.0, out=remixed)
            np.conjugate(remixed, out=conj)
            np.add(remixed, dagger, out=hermitian)
            np.divide(hermitian, 2, out=hermitian)
            _solve("eigh", hermitian, guard=False, out=solved)
        window = list(zip(chain[1:], map(SpectralDecomposition, *made)))
        if _clean(scheme, chain.reshape(-1, 4, 4), len(rhos), made.eigenvalues.reshape(-1, 4)):
            return window
    for inputs, outputs in zip(chain, chain[1:]):
        if (gap := _remix_gap(scheme, inputs, outputs)) > REMIX_TOL:
            raise RuntimeError(f"eigenbasis remixing deviates from the direct channel by {gap:.3e}")
        _check_densities(outputs)
    return window


def _iterate(rhos: np.ndarray, spectra: SpectralDecomposition, scheme: CloneScheme, n: int) -> Iterator[tuple]:
    # iterate over an (N, 4, 4) stack of valid states and its decomposition: yields n + 1 (stack, decomposition) pairs,
    # the rounds in windows of _BLOCK // N of them (one at least), each window checked before its first round is
    # yielded. One workspace serves every round of the call: freed and allocated again per round or per window, a
    # 512-row block's buffers would go back to the system and be faulted in again as zeroed pages
    yield rhos, spectra
    size = max(1, _BLOCK // len(rhos))
    space = np.empty((len(rhos), 4, 4, 4), dtype=complex), np.empty(rhos.shape, complex), np.empty(rhos.shape, complex)
    for start in range(0, n, size):
        window = _window(rhos, spectra, scheme, min(size, n - start), space)
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

