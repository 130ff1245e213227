"""CHSH correlation machinery for two-qubit states.

The CHSH quantity for measurement directions a, a', b, b' is

    B = |E(a,b) - E(a',b) + E(a,b') + E(a',b')|,

with E(a,b) the spin correlation along a on the first qubit and b on the
second.  Local realism bounds B by 2; quantum states reach at most 2 sqrt(2).
B is a contraction of the 3x3 correlation matrix T, and its maximum over all
direction choices has the closed form 2 sqrt(u1 + u2) with u1 >= u2 the two
largest eigenvalues of T^T T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDimensionError, NotHermitianError, NotNormalizedError, OutOfRangeError
from .linalg import HERMITIAN_TOL, PAULIS, _count, _numeric, _solve
from .states import NORM_TOL, _two_qubit_stack

__all__ = [
    "ChshConfig",
    "PLANAR_PI4",
    "bmax",
    "bmax_numeric",
    "chsh_value",
    "correlation_matrix",
]

BMAX_RESTARTS = 64  # random starting direction pairs of bmax_numeric
_BMAX_ITERATIONS = 300
# bmax_numeric looks for a restart repeating itself every _CYCLE_STRIDE iterations, at periods up to _CYCLE_LAGS
_CYCLE_STRIDE = 8
_CYCLE_LAGS = 32

# sigma_i (x) sigma_j observables, shape (3, 3, 4, 4) indexed [i, j]
_PAULI_PAIRS = np.array([[np.kron(a, b) for b in PAULIS] for a in PAULIS])
# row l of each pair has its one nonzero entry P[l, k_l], so tr(rho P) = sum_l rho[k_l, l] P[l, k_l]: per pair the
# flat index 4 k_l + l of the rho entry each term reads and its coefficient, shape (3, 3, 4) over l
_PAIR_COLUMNS = np.abs(_PAULI_PAIRS).argmax(-1)
_PAIR_INDEX = 4 * _PAIR_COLUMNS + np.arange(4)
_PAIR_COEFFICIENTS = np.take_along_axis(_PAULI_PAIRS, _PAIR_COLUMNS[..., None], -1)[..., 0]


def _unit_vector(v: np.ndarray) -> np.ndarray:
    # a read-only copy: a write to the caller's array cannot reach the checked one
    v = np.array(_numeric(v, "measurement direction must be real", real=True), dtype=float)
    v.flags.writeable = False
    if v.shape != (3,):
        raise BadDimensionError(f"measurement direction must be a 3-vector, got shape {v.shape}")
    with np.errstate(over="ignore"):  # a norm past the float maximum reads inf and fails below
        norm = float(np.linalg.norm(v))
    # written as not <=, so a NaN norm fails too
    if not abs(norm - 1.0) <= NORM_TOL:
        raise NotNormalizedError(f"measurement direction must be unit length, got norm {norm:.12g}")
    return v


@dataclass(frozen=True, eq=False)
class ChshConfig:
    """Four unit measurement directions entering the CHSH combination, as read-only copies; equal only to itself."""

    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray

    def __post_init__(self):
        for name in ("a", "a_prime", "b", "b_prime"):
            object.__setattr__(self, name, _unit_vector(getattr(self, name)))


def _correlations(rhos: np.ndarray) -> np.ndarray:
    # unchecked kernel of correlation_matrix: (N, 3, 3), C-ordered (_chsh rounds by T's layout), from an (N, 4, 4)
    # stack. Each trace's four terms, C-ordered by take, are paired as NumPy's pairwise sum paired its 16 products,
    # 12 of them exact zeros; + 0.0 turns a -0.0 sum into the +0.0 a valid density's positive diagonal gave there
    terms = rhos.reshape(len(rhos), 16).take(_PAIR_INDEX, axis=1) * _PAIR_COEFFICIENTS
    values = (terms[..., 0] + terms[..., 1]) + (terms[..., 2] + terms[..., 3])
    complex_entries = np.abs(values.imag) > HERMITIAN_TOL
    if complex_entries.any():
        n, i, j = np.argwhere(complex_entries)[0]
        raise NotHermitianError(f"correlation ({i},{j}) has imaginary part {values[n, i, j].imag:.3e}")
    return values.real + 0.0


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """3x3 matrix of Pauli-pair expectation values tr(rho sigma_i (x) sigma_j)."""
    return _correlations(_two_qubit_stack(rho)[0])[0]


def _chsh(t: np.ndarray, cfg: ChshConfig) -> np.ndarray:
    # (N,) CHSH values from an (N, 3, 3) stack of T; a @ t @ b is (a @ t) @ b, so a @ t and a' @ t are formed once
    at, a_prime_t = cfg.a @ t, cfg.a_prime @ t
    return np.abs(at @ cfg.b - a_prime_t @ cfg.b + at @ cfg.b_prime + a_prime_t @ cfg.b_prime)


def chsh_value(rho: np.ndarray, cfg: ChshConfig) -> float:
    """CHSH quantity B for an explicit set of measurement directions."""
    if not isinstance(cfg, ChshConfig):
        raise OutOfRangeError(f"cfg must be a ChshConfig, got {cfg!r}")
    return float(_chsh(correlation_matrix(rho)[None], cfg)[0])


# coplanar directions at consecutive pi/4 spacing in the x-z plane, ordered b, a, b', a' at angles 0, pi/4,
# pi/2, 3pi/4 from the z axis; this ordering makes the maximally entangled alpha|01> - beta|10> state reach
# 2 sqrt(2). One shared instance: a ChshConfig is frozen and holds read-only copies of its directions
PLANAR_PI4 = ChshConfig(
    a=np.array([np.sqrt(0.5), 0.0, np.sqrt(0.5)]),
    a_prime=np.array([np.sqrt(0.5), 0.0, -np.sqrt(0.5)]),
    b=np.array([0.0, 0.0, 1.0]),
    b_prime=np.array([1.0, 0.0, 0.0]),
)


def _bmax(t: np.ndarray) -> np.ndarray:
    # (N,) closed-form maxima from an (N, 3, 3) stack: one stacked eigvalsh of T^T T
    u = _solve("eigvalsh", t.swapaxes(-1, -2) @ t)
    return 2.0 * np.sqrt(np.maximum(u[:, -1] + u[:, -2], 0.0))


def _x_bmax(t: np.ndarray) -> np.ndarray:
    # _bmax of exactly diagonal T, that of the states the program built: T^T T is then the exact diag(T_ii^2), whose
    # eigvalsh is that diagonal sorted, so the sum of its two largest has _bmax's bits
    u = np.sort(t.diagonal(axis1=1, axis2=2) ** 2)
    return 2.0 * np.sqrt(u[:, 2] + u[:, 1])


def bmax(rho: np.ndarray) -> float:
    """Maximum of the CHSH quantity over all measurement directions.

    Closed form 2 sqrt(u1 + u2) from the two largest eigenvalues of T^T T.
    """
    return float(_bmax(correlation_matrix(rho)[None])[0])


def bmax_numeric(rho: np.ndarray, seed: int = 0) -> float:
    """Maximize the CHSH quantity directly, validating the closed form.

    Writes B = a . T(b + b') + a' . T(b' - b) and alternates between the
    optimal (a, a') for fixed (b, b') and vice versa, from BMAX_RESTARTS
    random starting direction pairs, for 300 iterations.  Deterministic for
    fixed seed, a non-negative integer (not a bool).

    Each restart's (b, b') evolves on its own, row by row in fixed buffers,
    so its value after an iteration depends only on its value before.  Once
    a restart's (b, b') equals, bit for bit, its value some p <= 32
    iterations earlier, it repeats with period p, and its value at iteration
    300 is already in the history.  Every 8 iterations the loop looks for such
    a repeat; when all restarts have one, it stops and takes each restart's
    iteration-300 value from the history, so the result has the same bits as
    all 300 iterations.  A restart that never repeats exactly (a NaN never
    compares equal) runs all 300.
    """
    if not _count(seed):
        raise OutOfRangeError(f"seed must be a non-negative integer, got {seed!r}")
    t = correlation_matrix(rho)
    t_t = t.T
    n = BMAX_RESTARTS
    # b and b' (then a and a') stacked as rows [:n] and [n:], so each half-step is one product;
    # every step writes into buffers made here
    a, s, p, sq = (np.empty((2 * n, 3)) for _ in range(4))
    norms = np.empty((2 * n, 1))
    a_lo, a_hi, s_lo, s_hi = a[:n], a[n:], s[:n], s[n:]
    sq_x, sq_y, sq_z, norm = sq[:, 0], sq[:, 1], sq[:, 2], norms[:, 0]
    # (b, b') of the last _CYCLE_LAGS iterations and the current one: iteration k in slot k % size;
    # the NaN of a slot not yet written never compares equal
    size = _CYCLE_LAGS + 1
    history = np.full((size, 2 * n, 3), np.nan)
    halves = [(b[:n], b[n:]) for b in history]
    # bound per call, not at import, so a patched NumPy function is the one called
    add, subtract, multiply, divide, sqrt, matmul, least = (
        np.add, np.subtract, np.multiply, np.divide, np.sqrt, np.matmul, np.minimum.reduce)

    def unit_rows(rows, out):
        # rows scaled to unit length into out. The norm is np.linalg.norm(rows, axis=1), as add.reduce sums
        # a length-3 axis: left to right. A row of norm <= 1e-15 is divided by inf and comes out zero; the inf
        # divisor is built only when some row needs it, since building it every time cost 5 % of the
        # single-state workload's ops_per_s
        multiply(rows, rows, out=sq)
        add(sq_x, sq_y, out=norm)
        add(norm, sq_z, out=norm)
        sqrt(norm, out=norm)
        divide(rows, norms if least(norm) > 1e-15 else np.where(norms > 1e-15, norms, np.inf), out=out)

    unit_rows(np.random.default_rng(seed).standard_normal((2 * n, 3)), history[0])
    b = history[_BMAX_ITERATIONS % size]  # iteration 300's slot, unless the loop stops early
    for k in range(1, _BMAX_ITERATIONS + 1):
        b_lo, b_hi = halves[(k - 1) % size]
        current = history[k % size]
        add(b_lo, b_hi, out=s_lo)
        subtract(b_hi, b_lo, out=s_hi)
        unit_rows(matmul(s, t_t, out=p), a)
        subtract(a_lo, a_hi, out=s_lo)
        add(a_lo, a_hi, out=s_hi)
        unit_rows(matmul(s, t, out=p), current)
        if k % _CYCLE_STRIDE == 0:
            # [slot, restart]: both rows of the restart equal their value in that slot; an .all(-1) costs more
            equal = history == current
            equal = equal[:, :n] & equal[:, n:]
            equal = equal[..., 0] & equal[..., 1] & equal[..., 2]
            equal[k % size] = False
            if equal.any(0).all():
                # period = lag of the first repeating slot; iteration 300 sits one whole number of periods
                # back, in [k - period, k)
                period = (k - equal.argmax(0)) % size
                slots = (k - period + (_BMAX_ITERATIONS - k) % period) % size
                b = history[np.tile(slots, 2), np.arange(2 * n)]
                break
    add(b[:n], b[n:], out=s_lo)
    subtract(b[n:], b[:n], out=s_hi)
    unit_rows(matmul(s, t_t, out=p), a)  # only for the row norms it leaves in norm
    return float((norm[:n] + norm[n:]).max())
