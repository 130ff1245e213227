"""Each public measure is one validation in front of an unchecked stacked kernel.

The kernels take (N, 4, 4) stacks; a public measure is the N=1 case, and a
stack must give every state the bytes it gets alone.
"""

import itertools
import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entclone import (
    PAULIS,
    PLANAR_PI4,
    REGISTER_SHRINK,
    AlphaSquaredInterval,
    BadDimensionError,
    BadTraceError,
    BellKind,
    CloneScheme,
    NoConvergenceError,
    NotHermitianError,
    NotNormalizedError,
    NotPsdError,
    OutOfRangeError,
    bell_state,
    bmax,
    bmax_numeric,
    chsh_value,
    concurrence,
    correlation_matrix,
    density_from_dict,
    density_from_pure,
    density_to_dict,
    entanglement_interval,
    entanglement_of_formation,
    hermitian_eig,
    iterate,
    ppt_verdict,
    psd_sqrt,
    save_density,
    validate_density,
)
import entclone
from entclone import cli, cloning, linalg, separability, states
from entclone.bell import (
    _BMAX_ITERATIONS,
    _CYCLE_LAGS,
    _CYCLE_STRIDE,
    _PAULI_PAIRS,
    BMAX_RESTARTS,
    _bmax,
    _chsh,
    _correlations,
)
from entclone.cli import _BLOCK, MAX_GRID, _clone_block, main
from entclone.cloning import REMIX_TOL, _channel, _iterate, bell_clone
from entclone.entanglement import _FLIP_SIGNS, NOISE_FLOOR, _concurrence, _eof, _spin_flip
from entclone.linalg import (
    HERMITIAN_TOL,
    PSD_TOL,
    SpectralDecomposition,
    _eigh,
    _eigvalsh,
    _partial_trace,
    _psd_eigh,
    _psd_root,
    _dagger,
    _descending,
    _transpose_second,
)
from entclone.separability import PPT_TOL, _verdict
from entclone.states import TRACE_TOL, _check_densities, _two_qubit_stack

from helpers import count_calls, count_solves, densities, psi_minus, random_density, with_member


def _nine_traces(rho):
    # the correlation matrix as one trace per Pauli pair
    t = np.empty((3, 3))
    for i, a in enumerate(PAULIS):
        for j, b in enumerate(PAULIS):
            t[i, j] = complex(np.trace(rho @ np.kron(a, b))).real
    return t


@settings(max_examples=60, deadline=None)
@given(densities())
def test_public_measures_equal_their_kernels(rho):
    t = correlation_matrix(rho)
    assert t.tobytes() == _nine_traces(rho).tobytes()
    assert t.tobytes() == _correlations(rho[None])[0].tobytes()
    cfg = PLANAR_PI4
    assert chsh_value(rho, cfg) == _chsh(t[None], cfg)[0]
    assert bmax(rho) == _bmax(t[None])[0]
    public, (lambdas, c) = concurrence(rho), _concurrence(rho[None], _psd_eigh(rho[None]))
    assert public.concurrence == c[0]
    assert public.lambdas.tobytes() == lambdas[0].tobytes()
    assert entanglement_of_formation(rho) == _eof(c[0])
    low, entangled = _verdict(rho[None], PPT_TOL)
    verdict = ppt_verdict(rho)
    assert (verdict.min_pt_eigenvalue, verdict.entangled) == (low[0], entangled[0])


def _stacked_kernels(rhos):
    # every stacked kernel on one stack; each value has the stack axis first
    cfg = PLANAR_PI4
    t = _correlations(rhos)
    values, vectors = _eigh(rhos)
    spectra = _psd_eigh(rhos)
    lambdas, c = _concurrence(rhos, spectra)
    low, entangled = _verdict(rhos, PPT_TOL)
    return [
        t, _chsh(t, cfg), _bmax(t), values, vectors, _psd_root(spectra), lambdas, c, low,
        entangled, _transpose_second(rhos), _channel(CloneScheme.LOCAL, rhos),
        _channel(CloneScheme.NONLOCAL, rhos),
    ]


@pytest.mark.parametrize("n", [1, 2, 7, _BLOCK + 3])
@settings(max_examples=10, deadline=None)
@given(st.lists(densities(), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
def test_stacked_kernels_equal_their_n1_calls(n, pool, seed):
    picks = np.random.default_rng(seed).integers(len(pool), size=n)
    rhos = np.array([pool[i] for i in picks])
    stacked = _stacked_kernels(rhos)
    # every row is a pool state, so each N=1 call is made once per pool state and gathered by picks
    alone = [_stacked_kernels(rho[None]) for rho in pool]
    for index, whole in enumerate(stacked):
        assert whole.shape[0] == n
        assert whole.tobytes() == np.concatenate([alone[i][index] for i in picks]).tobytes()


@pytest.mark.parametrize("scheme", [CloneScheme.LOCAL, CloneScheme.NONLOCAL])
@pytest.mark.parametrize("n", [1, 2, 7, _BLOCK + 3])
@settings(max_examples=5, deadline=None)
@given(st.lists(densities(), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
def test_stacked_iterate_equals_its_per_row_calls(scheme, n, pool, seed):
    picks = np.random.default_rng(seed).integers(len(pool), size=n)
    rhos = np.array([pool[i] for i in picks])
    stacks = list(_iterate(rhos, _psd_eigh(rhos), scheme, 3))
    alone = [iterate(rho, scheme, 3) for rho in pool]
    assert len(stacks) == 4
    for step, (stack, _) in enumerate(stacks):
        assert stack.tobytes() == np.array([alone[i][step] for i in picks]).tobytes()


@pytest.mark.parametrize("scheme", list(CloneScheme))
def test_stacked_iterate_equals_its_per_row_calls_on_random_states(scheme):
    # the test above at N = _BLOCK + 3 on a fixed draw of full-rank states. The local channel keeps a k-innermost
    # projector layout in this stack but not for one row, so a remix reducing over that layout paired the four terms
    # in the stack only, which the test above caught on some hypothesis draws and this one catches on every run
    pool = [random_density(np.random.default_rng(200 + k)) for k in range(6)]
    picks = np.random.default_rng(7).integers(len(pool), size=_BLOCK + 3)
    rhos = np.array([pool[i] for i in picks])
    stacks = list(_iterate(rhos, _psd_eigh(rhos), scheme, 3))
    alone = [iterate(rho, scheme, 3) for rho in pool]
    for step, (stack, _) in enumerate(stacks):
        assert stack.tobytes() == np.array([alone[i][step] for i in picks]).tobytes()


@pytest.mark.parametrize("n", [1, 3])
def test_each_iterate_round_makes_one_eigensolve(n, monkeypatch):
    # _iterate is handed its input's decomposition, then each round's density check makes one eigh
    rhos = density_from_pure(bell_state(BellKind.PSI_MINUS, np.linspace(0.0, 1.0, 5)))
    spectra = _psd_eigh(rhos)
    calls = count_solves(monkeypatch)
    assert len(list(_iterate(rhos, spectra, CloneScheme.NONLOCAL, n))) == n + 1
    assert calls == {"eigh": n, "eigvalsh": 0}


_STATE = "{state}"


@pytest.mark.parametrize(
    "argv, solves",
    [
        # the load check, then the PT spectrum, T^T T and the concurrence product
        (["analyze", "--input", _STATE], 4),
        # bmax_numeric checks the state it is handed again, through correlation_matrix
        (["analyze", "--input", _STATE, "--validate-bmax"], 5),
        # the pure input and 4 rounds; the measures of the last round are closed forms of its X entries
        (["sweep", "--scheme", "nonlocal", "--iterations", "3", "--grid", "300"], 5),
        # the singlet and one check per step; the chain's concurrences are closed forms of its X entries
        (["table1", "--steps", "1"], 2),
        (["table1", "--steps", "5"], 6),
    ],
    ids=["analyze", "analyze-validate-bmax", "sweep-iterations-3", "table1-1", "table1-5"],
)
def test_each_checked_state_is_diagonalized_once(argv, solves, tmp_path, monkeypatch):
    path = tmp_path / "state.json"
    save_density(path, random_density(np.random.default_rng(3)))
    calls = count_solves(monkeypatch)
    assert main([str(path) if arg == _STATE else arg for arg in argv]) == 0
    assert sum(calls.values()) == solves


@pytest.mark.parametrize("n", [0, 1, 3])
def test_public_iterate_and_concurrence_diagonalize_each_state_once(n, monkeypatch):
    rho = random_density(np.random.default_rng(4))
    calls = count_solves(monkeypatch)
    iterate(rho, CloneScheme.NONLOCAL, n)
    assert sum(calls.values()) == n + 1
    for measure in (concurrence, entanglement_of_formation):
        calls.update(eigh=0, eigvalsh=0)
        measure(rho)
        # eigh for the density check, eigvalsh for the eigenvalues of sqrt(rho) rho~ sqrt(rho), which need no vectors
        assert calls == {"eigh": 1, "eigvalsh": 1}


@pytest.mark.parametrize("scheme", [scheme.value for scheme in CloneScheme])
def test_each_sweep_block_makes_no_eigensolve(scheme, monkeypatch, capsys):
    # a plain block's density check, concurrence, PT minimum and bmax are closed forms of its X entries
    calls = count_solves(monkeypatch)
    assert main(["sweep", "--scheme", scheme, "--grid", "2001"]) == 0
    assert calls == {"eigh": 0, "eigvalsh": 0}
    assert capsys.readouterr().out.count("\n") == 2002


def _sequential_interval(scheme, tol, entangled=None):
    # entanglement_interval as a plain bisection, one PPT probe per step, the low endpoint and then the high one;
    # entangled(mid) is the verdict at alpha^2 = mid, by default that of an N=1 stack
    if entangled is None:
        def entangled(mid):
            return bool(_verdict(bell_clone(CloneScheme(scheme), np.sqrt([mid])))[1][0])
    ends = []
    for sep, ent in ((0.0, 0.5), (1.0, 0.5)):
        while abs(ent - sep) > tol:
            mid = (sep + ent) / 2
            if mid in (sep, ent):
                low, high = sorted((sep, ent))
                message = f"bisection stalled at alpha^2 bracket [{low!r}, {high!r}], wider than tol {tol:g}"
                raise NoConvergenceError(message)
            if entangled(mid):
                ent = mid
            else:
                sep = mid
        ends.append((sep + ent) / 2)
    return AlphaSquaredInterval(*ends)


def _outcome(interval, scheme, tol):
    # the hex endpoints, or the exact stall message
    try:
        found = interval(scheme, tol)
    except NoConvergenceError as exc:
        return str(exc)
    return found.low.hex(), found.high.hex()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(["pure", "local", "nonlocal"]), st.floats(np.log10(1e-18), np.log10(0.6)).map(lambda e: 10.0**e))
def test_interval_has_the_bits_of_a_sequential_bisection(scheme, tol):
    assert _outcome(entanglement_interval, scheme, tol) == _outcome(_sequential_interval, scheme, tol)


_STACKS = [("pure", 0.1, 1), ("pure", 1e-8, 2), ("pure", 1e-14, 2), ("local", 0.1, 1), ("local", 1e-8, 2),
           ("local", 1e-14, 2), ("nonlocal", 0.1, 1), ("nonlocal", 1e-8, 2), ("nonlocal", 1e-14, 2)]


# ids of scheme and tol only, so that a moved stack count changes an assertion and not a test name
@pytest.mark.parametrize("scheme, tol, stacks", _STACKS, ids=[f"{scheme}-{tol}" for scheme, tol, _ in _STACKS])
def test_interval_bisects_both_endpoints_in_one_stack(scheme, tol, stacks, monkeypatch):
    # each stacked PPT solve holds both endpoints' points, the first each bracket cut into 16 steps, ends included;
    # each PT margin is affine in alpha beta near its root, so regula falsi through the ends of the walked bracket
    # lands there and the second stack's paths run down to tol
    calls = count_solves(monkeypatch)
    entanglement_interval(scheme, tol)
    assert calls == {"eigh": 0, "eigvalsh": stacks}


def test_interval_guess_keeps_a_root_next_to_zero(monkeypatch):
    # pure's low root is alpha beta = PPT_TOL, alpha^2 about 1e-20, which 1/2 - sqrt(1/4 - u^2) rounds to 0: mapped
    # back that way the guess made 17 stacks; the high endpoint stalls next to 1
    calls = count_solves(monkeypatch)
    with pytest.raises(NoConvergenceError) as raised:
        entanglement_interval("pure", 1e-30)
    assert str(raised.value) == "bisection stalled at alpha^2 bracket [0.9999999999999999, 1.0], wider than tol 1e-30"
    assert calls == {"eigh": 0, "eigvalsh": 2}


def test_interval_guess_is_the_bracket_middle_when_the_end_margins_share_a_sign():
    # only contrived verdicts give such ends; the middle keeps math.sqrt's argument non-negative for any of them
    for ends, margins in (([0.0, 0.5], (1.0, 2.0)), ([1.0, 0.5], (-1.0, -3.0)), ([0.25, 0.375], (0.0, -0.0))):
        assert separability._guess(ends, dict(zip(ends, margins))) == (ends[0] + ends[1]) / 2


@pytest.mark.parametrize("scheme", [scheme.value for scheme in CloneScheme])
def test_interval_guess_lies_inside_the_first_walked_bracket(scheme, monkeypatch):
    # the real margins at the ends each endpoint walks to through the first stack give a guess inside them
    brackets = []

    def recording_path(ends, samples, tol):
        if samples:
            brackets.append((list(ends), dict(samples)))
        return separability_path(ends, samples, tol)

    separability_path = separability._path
    monkeypatch.setattr(separability, "_path", recording_path)
    entanglement_interval(scheme, 1e-14)
    assert [ends[0] < 0.5 for ends, _ in brackets[:2]] == [True, False]
    for ends, samples in brackets[:2]:
        guess = separability._guess(ends, samples)
        if scheme == "pure" and ends[0] == 1.0:
            # pure's high root, 1 - alpha^2 about 1e-20, rounds onto the bracket's end
            assert guess == 1.0
        else:
            assert min(ends) < guess < max(ends)


def test_interval_takes_at_most_four_stacks_at_any_tolerance(monkeypatch):
    # 40 log-spaced tolerances down to the smallest subnormal, most of them ending in a stall
    calls = count_solves(monkeypatch)
    for scheme in ("pure", "local", "nonlocal"):
        for tol in np.logspace(np.log10(5e-324), np.log10(0.6), 40).tolist():
            expected = _outcome(_sequential_interval, scheme, tol)
            calls.update(eigvalsh=0)
            assert _outcome(entanglement_interval, scheme, tol) == expected
            assert calls["eigvalsh"] <= 4, (scheme, tol)


def test_interval_stacks_over_the_bench_tolerances(monkeypatch):
    # the 17 tolerances of the single-state benchmark's interval ops (1e-14, 3e-14, ..., 3e-7, 1e-6), local and
    # non-local; with paths run down to tol they took 146 stacks and 6910 clones, and with
    # Neville-guessed paths cut at a tenth of the guess's error 106 and 3206
    calls, clones, verdict = count_solves(monkeypatch), [], separability._verdict
    monkeypatch.setattr(separability, "_verdict", lambda rhos, *args: clones.append(len(rhos)) or verdict(rhos, *args))
    for scheme in ("local", "nonlocal"):
        for tol in [float(f"{m}e-{e}") for e in range(14, 6, -1) for m in (1, 3)] + [1e-6]:
            entanglement_interval(scheme, tol)
    assert calls == {"eigh": 0, "eigvalsh": 68}
    assert (len(clones), sum(clones)) == (68, 3104)


@pytest.mark.parametrize("tol", [0.3, 0.1, 1e-6, 1e-14])
def test_interval_progresses_when_every_prediction_is_wrong(tol, monkeypatch):
    # a verdict contradicting each prediction a path makes: past the first stack's grid the walk settles one level
    # per stack, the bracket of a sequential bisection under the same verdicts; a guess is the bracket middle when
    # the margins at the bracket's ends share a sign, and else regula falsi between them
    paths, verdicts, stacks = [], {}, []

    def recording_path(ends, samples, tol):
        path = separability_path(ends, samples, tol)
        paths.append((ends[0] < ends[1], path))
        return path

    def contrary(rhos, tol=PPT_TOL):
        flags = []
        for rising, path in paths:
            # a path predicts mid entangled when its next midpoint lies on the separable side of mid; the first
            # stack's grid predicts nothing, and its points get the flags this rule gives their order
            flags += [(after < mid) != rising for mid, after in zip(path, path[1:])] + [False]
            verdicts.update(zip(path, flags[-len(path):]))
        paths.clear()
        stacks.append(len(flags))
        assert len(stacks) < 64, "the walk stopped settling bisection levels"
        flags = np.array(flags)
        return np.where(flags, -1.0, 1.0), flags

    separability_path = separability._path
    monkeypatch.setattr(separability, "_path", recording_path)
    monkeypatch.setattr(separability, "_verdict", contrary)
    interval, probes = entanglement_interval("local", tol), []

    def recorded(mid):
        probes.append(mid)
        return verdicts[mid]

    expected = _sequential_interval("local", tol, recorded)
    assert (interval.low.hex(), interval.high.hex()) == (expected.low.hex(), expected.high.hex())
    assert len(stacks) <= max(sum(mid < 0.5 for mid in probes), sum(mid > 0.5 for mid in probes))


def test_stacked_remix_check_is_live(monkeypatch):
    monkeypatch.setattr(cloning, "REMIX_TOL", -1.0)
    with pytest.raises(RuntimeError, match="eigenbasis remixing"):
        iterate(np.eye(4) / 4, CloneScheme.NONLOCAL, 1)
    with pytest.raises(RuntimeError, match="eigenbasis remixing"):
        _clone_block(CloneScheme.NONLOCAL, 1, [0.0, 0.6, 1.0])


# sigma_y (x) sigma_y, the matrix the spin flip was computed with
_SIGMA_YY = np.kron(PAULIS[1], PAULIS[1]).real.astype(complex)


def test_index_arithmetic_equals_the_matrix_products_it_replaced():
    # T and the spin flip were matrix products; their kernels must give the same bytes, zero signs
    # included, on random states and on Bell-clone stacks full of exact zeros
    rng = np.random.default_rng(5)
    alphas = np.linspace(0.0, 1.0, _BLOCK + 3)
    stacks = [np.array([random_density(rng) for _ in alphas]), _clone_block(CloneScheme.NONLOCAL, 2, alphas)]
    stacks += [bell_clone(scheme, alphas) for scheme in CloneScheme]
    for rhos in stacks:
        traces = np.trace(rhos[:, None, None] @ _PAULI_PAIRS, axis1=-2, axis2=-1)
        assert _correlations(rhos).tobytes() == traces.real.tobytes()
        assert _spin_flip(rhos).tobytes() == (_SIGMA_YY @ rhos.conj() @ _SIGMA_YY).tobytes()


def test_concurrence_of_a_reused_decomposition_equals_a_fresh_solve():
    # _concurrence takes the decomposition a density check made: of a whole stack in an iterate
    # round, or of one state at a time and concatenated; both must give the bytes
    # of diagonalizing the stack again
    rng = np.random.default_rng(8)
    alphas = np.linspace(0.0, 1.0, _BLOCK + 3)
    stacks = [np.array([random_density(rng) for _ in alphas])] + [bell_clone(scheme, alphas) for scheme in CloneScheme]
    for rhos in stacks:
        *_, (last, spectra) = _iterate(rhos, _psd_eigh(rhos), CloneScheme.NONLOCAL, 2)
        rows = [_two_qubit_stack(rho) for rho in rhos]
        concatenated = SpectralDecomposition(*(np.concatenate(parts) for parts in zip(*(s for _, s in rows))))
        for states, reused in ((last, spectra), (rhos, concatenated)):
            fresh = _concurrence(states, _psd_eigh(states))
            for got, expected in zip(_concurrence(states, reused), fresh):
                assert got.tobytes() == expected.tobytes()


def _broadcast_local_channel(rhos):
    # the LOCAL _channel as it ran before its slice assignment: rho_a (x) I and I (x) rho_b as broadcast products with
    # the 2x2 identity, the products np.kron forms
    rho_a = _partial_trace(rhos, (2, 2), "first")
    rho_b = _partial_trace(rhos, (2, 2), "second")
    eye2 = np.eye(2)
    a_eye = (rho_a[..., :, None, :, None] * eye2[:, None, :]).reshape(rhos.shape)
    eye_b = (eye2[:, None, :, None] * rho_b[..., None, :, None, :]).reshape(rhos.shape)
    return (4.0 / 9.0) * rhos + (1.0 / 9.0) * a_eye + (1.0 / 9.0) * eye_b + np.eye(4) / 36.0


def _allocating_apply(scheme, rho):
    # _channel as it built its identity terms on every call
    if scheme is CloneScheme.PURE:
        return rho
    if scheme is CloneScheme.NONLOCAL:
        return REGISTER_SHRINK * rho + (1.0 - REGISTER_SHRINK) * np.eye(4) / 4
    return _broadcast_local_channel(rho)


def _two_dagger_check(m):
    # _check_densities as it ran before: the finite check up front, dagger formed twice in _eigh,
    # and the trace check as np.trace and a boolean mask
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(m).all():
            raise ValueError("matrix has non-finite entries")
        defect = float(np.abs(m - _dagger(m)).max())
        if defect > HERMITIAN_TOL:
            raise NotHermitianError(f"not Hermitian: max |m - m^dagger| = {defect:.3e}")
        values, vectors = np.linalg.eigh((m + _dagger(m)) / 2)
    values, vectors = values[..., ::-1].copy(), vectors[..., ::-1].copy()
    if float(values.min()) < -PSD_TOL:
        raise NotPsdError(f"not positive semidefinite: min eigenvalue = {float(values.min()):.3e}")
    traces = np.trace(m, axis1=-2, axis2=-1)
    off = np.abs(traces - 1.0) > TRACE_TOL
    if off.any():
        raise BadTraceError(f"trace must be 1, got {traces[off].flat[0].real:.12g}")
    return SpectralDecomposition(values, vectors)


def _allocating_iterate(rhos, scheme, n):
    # the iterate round as it ran before: the remix summed by four allocating additions onto zeros
    spectra = _two_dagger_check(rhos)
    yield rhos, spectra
    for _ in range(n):
        weights, vectors = spectra
        kets = vectors.swapaxes(-1, -2)
        clones = _allocating_apply(scheme, kets[..., :, None] * kets.conj()[..., None, :])
        remixed = np.zeros_like(rhos)
        for k in range(4):
            remixed = remixed + weights[:, k, None, None] * clones[:, k]
        assert np.abs(remixed - _allocating_apply(scheme, rhos)).max() <= REMIX_TOL
        rhos, spectra = remixed, _two_dagger_check(remixed)
        yield rhos, spectra


_ROUND_INPUTS = {
    "grid": (lambda: psi_minus(np.linspace(0.0, 1.0, _BLOCK + 3)), 3),
    # the table1 chain: the singlet alone, 64 rounds
    "singlet-chain": (lambda: psi_minus(np.sqrt([0.5])), 64),
    "random-full-rank": (lambda: np.array([random_density(np.random.default_rng(90 + k)) for k in range(40)]), 5),
}


@pytest.mark.parametrize("scheme", list(CloneScheme))
@pytest.mark.parametrize("name", list(_ROUND_INPUTS))
def test_iterate_round_equals_the_allocating_round(scheme, name):
    build, n = _ROUND_INPUTS[name]
    rhos = build()
    rounds = list(_iterate(rhos, _psd_eigh(rhos), scheme, n))
    expected = list(_allocating_iterate(rhos, scheme, n))
    assert len(rounds) == len(expected) == n + 1
    for (stack, (values, vectors)), (stack0, (values0, vectors0)) in zip(rounds, expected):
        assert stack.tobytes() == stack0.tobytes()
        assert values.tobytes() == values0.tobytes()
        assert vectors.tobytes() == vectors0.tobytes()


def test_the_remix_sums_from_positive_zero():
    # a decomposition of diag(0.4, 0.3, 0.2, 0.1) whose signed zeros make entry (0, 1) of all four
    # weighted projectors -0.0: a sum from +0.0 leaves +0.0 there, a sum from the first term -0.0
    weights = np.array([0.4, 0.3, 0.2, 0.1])
    vectors = np.eye(4, dtype=complex)
    vectors[1, 0] = vectors[0, 1] = complex(-0.0, -0.0)
    vectors[0, 2:] = complex(-0.0, 0.0)
    vectors[1, 2:] = complex(0.0, -0.0)
    kets = vectors.T
    terms = weights[:, None, None] * (kets[:, :, None] * kets.conj()[:, None, :])
    assert (terms[:, 0, 1] == 0.0).all() and np.signbit(terms[:, 0, 1].real).all()
    expected = np.zeros((4, 4), dtype=complex)
    for term in terms:
        expected = expected + term
    rhos = np.diag(weights).astype(complex)[None]
    _, (remixed, _) = _iterate(rhos, SpectralDecomposition(weights[None], vectors[None]), CloneScheme.PURE, 1)
    assert remixed[0].tobytes() == expected.tobytes()


def _copied(decomposition):
    # a decomposition as _eigh returned it before its descending views: C-ordered copies of them
    return SpectralDecomposition(*(part.copy() for part in decomposition))


def _strided_iterate(rhos, scheme, n):
    # the iterate round as it ran before the C-ordered clone stack: the projectors laid out with k innermost, the
    # remix summed by += in k order after a + 0.0, and each decomposition copied out of eigh
    spectra = _copied(_check_densities(rhos))
    yield rhos, spectra
    for _ in range(n):
        weights, vectors = spectra
        kets = vectors.swapaxes(-1, -2)
        projectors = kets[..., :, None] * kets.conj()[..., None, :]
        assert projectors.strides[1:] == (16, 256, 64)
        clones = _channel(scheme, projectors)
        np.multiply(weights[:, :, None, None], clones, out=clones)
        remixed = clones[:, 0] + 0.0
        for k in range(1, 4):
            remixed += clones[:, k]
        assert np.abs(remixed - _channel(scheme, rhos)).max() <= REMIX_TOL
        rhos, spectra = remixed, _copied(_check_densities(remixed))
        yield rhos, spectra


def _random_full_rank(n):
    return np.array([random_density(np.random.default_rng(300 + k)) for k in range(n)])


_STRIDED_ROUND_INPUTS = {
    **{f"grid-{n}": (lambda n=n: psi_minus(np.linspace(0.0, 1.0, n)), 3) for n in (1, 2, 7, _BLOCK + 3)},
    **{f"random-full-rank-{n}": (lambda n=n: _random_full_rank(n), 5) for n in (1, 2, 7, 40, _BLOCK + 3)},
    # the table1 chain: the singlet alone, 64 rounds
    "singlet-chain": (lambda: psi_minus(np.sqrt([0.5])), 64),
}


@pytest.mark.parametrize("scheme", list(CloneScheme))
@pytest.mark.parametrize("name", list(_STRIDED_ROUND_INPUTS))
def test_iterate_round_equals_the_strided_round(scheme, name):
    build, n = _STRIDED_ROUND_INPUTS[name]
    rhos = build()
    rounds = list(_iterate(rhos, _psd_eigh(rhos), scheme, n))
    expected = list(_strided_iterate(rhos, scheme, n))
    assert len(rounds) == len(expected) == n + 1
    for (stack, (values, vectors)), (stack0, (values0, vectors0)) in zip(rounds, expected):
        assert stack.tobytes() == stack0.tobytes()
        assert values.tobytes() == values0.tobytes()
        assert vectors.tobytes() == vectors0.tobytes()


def _per_round_iterate(rhos, spectra, scheme, n):
    # the iterate round as it ran before its checks moved to windows: the remix gap, then the density check, after
    # every round and before it is yielded. Its clones and direct channel go through cloning._channel as that module
    # looks it up, so a fault put there reaches this and _iterate alike
    yield rhos, spectra
    for _ in range(n):
        weights, vectors = spectra
        kets = vectors.swapaxes(-1, -2)
        clones = cloning._channel(scheme, np.multiply(kets[..., :, None], kets.conj()[..., None, :], order="C"))
        np.multiply(weights[:, :, None, None], clones, out=clones)
        remixed = np.add.reduce(clones, axis=1, initial=0.0)
        gap = float(np.abs(remixed - cloning._channel(scheme, rhos)).max())
        if gap > REMIX_TOL:
            raise RuntimeError(f"eigenbasis remixing deviates from the direct channel by {gap:.3e}")
        rhos, spectra = remixed, _check_densities(remixed)
        yield rhos, spectra


def _window_rounds(n):
    # the rounds of one iterate window over n rows
    return max(1, _BLOCK // n)


_WINDOW_CHAINS = {
    # one row and three rows cross window boundaries (512 and 170 rounds), 200 rows make windows of two rounds and
    # _BLOCK + 3 rows windows of one
    "random-full-rank-1": (lambda: _random_full_rank(1), 2 * _window_rounds(1) + 3),
    "random-full-rank-3": (lambda: _random_full_rank(3), 2 * _window_rounds(3) + 1),
    "grid-200": (lambda: psi_minus(np.linspace(0.0, 1.0, 200)), 7),
    "grid-block": (lambda: psi_minus(np.linspace(0.0, 1.0, _BLOCK + 3)), 2),
    # the table1 chain at its longest
    "singlet-chain": (lambda: psi_minus(np.sqrt([0.5])), 100),
}


@pytest.mark.parametrize("scheme", list(CloneScheme))
@pytest.mark.parametrize("name", list(_WINDOW_CHAINS))
def test_windowed_iterate_equals_the_per_round_iterate(scheme, name):
    build, n = _WINDOW_CHAINS[name]
    rhos = build()
    rounds = list(_iterate(rhos, _psd_eigh(rhos), scheme, n))
    expected = list(_per_round_iterate(rhos, _psd_eigh(rhos), scheme, n))
    assert len(rounds) == len(expected) == n + 1
    for (stack, (values, vectors)), (stack0, (values0, vectors0)) in zip(rounds, expected):
        assert stack.tobytes() == stack0.tobytes()
        assert values.tobytes() == values0.tobytes()
        assert vectors.tobytes() == vectors0.tobytes()


class _Fault:
    # true for the k-th input it is shown and then for every input equal to that one, so a round made again from the
    # same state fails again, as a fault that belongs to the state would
    def __init__(self, k):
        self.k, self.seen, self.key = k, 0, None

    def __call__(self, data):
        self.seen += 1
        if self.seen == self.k:
            self.key = data.tobytes()
        return self.key is not None and data.tobytes() == self.key


def _fault_clones(clones, kind, row):
    # the same change, in place, to the four clones of one row, so the remix carries it into that row's state.
    # REMIX_TOL, HERMITIAN_TOL and TRACE_TOL are all 1e-10: a defect of 1.5e-10 and a trace off by 3e-10 each come with
    # a gap of 0.75e-10, which passes the remix check first
    faulted = clones[row]
    if kind == "gap":
        faulted[:, 0, 0] += 10 * REMIX_TOL
    elif kind == "nan":
        faulted[:, 0, 1] = np.nan
    elif kind == "hermitian":
        faulted[:, 0, 1] += 0.75 * HERMITIAN_TOL
        faulted[:, 1, 0] -= 0.75 * HERMITIAN_TOL
    else:
        faulted[:, range(4), range(4)] += 0.75 * TRACE_TOL
    return clones


# each fault, the error a round that holds it raises, and the start of its message
_FAULT_KINDS = {
    "gap": (RuntimeError, "eigenbasis remixing deviates from the direct channel by 1.000e-09"),
    "nan": (ValueError, "matrix has non-finite entries"),
    "hermitian": (NotHermitianError, "not Hermitian: max |m - m^dagger| = 1.500e-10"),
    "psd": (NotPsdError, "not positive semidefinite: min eigenvalue = -1.000e-09"),
    "trace": (BadTraceError, "trace must be 1, got 1.0000000003"),
    "linalg": (NoConvergenceError, "Eigenvalues did not converge"),
    "nonconvergence": (NoConvergenceError, "Eigenvalues did not converge"),
}


def _run_with_fault(monkeypatch, rounds, kind, k, row):
    # the pairs rounds() yields and the error it raises, with the fault put into the k-th round: the clones of its
    # remix, or its eigensolve (an eigenvalue of row moved below -PSD_TOL, NoConvergenceError, or the gufunc's own
    # failure on a NaN row: NaN values and vectors under the window's errstate, NoConvergenceError under _solve's guard)
    # Both seams write into the out they are given, and the fault is judged on the input before the channel overwrites
    # it
    fault = _Fault(k)
    channel, eigh = cloning._channel, linalg._SOLVERS["eigh"]

    def faulty_channel(scheme, rhos, out=None):
        hit = rhos.ndim == 4 and fault(rhos)
        out = channel(scheme, rhos, out=out)
        return _fault_clones(out, kind, row) if hit else out

    def faulty_eigh(m, *out):
        hit = fault(m)
        if hit and kind == "linalg":
            raise NoConvergenceError("Eigenvalues did not converge")
        if hit and kind == "nonconvergence":
            m = m.copy()
            m[row] = np.nan
        values, vectors = eigh(m, *out)
        if hit and kind == "psd":
            values[row, 0] = -10 * PSD_TOL
        return values, vectors

    yielded = []
    with monkeypatch.context() as patch:
        if kind in ("psd", "linalg", "nonconvergence"):
            patch.setitem(linalg._SOLVERS, "eigh", faulty_eigh)
        else:
            patch.setattr(cloning, "_channel", faulty_channel)
        with pytest.raises((ValueError, RuntimeError)) as raised:
            for pair in rounds():
                yielded.append(pair)
    return yielded, raised.value


# rows, and the window (0 the first) that holds the fault: the second where windows are short, so one clean window
# is yielded before it
_FAULT_WINDOWS = [(1, 0), (3, 0), (200, 1), (_BLOCK, 1)]


@pytest.mark.parametrize("scheme", [CloneScheme.NONLOCAL, CloneScheme.PURE])
@pytest.mark.parametrize("n, window", _FAULT_WINDOWS, ids=[str(n) for n, _ in _FAULT_WINDOWS])
@pytest.mark.parametrize("kind", list(_FAULT_KINDS))
def test_a_failing_window_raises_what_its_first_failing_round_raises(kind, n, window, scheme, monkeypatch):
    # the fault in the first, a middle and the last round of a window. The per-round iterate raises from that round,
    # after yielding every round before it; the windowed one raises the same, and yields no round of the failing
    # window. (A non-local chain reaches a fixed point within about 80 rounds, after which the fault's input recurs
    # in every round and the windowed iterate may fail from an earlier round of the window with the same input and
    # error; the pure channel's chain never repeats a state, so there each round fails alone)
    size = _window_rounds(n)
    start, rounds = window * size, (window + 1) * size + 1
    rhos = _random_full_rank(n)
    spectra = _psd_eigh(rhos)
    kind_error, message = _FAULT_KINDS[kind]
    for k in sorted({start + 1, start + (size + 1) // 2, start + size}):
        expected, error0 = _run_with_fault(
            monkeypatch, lambda: _per_round_iterate(rhos, spectra, scheme, rounds), kind, k, n // 2)
        got, error = _run_with_fault(monkeypatch, lambda: _iterate(rhos, spectra, scheme, rounds), kind, k, n // 2)
        assert type(error0) is kind_error and str(error0).startswith(message)
        assert type(error) is kind_error and str(error) == str(error0)
        assert len(expected) == k
        assert len(got) == 1 + start
        for (stack, (values, vectors)), (stack0, (values0, vectors0)) in zip(got, expected):
            assert stack.tobytes() == stack0.tobytes()
            assert values.tobytes() == values0.tobytes()
            assert vectors.tobytes() == vectors0.tobytes()


def test_the_window_check_fails_on_a_nan_anywhere():
    # each test is x <= tol, so a NaN fails it, even one a single round's check lets through (a NaN eigenvalue of a
    # finite state passes the PSD floor) or one it never meets (the window's input is checked already); else the
    # NaN in a stacked max or min would hide a failing round of the window
    rhos = _random_full_rank(3)
    window = list(_iterate(rhos, _psd_eigh(rhos), CloneScheme.NONLOCAL, 4))[1:]
    chain = np.concatenate([rhos, *(stack for stack, _ in window)])
    values = np.concatenate([part.eigenvalues for _, part in window])
    assert cloning._clean(CloneScheme.NONLOCAL, chain, 3, values)
    for where in ((0, 0, 0), (5, 1, 2), (-1, 3, 3)):
        faulted = chain.copy()
        faulted[where] = np.nan
        assert not cloning._clean(CloneScheme.NONLOCAL, faulted, 3, values)
    for where in ((0, 0), (7, 3)):
        faulted = values.copy()
        faulted[where] = np.nan
        assert not cloning._clean(CloneScheme.NONLOCAL, chain, 3, faulted)


def _counting_channel(monkeypatch):
    # the clone stacks cloning._channel is handed, one (N, 4, 4, 4) stack per round made; the remix gap's direct
    # channel takes (N, 4, 4) stacks and is not counted
    made = []
    channel = cloning._channel

    def counting(scheme, rhos, out=None):
        if rhos.ndim == 4:
            made.append(len(rhos))
        return channel(scheme, rhos, out=out)

    monkeypatch.setattr(cloning, "_channel", counting)
    return made


@pytest.mark.parametrize("n, window", [(1, 0), (200, 1)], ids=["1", "200"])
@pytest.mark.parametrize("kind", ["gap", "psd", "linalg", "nonconvergence"])
def test_a_failing_window_makes_each_round_once(kind, n, window, monkeypatch):
    # the fault in a middle round of a window: the window's rounds are checked from the states made, none is made
    # again. A solve that raises ends the window at its round, so the rounds after it are never made; one that fails
    # as the unguarded gufunc does leaves NaN rows and raises nothing, so the window runs to its end
    size = _window_rounds(n)
    start, rounds = window * size, (window + 1) * size + 1
    k = start + (size + 1) // 2
    rhos = _random_full_rank(n)
    spectra = _psd_eigh(rhos)
    made = _counting_channel(monkeypatch)
    _, error = _run_with_fault(
        monkeypatch, lambda: _iterate(rhos, spectra, CloneScheme.NONLOCAL, rounds), kind, k, n // 2)
    assert type(error) is _FAULT_KINDS[kind][0]
    assert made == [n] * (k if kind == "linalg" else start + size)


@pytest.mark.parametrize("n, window", [(1, 0), (200, 1)], ids=["1", "200"])
def test_a_window_whose_solve_raised_is_never_yielded_short(n, window, monkeypatch):
    # a solve that fails once and would succeed on the same bytes: the window raises the solver's error from that
    # round, yielding none of its rounds
    size = _window_rounds(n)
    start, rounds = window * size, (window + 1) * size + 1
    k = start + (size + 1) // 2
    rhos = _random_full_rank(n)
    spectra = _psd_eigh(rhos)
    eigh, calls = linalg._SOLVERS["eigh"], []

    def once(m, *out):
        calls.append(m)
        if len(calls) == k:
            raise NoConvergenceError("Eigenvalues did not converge")
        return eigh(m, *out)

    monkeypatch.setitem(linalg._SOLVERS, "eigh", once)
    yielded = []
    with pytest.raises(NoConvergenceError, match="^Eigenvalues did not converge$") as raised:
        for pair in _iterate(rhos, spectra, CloneScheme.NONLOCAL, rounds):
            yielded.append(pair)
    assert len(yielded) == 1 + start


def _record_checks(monkeypatch):
    # the stacks and eigenvalues each window check is handed, copied, in call order
    checked = []
    clean = cloning._clean

    def recording(scheme, chain, n, values):
        checked.append((chain[n:].copy(), values.copy()))
        return clean(scheme, chain, n, values)

    monkeypatch.setattr(cloning, "_clean", recording)
    return checked


@pytest.mark.parametrize("n", [1, 8, 200, _BLOCK + 1])
def test_every_round_iterate_yields_was_checked_before_it_was_yielded(n, monkeypatch):
    checked = _record_checks(monkeypatch)
    rhos = _random_full_rank(n)
    rounds = _iterate(rhos, _psd_eigh(rhos), CloneScheme.NONLOCAL, 2 * _window_rounds(n) + 1)
    assert next(rounds)[0] is rhos
    seen, read, count = set(), 0, 0
    for stack, (values, _) in rounds:
        # each round the checks have been handed so far, as the bytes of its states and of their eigenvalues
        for outputs, eigenvalues in checked[read:]:
            seen.update(zip((part.tobytes() for part in outputs.reshape(-1, n, 4, 4)),
                            (part.tobytes() for part in eigenvalues.reshape(-1, n, 4))))
        read = len(checked)
        assert (stack.tobytes(), values.tobytes()) in seen
        count += 1
    assert count == 2 * _window_rounds(n) + 1


@pytest.mark.parametrize("n", [1, 8, 200, _BLOCK, _BLOCK + 1])
def test_no_iterate_window_holds_more_than_a_block(n, monkeypatch):
    # a window takes as many rounds as fit in _BLOCK matrices, one at least, and the chain's rest in a last window
    checked = _record_checks(monkeypatch)
    rhos = _random_full_rank(n)
    size = _window_rounds(n)
    list(_iterate(rhos, _psd_eigh(rhos), CloneScheme.NONLOCAL, 2 * size + 1))
    held = [len(outputs) for outputs, _ in checked]
    assert max(held) <= max(_BLOCK, n)
    assert held == [size * n, size * n, n]


@pytest.mark.parametrize("scheme", [CloneScheme.NONLOCAL, CloneScheme.LOCAL])
@pytest.mark.parametrize("n", [1, 200, _BLOCK])
def test_no_round_iterate_yields_is_overwritten(n, scheme):
    # every round of one call is made through the same workspace, but each yielded stack and decomposition lives in
    # its window's own arrays: held to the end, each keeps the bytes it was yielded with, and no two windows share them
    rhos = _random_full_rank(n)
    size = _window_rounds(n)
    held, bytes_at_yield = [], []
    for stack, spectra in _iterate(rhos, _psd_eigh(rhos), scheme, 2 * size + 1):
        held.append((stack, *spectra))
        bytes_at_yield.append([part.tobytes() for part in held[-1]])
    assert len(held) == 2 * size + 2
    assert [[part.tobytes() for part in pair] for pair in held] == bytes_at_yield
    # rounds 1 to size are the first window, then size more, then the last round alone
    windows = [held[1:1 + size], held[1 + size:1 + 2 * size], held[1 + 2 * size:]]
    for first, second in itertools.combinations(windows, 2):
        for pair in (first[0], first[-1]):
            for other in (second[0], second[-1]):
                assert not any(np.shares_memory(a, b) for a in pair for b in other)


def test_every_round_of_an_iterate_call_gets_one_clone_buffer(monkeypatch):
    # the clone stack each round hands cloning._channel as out is the _iterate call's workspace, one buffer over all
    # of its windows; the remix check's direct channel writes no buffer. Each call, its buffer held, gets its own
    given = []
    channel = cloning._channel

    def recording(scheme, rhos, out=None):
        given.append((rhos.ndim, out))
        return channel(scheme, rhos, out=out)

    monkeypatch.setattr(cloning, "_channel", recording)
    buffers = []
    for n in (1, 200, 200):
        rhos = _random_full_rank(n)
        size = _window_rounds(n)
        given.clear()
        rounds = list(_iterate(rhos, _psd_eigh(rhos), CloneScheme.NONLOCAL, 2 * size + 1))
        assert len(rounds) == 2 * size + 2
        clones = [out for ndim, out in given if ndim == 4]
        assert len(clones) == 2 * size + 1
        assert all(out is clones[0] for out in clones)
        assert clones[0].shape == (n, 4, 4, 4)
        assert [out for ndim, out in given if ndim == 3] == [None] * 3
        buffers.append(clones[0])
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(buffers, 2))


def _product_correlations(rhos):
    # _correlations as it ran before the gather: the whole (N, 3, 3, 4, 4) product of rho and P^T, summed
    values = (rhos[:, None, None] * _PAULI_PAIRS.swapaxes(-1, -2)).sum((-2, -1))
    assert np.abs(values.imag).max() <= HERMITIAN_TOL
    return values.real.copy()


def _allocating_spin_flip(rhos):
    # _spin_flip as it ran before it wrote into one buffer: a conjugated copy, a signed one and a third for + 0.0
    return _FLIP_SIGNS * rhos.conj()[..., ::-1, ::-1] + 0.0


def _assert_measurement_kernels_equal_their_references(rhos):
    t, t0 = _correlations(rhos), _product_correlations(rhos)
    assert t.tobytes() == t0.tobytes()
    # the products of _chsh and _bmax round by the layout of T, so T keeps the C order of the reference's copy
    assert t.flags.c_contiguous
    assert _chsh(t, PLANAR_PI4).tobytes() == _chsh(t0, PLANAR_PI4).tobytes()
    assert _bmax(t).tobytes() == _bmax(t0).tobytes()
    assert _spin_flip(rhos).tobytes() == _allocating_spin_flip(rhos).tobytes()
    assert _channel(CloneScheme.LOCAL, rhos).tobytes() == _broadcast_local_channel(rhos).tobytes()


def _with_json_zero_signs(rhos, seed):
    # each state through a JSON payload whose zero entries each carry a random sign, as a state file can hold them
    rng, loaded = np.random.default_rng(seed), []
    for rho in rhos:
        data = density_to_dict(rho)
        for part in ("re", "im"):
            data[part] = [[-0.0 if x == 0.0 and rng.random() < 0.5 else x for x in row] for row in data[part]]
        loaded.append(density_from_dict(json.loads(json.dumps(data))))
    return np.array(loaded)


def _bell_grid(scheme, n):
    return bell_clone(scheme, np.linspace(0.0, 1.0, n))


_MEASUREMENT_INPUTS = {
    **{f"{scheme.value}-grid-{n}": (lambda scheme=scheme, n=n: _bell_grid(scheme, n))
       for scheme in CloneScheme for n in (1, 2, 7, _BLOCK + 3)},
    **{f"random-full-rank-{n}": (lambda n=n: _random_full_rank(n)) for n in (1, 2, 7, 40)},
    **{f"{scheme.value}-grid-json-zero-signs": lambda scheme=scheme: _with_json_zero_signs(_bell_grid(scheme, 101), 9)
       for scheme in CloneScheme},
    # product states and a Bell-diagonal mixture: rows and columns of zeros, and T entries that are sums of zeros
    "json-zero-signs-sparse": lambda: _with_json_zero_signs(
        [np.diag([1.0, 0.0, 0.0, 0.0]), np.diag([0.0, 0.0, 0.0, 1.0]), np.diag([0.5, 0.0, 0.0, 0.5]),
         _bell_diagonal(0.2, 0.3, 0.0, 0.5)] * 8, 12),
}


@pytest.mark.parametrize("name", list(_MEASUREMENT_INPUTS))
def test_measurement_kernels_equal_their_references(name):
    _assert_measurement_kernels_equal_their_references(_MEASUREMENT_INPUTS[name]())


def _broadcast_channel(scheme, rhos, out=None):
    # a fresh array for LOCAL, whatever out is: the iterate round uses the array the channel returns
    return _broadcast_local_channel(rhos) if scheme is CloneScheme.LOCAL else _channel(scheme, rhos, out=out)


_LOCAL_CHAINS = {
    "grid-7": (lambda: _bell_grid(CloneScheme.PURE, 7), 5),
    "grid-block": (lambda: _bell_grid(CloneScheme.PURE, _BLOCK + 3), 3),
    "random-full-rank-40": (lambda: _random_full_rank(40), 5),
    "singlet-chain": (lambda: psi_minus(np.sqrt([0.5])), 64),
}


@pytest.mark.parametrize("name", list(_LOCAL_CHAINS))
def test_local_iterate_chain_equals_the_broadcast_channel_chain(name, monkeypatch):
    # the local channel also clones each round's (N, 4, 4, 4) stack of eigenprojectors
    build, n = _LOCAL_CHAINS[name]
    rhos = build()
    rounds = list(_iterate(rhos, _psd_eigh(rhos), CloneScheme.LOCAL, n))
    monkeypatch.setattr(cloning, "_channel", _broadcast_channel)
    expected = list(_iterate(rhos, _psd_eigh(rhos), CloneScheme.LOCAL, n))
    assert len(rounds) == len(expected) == n + 1
    for (stack, (values, vectors)), (stack0, (values0, vectors0)) in zip(rounds, expected):
        assert stack.tobytes() == stack0.tobytes()
        assert values.tobytes() == values0.tobytes()
        assert vectors.tobytes() == vectors0.tobytes()
        _assert_measurement_kernels_equal_their_references(stack)


def _eigh_concurrence(rhos, spectra):
    # _concurrence as it ran before its values-only solve: the eigenvalues of a full eigh of the product
    root = _psd_root(spectra)
    w = _eigh(root @ _allocating_spin_flip(rhos) @ root).eigenvalues
    lambdas = np.sqrt(np.where(w < NOISE_FLOOR, 0.0, w))
    return lambdas, np.maximum(0.0, lambdas[:, 0] - lambdas[:, 1] - lambdas[:, 2] - lambdas[:, 3])


def _nonlocal_chain(rhos, n):
    # the stacks of n non-local iterate rounds, the input's first, concatenated with their decompositions
    stacks, spectra = zip(*_iterate(rhos, _psd_eigh(rhos), CloneScheme.NONLOCAL, n))
    return np.concatenate(stacks), SpectralDecomposition(*map(np.concatenate, zip(*spectra)))


# states the command line builds itself: the rows of sweep blocks of every scheme, grid size and --alpha, and the
# non-local iterate rounds of sweep --iterations and table1
_PROGRAM_STATES = {
    **{f"{scheme.value}-grid-{n}": (lambda scheme=scheme, n=n: _bell_grid(scheme, n))
       for scheme in CloneScheme for n in (1, 2, 7, _BLOCK + 3)},
    **{f"{scheme.value}-random-alphas": lambda scheme=scheme: bell_clone(scheme, np.random.default_rng(6).random(4000))
       for scheme in CloneScheme},
    "nonlocal-chain-grid-40": lambda: _nonlocal_chain(_bell_grid(CloneScheme.PURE, 40), 101),
    "singlet-chain": lambda: _nonlocal_chain(psi_minus(np.sqrt([0.5])), 100),
}


@pytest.mark.parametrize("name", list(_PROGRAM_STATES))
def test_values_only_concurrence_has_the_bits_of_the_full_solve_on_program_states(name):
    # on the Bell family, its clones and their iterate rounds, this LAPACK build's eigvalsh gives eigh's eigenvalues
    # bit for bit (with NumPy 2.4.6 on 900 006 grid states and four 101-round chains), so on them the oracle of the
    # X-state kernels (tests/test_xstate.py) has the bytes the full solve gave
    built = _PROGRAM_STATES[name]()
    rhos, spectra = built if isinstance(built, tuple) else (built, _psd_eigh(built))
    for got, expected in zip(_concurrence(rhos, spectra), _eigh_concurrence(rhos, spectra)):
        assert got.tobytes() == expected.tobytes()


def test_values_only_concurrence_moves_generic_states_by_rounding_only():
    # on generic states eigvalsh rounds differently from eigh: with NumPy 2.4.6 the lambdas of 19 961 of 20 000 random
    # full-rank states differed, the product's eigenvalues by at most 1.5 eps. Each eigenvalue of the product, whose
    # norm is at most 1, may move by a backward-stable 16 eps, and a lambda^2 clamped on one side of NOISE_FLOOR and
    # not on the other by at most the floor more
    rhos = np.array([random_density(np.random.default_rng(1000 + k)) for k in range(400)])
    spectra = _psd_eigh(rhos)
    root = _psd_root(spectra)
    product = root @ _spin_flip(rhos) @ root
    eps = np.finfo(float).eps
    assert np.abs(_eigvalsh(product) - _eigh(product).eigenvalues).max() <= 16 * eps
    (lambdas, c), (lambdas0, c0) = _concurrence(rhos, spectra), _eigh_concurrence(rhos, spectra)
    assert np.abs(lambdas**2 - lambdas0**2).max() <= NOISE_FLOOR + 16 * eps
    assert np.abs(c - c0).max() <= 4 * np.sqrt(NOISE_FLOOR + 16 * eps)


def test_values_only_concurrence_stays_within_rounding_of_the_full_solve_on_generic_states():
    # the bound that turns a LAPACK build whose eigvalsh drifts further from eigh into a named failure rather than a
    # digest mismatch. On these 4000 full-rank states (NumPy 2.4.6: 3991 of them differ) the product's eigenvalues
    # lambda^2 moved by at most 1.5 eps and C by at most 2.4e-12. lambda itself is the square root, which turns a
    # 1-eps change of lambda^2 ~ 1e-11 into ~1e4 eps, so the bound is on lambda^2. Every lambda^2 here lies far above
    # NOISE_FLOOR; one near it could be clamped on one side only, which would move C by up to sqrt(NOISE_FLOOR)
    rhos = np.array([random_density(np.random.default_rng(10_000 + k)) for k in range(4000)])
    spectra = _psd_eigh(rhos)
    (lambdas, c), (lambdas0, c0) = _concurrence(rhos, spectra), _eigh_concurrence(rhos, spectra)
    eps = np.finfo(float).eps
    assert (lambdas0**2).min() > 100 * NOISE_FLOOR
    assert np.abs(lambdas**2 - lambdas0**2).max() <= 4 * eps
    assert np.abs(c - c0).max() <= 1e-11
    assert (c0 > 0).sum() > 1000


def _transposed_verdict(rhos, tol=PPT_TOL):
    # _verdict as it ran before it solved the PT in the order |00>, |11>, |01>, |10>: the PT in the standard order,
    # whose Bell-family coherence sits in the corner |00><11|, so eigvalsh made a full reduction
    pt = _transpose_second(rhos)
    low = np.linalg.eigvalsh((pt + _dagger(pt)) / 2)[:, 0]
    return low, low < -tol


def test_pt_index_is_the_partial_transpose_in_the_reordered_basis():
    order = [0, 3, 1, 2]
    flat = _transpose_second(np.arange(16).reshape(4, 4))
    assert separability._PT_INDEX.tolist() == flat[order][:, order].ravel().tolist()


@pytest.mark.parametrize("scheme", list(CloneScheme))
def test_verdict_solves_a_tridiagonal_pt_for_the_bell_family(scheme, monkeypatch):
    # the reason for the speed: every entry of the matrix _verdict solves is an exact zero off the band, so eigvalsh
    # has no reduction to make
    solved, eigvalsh = [], linalg._SOLVERS["eigvalsh"]
    monkeypatch.setitem(linalg._SOLVERS, "eigvalsh", lambda m: solved.append(m) or eigvalsh(m))
    _verdict(_bell_grid(scheme, 41))
    [pt] = solved
    off_band = np.abs(np.subtract.outer(np.arange(4), np.arange(4))) > 1
    assert not pt[:, off_band].any()
    assert pt[:, ~off_band].any()


@pytest.mark.parametrize("scheme", list(CloneScheme))
@pytest.mark.parametrize("n", [1, 2, 7, _BLOCK + 3, 20_001])
def test_reordered_verdict_keeps_the_bell_grid_verdicts(scheme, n):
    # with NumPy 2.4.6 about half the local and non-local rows move in the last bits, by at most 1.06 eps over 1.26 M
    # grid, random-amplitude and iterate-chain rows, and none prints another min_pt_eig; pure rows keep every bit
    rhos = _bell_grid(scheme, n)
    (low, entangled), (low0, entangled0) = _verdict(rhos), _transposed_verdict(rhos)
    assert entangled.tolist() == entangled0.tolist()
    assert np.abs(low - low0).max() <= 4 * np.finfo(float).eps
    assert [f"{v:.9g}" for v in low.tolist()] == [f"{v:.9g}" for v in low0.tolist()]
    if scheme is CloneScheme.PURE:
        assert low.tobytes() == low0.tobytes()


_ROUNDING_INPUTS = {
    **{f"nonlocal-chain-{k}": (lambda k=k: _nonlocal_chain(_bell_grid(CloneScheme.PURE, 400), k)[0])
       for k in (1, 5, 30)},
    "random-full-rank-4000": lambda: np.array([random_density(np.random.default_rng(20_000 + k)) for k in range(4000)]),
    **{f"{scheme.value}-grid-json-zero-signs": lambda scheme=scheme: _with_json_zero_signs(_bell_grid(scheme, 101), 9)
       for scheme in CloneScheme},
    "json-zero-signs-sparse": _MEASUREMENT_INPUTS["json-zero-signs-sparse"],
}


@pytest.mark.parametrize("name", list(_ROUNDING_INPUTS))
def test_reordered_verdict_moves_other_states_by_rounding_only(name):
    # each solve is backward stable, so each minimum is off the exact one by a few eps times the PT's norm, its largest
    # |eigenvalue|. With NumPy 2.4.6 the two solves differed by at most 2.0 eps of that norm on the chains and 4.7 eps
    # on 100 000 random full-rank states, 13 of which went past 4 eps; none flipped a verdict
    rhos = _ROUNDING_INPUTS[name]()
    (low, entangled), (low0, entangled0) = _verdict(rhos), _transposed_verdict(rhos)
    pt = _transpose_second(rhos)
    norms = np.abs(np.linalg.eigvalsh((pt + _dagger(pt)) / 2)).max(axis=1)
    assert entangled.tolist() == entangled0.tolist()
    assert (np.abs(low - low0) <= 8 * np.finfo(float).eps * norms).all()


@pytest.mark.parametrize("scheme", [scheme.value for scheme in CloneScheme])
def test_interval_keeps_its_bits_under_the_reordered_verdict(scheme, monkeypatch):
    # the single-state benchmark's 17 tolerances and one that stalls: each probe's margin may move in its last bits,
    # but none crosses zero, so every bracket and endpoint keeps its bits
    tols = [float(f"{m}e-{e}") for e in range(14, 6, -1) for m in (1, 3)] + [1e-6, 1e-18]
    outcomes = [_outcome(entanglement_interval, scheme, tol) for tol in tols]
    monkeypatch.setattr(separability, "_verdict", _transposed_verdict)
    assert outcomes == [_outcome(entanglement_interval, scheme, tol) for tol in tols]


def test_decompositions_are_descending_views_of_eigh(monkeypatch):
    # _eigh hands out the arrays eigh returns, reversed, not copies of them
    original, returned = linalg._SOLVERS["eigh"], []
    monkeypatch.setitem(linalg._SOLVERS, "eigh", lambda m: returned.append(original(m)) or returned[-1])
    values, vectors = _eigh(psi_minus(np.linspace(0.0, 1.0, 5)))
    [(ascending, basis)] = returned
    assert np.shares_memory(values, ascending) and np.shares_memory(vectors, basis)
    assert values.tobytes() == ascending[..., ::-1].tobytes() and vectors.tobytes() == basis[..., ::-1].tobytes()


def test_channels_build_no_identity_per_call(monkeypatch):
    original = np.eye
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "eye", counting)
    stack = psi_minus(np.linspace(0.0, 1.0, 5))
    for scheme in CloneScheme:
        for rhos in (stack[0], stack[:1], stack):
            _channel(scheme, rhos)
    assert built == []


def _unit_rows(rows):
    norms = np.sqrt(np.add.reduce(rows * rows, axis=1, keepdims=True))
    return rows / np.where(norms > 1e-15, norms, np.inf)


def _allocating_bmax_numeric(rho, seed):
    # the loop bmax_numeric ran before it wrote into buffers made once per call
    t = correlation_matrix(rho)
    n = BMAX_RESTARTS
    b = _unit_rows(np.random.default_rng(seed).standard_normal((2 * n, 3)))
    for _ in range(300):
        a = _unit_rows(np.concatenate((b[:n] + b[n:], b[n:] - b[:n])) @ t.T)
        b = _unit_rows(np.concatenate((a[:n] - a[n:], a[:n] + a[n:])) @ t)
    values = np.linalg.norm(np.concatenate((b[:n] + b[n:], b[n:] - b[:n])) @ t.T, axis=1)
    return float((values[:n] + values[n:]).max())


def _bell_diagonal(*weights):
    # sum of weights[k] |B_k><B_k| over psi-, psi+, phi-, phi+
    return sum(w * density_from_pure(bell_state(kind, np.sqrt(0.5))) for w, kind in zip(weights, BellKind))


_BMAX_STATES = {
    # T of rank 1: a product state, then Bell-diagonal; both reach zero rows inside the loop
    "t_rank1_00": np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex),
    "t_rank1_phi_mix": np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex),
    "t_rank2": _bell_diagonal(0.2, 0.3, 0.0, 0.5),
    "t_rank3_psi_minus": psi_minus(np.sqrt(0.5)),
    # T = 0: every row has norm 0 and is divided by inf
    "maximally_mixed": np.eye(4, dtype=complex) / 4,
    "psi_minus_0.3": psi_minus(np.sqrt(0.3)),
    **{f"random_{k}": random_density(np.random.default_rng(60 + k)) for k in range(3)},
    # at seeds 2 and 3 the maximum comes from a restart of period > 1, so it shows which phase
    # of its cycle stands for iteration 300
    "random_14": random_density(np.random.default_rng(74)),
    # T singular values 1, 0.96, 0.96 (then 3/5 of each): no restart repeats exactly within 300 iterations
    "psi_minus_0.8": psi_minus(0.8),
    "psi_minus_0.8_shrunk": _channel(CloneScheme.NONLOCAL, psi_minus(0.8)),
}


@pytest.mark.parametrize("name", list(_BMAX_STATES))
def test_buffered_bmax_numeric_equals_the_allocating_loop(name):
    rho = _BMAX_STATES[name]
    expected = [_allocating_bmax_numeric(rho, seed).hex() for seed in range(4)]
    assert [bmax_numeric(rho, seed).hex() for seed in range(4)] == expected


def _buffered_bmax_numeric(rho, seed):
    # the buffered loop as it ran before t.T was formed once per call: row_norms and unit_rows as nested calls,
    # norms.min() as the guard's test, the current history slot indexed twice per iteration
    t = correlation_matrix(rho)
    n = BMAX_RESTARTS
    a, s, p, sq = (np.empty((2 * n, 3)) for _ in range(4))
    norms = np.empty((2 * n, 1))
    a_lo, a_hi, s_lo, s_hi = a[:n], a[n:], s[:n], s[n:]
    sq_x, sq_y, sq_z, norm = sq[:, 0], sq[:, 1], sq[:, 2], norms[:, 0]
    size = _CYCLE_LAGS + 1
    history = np.full((size, 2 * n, 3), np.nan)
    halves = [(b[:n], b[n:]) for b in history]

    def row_norms(rows):
        np.multiply(rows, rows, out=sq)
        np.add(sq_x, sq_y, out=norm)
        np.add(norm, sq_z, out=norm)
        return np.sqrt(norm, out=norm)

    def unit_rows(rows, out):
        row_norms(rows)
        np.divide(rows, norms if norms.min() > 1e-15 else np.where(norms > 1e-15, norms, np.inf), out=out)

    unit_rows(np.random.default_rng(seed).standard_normal((2 * n, 3)), history[0])
    b = history[_BMAX_ITERATIONS % size]
    for k in range(1, _BMAX_ITERATIONS + 1):
        b_lo, b_hi = halves[(k - 1) % size]
        np.add(b_lo, b_hi, out=s_lo)
        np.subtract(b_hi, b_lo, out=s_hi)
        unit_rows(np.matmul(s, t.T, out=p), a)
        np.subtract(a_lo, a_hi, out=s_lo)
        np.add(a_lo, a_hi, out=s_hi)
        unit_rows(np.matmul(s, t, out=p), history[k % size])
        if k % _CYCLE_STRIDE == 0:
            equal = history == history[k % size]
            equal = equal[:, :n] & equal[:, n:]
            equal = equal[..., 0] & equal[..., 1] & equal[..., 2]
            equal[k % size] = False
            if equal.any(0).all():
                period = (k - equal.argmax(0)) % size
                slots = (k - period + (_BMAX_ITERATIONS - k) % period) % size
                b = history[np.tile(slots, 2), np.arange(2 * n)]
                break
    np.add(b[:n], b[n:], out=s_lo)
    np.subtract(b[n:], b[:n], out=s_hi)
    values = row_norms(np.matmul(s, t.T, out=p))
    return float((values[:n] + values[n:]).max())


_LEANER_BMAX_STATES = {
    **_BMAX_STATES,
    **{f"random_full_rank_{k}": random_density(np.random.default_rng(900 + k)) for k in range(40)},
}


@pytest.mark.parametrize("name", list(_LEANER_BMAX_STATES))
def test_bmax_numeric_equals_the_buffered_loop(name):
    rho = _LEANER_BMAX_STATES[name]
    expected = [_buffered_bmax_numeric(rho, seed).hex() for seed in range(4)]
    assert [bmax_numeric(rho, seed).hex() for seed in range(4)] == expected


@pytest.mark.parametrize("name, stops_early", [("random_0", True), ("maximally_mixed", True), ("psi_minus_0.8", False)])
def test_bmax_numeric_stops_once_every_restart_repeats(name, stops_early, monkeypatch):
    original = np.matmul
    products = []

    def counting(*args, **kwargs):
        products.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting)
    bmax_numeric(_BMAX_STATES[name])
    # two products per iteration and one after the last: 601 unless the loop stopped early
    assert len(products) < 601 if stops_early else len(products) == 601


def _scalar_eof(c):
    # the per-value EoF the stacked kernel replaced, kept as its reference
    x = (1.0 + np.sqrt(max(1.0 - c * c, 0.0))) / 2.0
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=_BLOCK + 3))
def test_stacked_eof_equals_the_per_value_formula(cs):
    cs = np.array(cs + [0.0, 1.0, 1.0 - 1e-16, 1e-8, 1e-16])
    expected = np.array([_scalar_eof(c) for c in cs.tolist()])
    assert _eof(cs).tobytes() == expected.tobytes()


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=_BLOCK + 3), st.sampled_from(list(BellKind)))
def test_stacked_bell_builder_equals_its_scalar_calls(alphas, kind):
    stacked = density_from_pure(bell_state(kind, alphas))
    alone = [density_from_pure(bell_state(kind, alpha)) for alpha in alphas]
    assert stacked.tobytes() == np.array(alone).tobytes()


def _first_interval_stack(tol):
    # the amplitudes of the first stack entanglement_interval clones: both endpoints' brackets cut into 16 steps
    stacks = []

    def recording(scheme, alphas):
        stacks.append(alphas)
        return bell_clone(scheme, alphas)

    with mock.patch.object(separability, "bell_clone", recording):
        entanglement_interval("local", tol)
    return stacks[0]


# amplitudes the program builds Bell states from: the default sweep grid, the first interval stack
# at the finest tolerance that converges, and the product and maximally entangled edges
_PROGRAM_ALPHAS = {
    "sweep-grid": np.linspace(0.0, 1.0, 201),
    "interval-stack": _first_interval_stack(1e-14),
    "edges": np.array([0.0, 1.0, np.sqrt(0.5)]),
}


@pytest.mark.parametrize("scheme", list(CloneScheme))
@pytest.mark.parametrize("name", list(_PROGRAM_ALPHAS))
@settings(max_examples=10, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), max_size=40))
def test_bell_clone_has_the_bytes_of_the_checked_builders(scheme, name, drawn):
    alphas = np.concatenate([_PROGRAM_ALPHAS[name], drawn])
    checked = _channel(scheme, density_from_pure(bell_state(BellKind.PSI_MINUS, alphas)))
    assert bell_clone(scheme, alphas).tobytes() == checked.tobytes()


@pytest.mark.parametrize("alpha", [1.5, -0.5, np.nan])
def test_bell_state_rejects_an_amplitude_outside_0_1(alpha):
    for alphas in (alpha, np.array([0.5, alpha])):
        with pytest.raises(OutOfRangeError, match=rf"^alpha must lie in \[0, 1\], got {alpha}$"):
            bell_state(BellKind.PSI_MINUS, alphas)


_CHECKED_BUILDERS = ("bell_state", "density_from_pure")


def test_commands_build_their_bell_states_unchecked(monkeypatch, capsys):
    # the amplitudes of interval, sweep and table1 are made by the program or checked by the parser
    counters = {
        module.__name__: count_calls(monkeypatch, module, [n for n in _CHECKED_BUILDERS if hasattr(module, n)])
        for module in (entclone, states, cloning, separability, cli)
    }
    for argv in (
        ["interval", "--scheme", "local"],
        ["interval", "--scheme", "nonlocal", "--tol", "1e-14"],
        *(["sweep", "--scheme", scheme.value, "--grid", "600"] for scheme in CloneScheme),
        ["sweep", "--scheme", "local", "--alpha", "0.3"],
        ["sweep", "--scheme", "nonlocal", "--iterations", "2", "--grid", "5"],
        ["table1", "--steps", "3"],
    ):
        assert main(argv) == 0
    capsys.readouterr()
    assert all(count == 0 for counter in counters.values() for count in counter.values())


_NOT_PSD = np.diag([0.5, 0.5, 0.25, -0.25]).astype(complex)
_NOT_HERMITIAN = np.eye(4, dtype=complex) / 4
_NOT_HERMITIAN[0, 1] = 0.1j
_NOT_FINITE = np.full((4, 4), np.nan, dtype=complex)
_BAD_TRACE = np.eye(4, dtype=complex) / 2


def _concurrence_of_checked(rhos):
    # _concurrence is unchecked; the decomposition it is handed carries the checks
    return _concurrence(rhos, _psd_eigh(rhos))


@pytest.mark.parametrize(
    "kernel, member, error",
    [
        (_concurrence_of_checked, _NOT_PSD, NotPsdError),
        (_concurrence_of_checked, _NOT_HERMITIAN, NotHermitianError),
        (_concurrence_of_checked, _NOT_FINITE, ValueError),
        (_correlations, _NOT_HERMITIAN, NotHermitianError),
        # unchecked: the finite check sits at the boundary, so the eigvalsh solve's own failure reports it
        (lambda rhos: _verdict(rhos, PPT_TOL), _NOT_FINITE, NoConvergenceError),
        (_check_densities, _NOT_FINITE, ValueError),
        (_check_densities, _NOT_HERMITIAN, NotHermitianError),
        (_check_densities, _NOT_PSD, NotPsdError),
        (_check_densities, _BAD_TRACE, BadTraceError),
    ],
    ids=["concurrence-psd", "concurrence-hermitian", "concurrence-finite",
         "correlations-hermitian", "verdict-finite", "density-finite", "density-hermitian",
         "density-psd", "density-trace"],
)
def test_one_bad_member_fails_the_stack_like_the_n1_call(kernel, member, error):
    raised = []
    for rhos in (member[None], with_member(member)):
        with pytest.raises(error) as info:
            kernel(rhos)
        raised.append(type(info.value))
    assert raised[0] is raised[1] is error


def _off_hermitian(defect):
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = defect * 1j
    return m


def _below_psd(depth):
    return np.diag([0.5, 0.25, 0.25 + depth, -depth]).astype(complex)


def _off_trace(excess):
    return np.diag([0.25 + excess, 0.25, 0.25, 0.25]).astype(complex)


@pytest.mark.parametrize(
    "tol, member, error, public",
    [
        (HERMITIAN_TOL, _off_hermitian, NotHermitianError, hermitian_eig),
        (PSD_TOL, _below_psd, NotPsdError, psd_sqrt),
        (TRACE_TOL, _off_trace, BadTraceError, None),
    ],
    ids=["hermitian", "psd", "trace"],
)
def test_density_checks_hold_their_tolerance_edges(tol, member, error, public):
    # half the tolerance passes and twice it raises, alone, through the public
    # linalg function the check guards, and as the last member of a stack
    paths = [validate_density, lambda m: _check_densities(with_member(m, n=3, at=2))]
    if public is not None:
        paths.append(public)
    for path in paths:
        path(member(tol / 2))
    messages = []
    for path in paths:
        with pytest.raises(ValueError) as info:
            path(member(2 * tol))
        assert type(info.value) is error
        messages.append(str(info.value))
    assert len(set(messages)) == 1


def _tolerance_edges():
    # a state on the edge of each density tolerance and one an ulp past it. 1 + TRACE_TOL is not a double: the trace
    # edge is the largest trace within TRACE_TOL of 1
    trace = 1.0 + TRACE_TOL
    while trace - 1.0 > TRACE_TOL:
        trace = np.nextafter(trace, 0.0)
    return {
        "hermitian": _off_hermitian(HERMITIAN_TOL),
        "hermitian-past": _off_hermitian(np.nextafter(HERMITIAN_TOL, 1.0)),
        "psd": _below_psd(PSD_TOL),
        "psd-past": _below_psd(np.nextafter(PSD_TOL, 1.0)),
        "trace": np.diag([trace, 0.0, 0.0, 0.0]).astype(complex),
        "trace-past": np.diag([np.nextafter(trace, 2.0), 0.0, 0.0, 0.0]).astype(complex),
    }


@pytest.mark.parametrize("name", list(_tolerance_edges()))
def test_both_density_checks_agree_at_every_tolerance_edge(name):
    # the window's non-raising test, handed the eigenvalues of the stack's Hermitian part as the window solves it
    # (those _eigh returns, where it accepts the stack), calls a stack clean exactly when _check_densities accepts it
    stack = with_member(_tolerance_edges()[name])
    values = _descending(*np.linalg.eigh((stack + _dagger(stack)) / 2)).eigenvalues
    if name == "psd":
        assert float(values.min()) == -PSD_TOL
    try:
        assert _eigh(stack).eigenvalues.tobytes() == values.tobytes()
        _check_densities(stack)
    except (NotHermitianError, NotPsdError, BadTraceError):
        accepted = False
    else:
        accepted = True
    assert accepted is not name.endswith("-past")
    assert states._densities_clean(stack, values) is accepted


def test_a_trace_past_the_float_maximum_fails_the_trace_check_without_a_warning():
    # finite, Hermitian and well above the PSD floor, so only the trace check can refuse it: the trace, 3.2e308,
    # overflows to inf, which is reported without the overflow warning the sum would raise, alone and in a stack
    huge = np.diag([8e307] * 4)
    for check in (validate_density, lambda m: _check_densities(with_member(m))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadTraceError, match=r"^trace must be 1, got inf$"):
                check(huge)


def test_correlation_error_names_the_first_entry_of_the_bad_member():
    messages = []
    for rhos in (_NOT_HERMITIAN[None], with_member(_NOT_HERMITIAN)):
        with pytest.raises(NotHermitianError) as info:
            _correlations(rhos)
        messages.append(str(info.value))
    assert messages == ["correlation (2,0) has imaginary part 1.000e-01"] * 2


def test_stacked_bell_builder_keeps_its_checks():
    with pytest.raises(OutOfRangeError, match="got 1.5"):
        bell_state(BellKind.PSI_MINUS, [0.2, 1.5, -0.5])
    with pytest.raises(OutOfRangeError):
        bell_state(BellKind.PSI_MINUS, [0.2, np.nan])
    psi = bell_state(BellKind.PHI_PLUS, [0.0, 0.6, 1.0])
    psi[1] *= 1.001
    with pytest.raises(NotNormalizedError, match="1.001"):
        density_from_pure(psi)


@pytest.mark.parametrize("measure", [correlation_matrix, bmax, concurrence, ppt_verdict])
def test_public_measures_take_one_state_not_a_stack(measure):
    with pytest.raises(BadDimensionError):
        measure(with_member(np.eye(4) / 4))


@settings(max_examples=60, deadline=None)
@given(densities())
def test_cloning_never_increases_eof(rho):
    before = entanglement_of_formation(rho)
    for scheme in (CloneScheme.LOCAL, CloneScheme.NONLOCAL):
        assert entanglement_of_formation(_channel(scheme, rho)) <= before + 1e-12


# floats whose %.9g text has its own form: signed zeros, subnormals, the exponent extremes, integer values, specials
_CSV_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 1e-300, -1e-300, 1.0, -3.0, 2.0 ** 53, 1e9, 123456789.0,
              np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("rows", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_a_block_csv_text_equals_its_per_row_lines(rows):
    rng = np.random.default_rng(rows)
    columns = rng.standard_normal((5, rows)) * 10.0 ** rng.integers(-20, 20, (5, rows))
    flat = columns.reshape(-1)
    flat[:len(_CSV_EDGES)] = _CSV_EDGES[:flat.size]
    row = cli._CSV_ROW.removesuffix("\n")
    expected = "\n".join(row % line for line in zip(*(column.tolist() for column in columns))) + "\n"
    assert cli._csv_rows(*columns) == expected


def test_the_sweep_grid_has_the_bits_of_linspace():
    for points in [*range(2, 4098), MAX_GRID]:
        assert cli._grid(points).tobytes() == np.linspace(0.0, 1.0, points).tobytes(), points
