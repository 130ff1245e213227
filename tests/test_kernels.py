"""Each public measure is one validation in front of an unchecked stacked kernel.

The kernels take (N, 4, 4) stacks; a public measure is the N=1 case, and a
stack must give every state the bytes it gets alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entclone import (
    PAULI_Y,
    PAULIS,
    BadDimensionError,
    BadTraceError,
    BellKind,
    CloneScheme,
    NotHermitianError,
    NotNormalizedError,
    NotPsdError,
    OutOfRangeError,
    bell_state,
    bmax,
    chsh_value,
    concurrence,
    correlation_matrix,
    density_from_pure,
    entanglement_of_formation,
    hermitian_eig,
    iterate,
    planar_pi4_config,
    ppt_verdict,
    psd_sqrt,
    validate_density,
)
from entclone import cloning
from entclone.bell import _PAULI_PAIRS, _bmax, _chsh, _correlations
from entclone.cli import _BLOCK, main
from entclone.cloning import _iterate, bell_clone
from entclone.entanglement import _concurrence, _eof, _spin_flip
from entclone.linalg import HERMITIAN_TOL, PSD_TOL, _eigh, _psd_root, _transpose_second
from entclone.separability import PPT_TOL, _verdict
from entclone.states import TRACE_TOL, _check_densities

from helpers import densities, random_density


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
    cfg = planar_pi4_config()
    assert chsh_value(rho, cfg) == _chsh(t[None], cfg)[0]
    assert bmax(rho) == _bmax(t[None])[0]
    public, (lambdas, c) = concurrence(rho), _concurrence(rho[None])
    assert public.concurrence == c[0]
    assert public.lambdas.tobytes() == lambdas[0].tobytes()
    assert entanglement_of_formation(rho) == _eof(c[0])
    low, entangled = _verdict(rho[None], PPT_TOL)
    verdict = ppt_verdict(rho)
    assert (verdict.min_pt_eigenvalue, verdict.entangled) == (low[0], entangled[0])


def _stacked_kernels(rhos):
    # every stacked kernel on one stack; each value has the stack axis first
    cfg = planar_pi4_config()
    t = _correlations(rhos)
    values, vectors = _eigh(rhos)
    lambdas, c = _concurrence(rhos)
    low, entangled = _verdict(rhos, PPT_TOL)
    return [
        t, _chsh(t, cfg), _bmax(t), values, vectors, _psd_root(rhos), lambdas, c, low,
        entangled, _transpose_second(rhos), CloneScheme.LOCAL.apply(rhos),
        CloneScheme.NONLOCAL.apply(rhos),
    ]


@pytest.mark.parametrize("n", [1, 2, 7, _BLOCK + 3])
@settings(max_examples=10, deadline=None)
@given(st.lists(densities(), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
def test_stacked_kernels_equal_their_n1_calls(n, pool, seed):
    picks = np.random.default_rng(seed).integers(len(pool), size=n)
    rhos = np.array([pool[i] for i in picks])
    stacked = _stacked_kernels(rhos)
    alone = [_stacked_kernels(rhos[k:k + 1]) for k in range(n)]
    for index, whole in enumerate(stacked):
        assert whole.shape[0] == n
        assert whole.tobytes() == np.concatenate([one[index] for one in alone]).tobytes()


@pytest.mark.parametrize("scheme", [CloneScheme.LOCAL, CloneScheme.NONLOCAL])
@pytest.mark.parametrize("n", [1, 2, 7, _BLOCK + 3])
@settings(max_examples=5, deadline=None)
@given(st.lists(densities(), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
def test_stacked_iterate_equals_its_per_row_calls(scheme, n, pool, seed):
    picks = np.random.default_rng(seed).integers(len(pool), size=n)
    rhos = np.array([pool[i] for i in picks])
    stacks = list(_iterate(rhos, scheme, 3))
    rows = [iterate(rho, scheme, 3).states for rho in rhos]
    assert len(stacks) == 4
    for step, stack in enumerate(stacks):
        assert stack.tobytes() == np.array([states[step] for states in rows]).tobytes()


def _count_solves(monkeypatch):
    # counts the stacked eigh and eigvalsh calls made from here on
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counting(*args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.mark.parametrize("n", [1, 3])
def test_each_iterate_round_makes_one_eigensolve(n, monkeypatch):
    # one eigh before the rounds, then one per round inside its density check
    calls = _count_solves(monkeypatch)
    rhos = density_from_pure(bell_state(BellKind.PSI_MINUS, np.linspace(0.0, 1.0, 5)))
    assert len(list(_iterate(rhos, CloneScheme.NONLOCAL, n))) == n + 1
    assert calls == {"eigh": n + 1, "eigvalsh": 0}


@pytest.mark.parametrize("scheme", [scheme.value for scheme in CloneScheme])
def test_each_sweep_block_makes_two_eigh_and_two_eigvalsh(scheme, monkeypatch, capsys):
    # per block: eigh for the concurrence root and its product, eigvalsh for the PT spectrum and T^T T
    calls = _count_solves(monkeypatch)
    assert main(["sweep", "--scheme", scheme, "--grid", "2001"]) == 0
    blocks = -(-2001 // _BLOCK)
    assert calls == {"eigh": 2 * blocks, "eigvalsh": 2 * blocks}
    assert capsys.readouterr().out.count("\n") == 2002


def test_stacked_remix_check_is_live(monkeypatch):
    monkeypatch.setattr(cloning, "REMIX_TOL", -1.0)
    with pytest.raises(RuntimeError, match="eigenbasis remixing"):
        iterate(np.eye(4) / 4, CloneScheme.NONLOCAL, 1)
    with pytest.raises(RuntimeError, match="eigenbasis remixing"):
        bell_clone(CloneScheme.NONLOCAL, [0.0, 0.6, 1.0], 1)


# sigma_y (x) sigma_y, the matrix the spin flip was computed with
_SIGMA_YY = np.kron(PAULI_Y, PAULI_Y).real.astype(complex)


def test_index_arithmetic_equals_the_matrix_products_it_replaced():
    # T and the spin flip were matrix products; their kernels must give the same bytes, zero signs
    # included, on random states and on Bell-clone stacks full of exact zeros
    rng = np.random.default_rng(5)
    alphas = np.linspace(0.0, 1.0, _BLOCK + 3)
    stacks = [np.array([random_density(rng) for _ in alphas]), bell_clone(CloneScheme.NONLOCAL, alphas, 2)]
    stacks += [bell_clone(scheme, alphas) for scheme in CloneScheme]
    for rhos in stacks:
        traces = np.trace(rhos[:, None, None] @ _PAULI_PAIRS, axis1=-2, axis2=-1)
        assert _correlations(rhos).tobytes() == traces.real.tobytes()
        assert _spin_flip(rhos).tobytes() == (_SIGMA_YY @ rhos.conj() @ _SIGMA_YY).tobytes()


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


def _with_member(member, n=5, at=3):
    rhos = np.array([random_density(np.random.default_rng(k)) for k in range(n)])
    rhos[at] = member
    return rhos


_NOT_PSD = np.diag([0.5, 0.5, 0.25, -0.25]).astype(complex)
_NOT_HERMITIAN = np.eye(4, dtype=complex) / 4
_NOT_HERMITIAN[0, 1] = 0.1j
_NOT_FINITE = np.full((4, 4), np.nan, dtype=complex)
_BAD_TRACE = np.eye(4, dtype=complex) / 2


@pytest.mark.parametrize(
    "kernel, member, error",
    [
        (_concurrence, _NOT_PSD, NotPsdError),
        (_concurrence, _NOT_HERMITIAN, NotHermitianError),
        (_concurrence, _NOT_FINITE, ValueError),
        (_correlations, _NOT_HERMITIAN, NotHermitianError),
        (lambda rhos: _verdict(rhos, PPT_TOL), _NOT_FINITE, ValueError),
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
    for rhos in (member[None], _with_member(member)):
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
    paths = [validate_density, lambda m: _check_densities(_with_member(m, n=3, at=2))]
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


def test_correlation_error_names_the_first_entry_of_the_bad_member():
    messages = []
    for rhos in (_NOT_HERMITIAN[None], _with_member(_NOT_HERMITIAN)):
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
        measure(_with_member(np.eye(4) / 4))


@settings(max_examples=60, deadline=None)
@given(densities())
def test_cloning_never_increases_eof(rho):
    before = entanglement_of_formation(rho)
    for scheme in (CloneScheme.LOCAL, CloneScheme.NONLOCAL):
        assert entanglement_of_formation(scheme.apply(rho)) <= before + 1e-12
