import re
import warnings

import numpy as np
import pytest

from entclone import (
    BadDimensionError,
    CloneScheme,
    NoConvergenceError,
    NotHermitianError,
    NotPsdError,
    bmax,
    concurrence,
    entanglement_interval,
    hermitian_eig,
    iterate,
    partial_trace,
    partial_transpose,
    ppt_verdict,
    psd_sqrt,
    validate_density,
)
from entclone.bell import _correlations
from entclone.cloning import bell_clone
from entclone.linalg import _dagger, _eigh, _solve
from entclone.separability import _PT_INDEX, _verdict
from entclone.states import _check_densities

from helpers import fail_solves, psi_minus, random_density, random_hermitian, with_member


def test_dagger_is_conjugate_transpose():
    m = np.array([[1.0, 2.0 + 1j], [3.0 - 4j, 5j]])
    assert np.array_equal(_dagger(m), m.conj().T)
    assert np.array_equal(_dagger(_dagger(m)), m)


def test_hermitian_eig_reconstructs():
    rng = np.random.default_rng(1)
    for dim in (2, 4, 8, 16):
        for _ in range(5):
            h = random_hermitian(rng, dim)
            dec = hermitian_eig(h)
            w, v = dec.eigenvalues, dec.eigenvectors
            assert np.all(np.diff(w) <= 1e-12), "eigenvalues must come out descending"
            assert np.abs(v @ _dagger(v) - np.eye(dim)).max() < 1e-12
            assert np.abs((v * w) @ _dagger(v) - h).max() < 1e-12


def test_hermitian_eig_matches_diagonal():
    w = hermitian_eig(np.diag([0.1, 0.7, 0.2, 0.0])).eigenvalues
    assert np.allclose(w, [0.7, 0.2, 0.1, 0.0], atol=1e-15)


def test_hermitian_eig_rejects_bad_input():
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(BadDimensionError):
        hermitian_eig(np.ones((2, 3)))
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_an_empty_matrix_is_a_bad_dimension():
    empty = np.zeros((0, 0))
    for call in (validate_density, hermitian_eig, psd_sqrt, lambda m: partial_trace(m, (0, 0), "first")):
        with pytest.raises(BadDimensionError, match=r"^expected a non-empty matrix, got shape \(0, 0\)$"):
            call(empty)


def test_noconvergence_is_a_runtime_error():
    assert issubclass(NoConvergenceError, RuntimeError)


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(2)
    for _ in range(10):
        rho = random_density(rng, 4)
        root = psd_sqrt(rho)
        assert np.abs(root @ root - rho).max() < 1e-12
        assert np.abs(root - _dagger(root)).max() < 1e-12


def test_psd_sqrt_rejects_negative_eigenvalue():
    with pytest.raises(NotPsdError):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_psd_sqrt_tolerates_tiny_negative():
    # eigensolver noise below the tolerance must not be fatal
    root = psd_sqrt(np.diag([1.0, -1e-12]))
    assert np.abs(root @ root - np.diag([1.0, 0.0])).max() < 1e-6


def test_partial_transpose_on_kron_transposes_second_factor():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        assert np.abs(partial_transpose(np.kron(a, b)) - np.kron(a, b.T)).max() < 1e-14


def test_partial_transpose_is_an_involution():
    rng = np.random.default_rng(4)
    m = random_hermitian(rng, 4)
    assert np.abs(partial_transpose(partial_transpose(m)) - m).max() == 0.0


def test_partial_transpose_wrong_size():
    with pytest.raises(BadDimensionError):
        partial_transpose(np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_partial_transpose_rejects_non_finite_entries(bad):
    m = np.eye(4, dtype=complex) / 4
    m[1, 2] = bad
    with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
        partial_transpose(m)
    # the shape is checked first
    with pytest.raises(BadDimensionError):
        partial_transpose(np.full((2, 2), bad))


def test_partial_trace_recovers_factors():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        joint = np.kron(a, b)
        assert np.abs(partial_trace(joint, (2, 2), "first") - a).max() < 1e-14
        assert np.abs(partial_trace(joint, (2, 2), "second") - b).max() < 1e-14


@pytest.mark.parametrize("dims", [(-2, -2), (-1, -4), (0, 4), (2.0, 2.0), (4,), (2, 2, 1)])
def test_partial_trace_rejects_non_positive_dims(dims):
    # (-2, -2) multiplies out to 4, so the factor check alone let it through to a reshape that failed;
    # (2.0, 2.0), (4,) and (2, 2, 1) escaped as TypeError, IndexError and a tuple-unpacking ValueError
    if len(dims) == 2 and not isinstance(dims[0], float):
        message = f"matrix of dim 4 does not factor as {dims[0]}x{dims[1]}"
    else:
        message = f"dims must be two positive integers, got {dims!r}"
    with pytest.raises(BadDimensionError, match=f"^{re.escape(message)}$"):
        partial_trace(np.eye(4) / 4, dims, "first")


@pytest.mark.parametrize("dims", [(True, 4), (4, True), (np.True_, 4), (True, True)])
def test_partial_trace_rejects_bool_dims(dims):
    # unchecked, (True, 4) read as (1, 4) and returned [[1]]
    message = f"dims must be two positive integers, got {dims!r}"
    with pytest.raises(BadDimensionError, match=f"^{re.escape(message)}$"):
        partial_trace(np.eye(4) / 4, dims, "first")


def test_partial_trace_uneven_dims():
    rng = np.random.default_rng(6)
    a = random_density(rng, 2)
    b = random_density(rng, 4)
    joint = np.kron(a, b)
    assert np.abs(partial_trace(joint, (2, 4), "second") - b).max() < 1e-14
    numpy_dims = (np.int64(2), np.int32(4))
    assert np.array_equal(partial_trace(joint, numpy_dims, "second"), partial_trace(joint, (2, 4), "second"))
    with pytest.raises(BadDimensionError):
        partial_trace(joint, (3, 3), "first")
    with pytest.raises(ValueError):
        partial_trace(joint, (2, 4), "both")


def _maximally_mixed_with(entries):
    m = np.eye(4, dtype=complex) / 4
    for (i, j), value in entries.items():
        m[i, j] = value
    return m


# each makes the Hermiticity defect NaN or inf, so the finite check that runs on its failure path reports it
_NON_FINITE = {
    "nan": {(1, 2): np.nan},
    "inf-diagonal": {(2, 2): np.inf},
    "inf-mirrored": {(0, 3): np.inf, (3, 0): np.inf},
    "imaginary-inf": {(1, 1): complex(0.0, np.inf)},
}


@pytest.mark.parametrize("entries", list(_NON_FINITE.values()), ids=list(_NON_FINITE))
def test_non_finite_entries_are_reported_ahead_of_hermiticity(entries):
    bad = _maximally_mixed_with(entries)
    calls = [(hermitian_eig, bad), (validate_density, bad), (_check_densities, bad[None]),
             (_eigh, with_member(bad)), (_check_densities, with_member(bad))]
    for check, m in calls:
        with pytest.raises(ValueError) as info:
            check(m)
        assert type(info.value) is ValueError
        assert str(info.value) == "matrix has non-finite entries"


def test_a_non_finite_member_is_reported_ahead_of_an_earlier_non_hermitian_one():
    stack = with_member(_maximally_mixed_with(_NON_FINITE["nan"]), at=3)
    stack[1] = _maximally_mixed_with({(0, 1): 0.1j})
    for check in (_eigh, _check_densities):
        with pytest.raises(ValueError) as info:
            check(stack)
        assert type(info.value) is ValueError
        assert str(info.value) == "matrix has non-finite entries"
    with pytest.raises(NotHermitianError):
        _check_densities(stack[:3])


def test_finite_hermitian_entries_near_the_float_maximum_fail_the_eigensolver():
    # the defect is 0, so no finite check runs; m + m^dagger overflows and eigh cannot converge
    huge = np.full((4, 4), 1e308, dtype=complex)
    for call in (hermitian_eig, validate_density, lambda m: _check_densities(m[None])):
        with pytest.raises(NoConvergenceError, match="^Eigenvalues did not converge$"):
            call(huge)


def _hermitian_parts(rhos):
    # the matrices the package solves for a stack of states: their Hermitian parts and those of their reordered PTs
    pts = rhos.reshape(len(rhos), 16).take(_PT_INDEX, axis=1).reshape(rhos.shape)
    return [(m + _dagger(m)) / 2 for m in (rhos, pts)]


def _random_stack(n):
    rng = np.random.default_rng(900 + n)
    return np.array([random_density(rng) for _ in range(n)])


def _bell_family(scheme):
    return bell_clone(scheme, np.linspace(0.0, 1.0, 41))


# complex128 stacks: random full-rank states, the Bell family and its clones, a 100-round non-local chain of the
# singlet; float64 stacks: T^T T of a Bell grid and of random states
_SOLVED = {
    **{f"random-full-rank-{n}": (lambda n=n: _hermitian_parts(_random_stack(n))) for n in (1, 17, 512)},
    **{f"{scheme.value}-bell-family": (lambda scheme=scheme: _hermitian_parts(_bell_family(scheme)))
       for scheme in CloneScheme},
    "nonlocal-chain-100": lambda: _hermitian_parts(np.array(iterate(psi_minus(np.sqrt(0.5)), "nonlocal", 100))),
    "ttt": lambda: [t.swapaxes(-1, -2) @ t for t in map(_correlations, (_bell_family(CloneScheme.LOCAL),
                                                                         _random_stack(17)))],
}


@pytest.mark.parametrize("name", list(_SOLVED))
def test_solve_has_the_bits_of_numpy_linalg(name):
    # _solve calls NumPy's private gufuncs without the public wrapper: a NumPy build whose gufuncs differ from what
    # numpy.linalg.eigh and eigvalsh call fails here, unguarded or not
    for m in _SOLVED[name]():
        expected = [*np.linalg.eigh(m), np.linalg.eigvalsh(m)]
        for guard in (True, False):
            got = [*_solve("eigh", m, guard), _solve("eigvalsh", m, guard)]
            assert [a.dtype for a in got] == [a.dtype for a in expected]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]


def test_a_non_finite_stack_fails_the_solve_as_it_fails_numpy_linalg():
    stack = _random_stack(3)
    stack[1, 2, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
        np.linalg.eigvalsh(stack)
    for solve in (lambda m: _solve("eigvalsh", m), lambda m: _verdict(m)[0]):
        with pytest.raises(NoConvergenceError, match="^Eigenvalues did not converge$"):
            solve(stack)
    # unguarded, under an errstate that ignores the invalid flag, the failed row reads NaN and nothing is raised
    with np.errstate(invalid="ignore"):
        values, vectors = _solve("eigh", stack, guard=False)
    assert np.isnan(values[1]).all() and np.isnan(vectors[1]).all()
    assert not np.isnan(values[[0, 2]]).any()


_MIXED = np.eye(4) / 4

# each public function that solves, with each kind of solve it makes
_SOLVING = {
    "ppt_verdict": (lambda: ppt_verdict(_MIXED), ("eigh", "eigvalsh")),
    "bmax": (lambda: bmax(_MIXED), ("eigh", "eigvalsh")),
    "concurrence": (lambda: concurrence(_MIXED), ("eigh", "eigvalsh")),
    "validate_density": (lambda: validate_density(_MIXED), ("eigh",)),
    "iterate": (lambda: iterate(_MIXED, "nonlocal", 2), ("eigh",)),
    "entanglement_interval": (lambda: entanglement_interval("local"), ("eigvalsh",)),
}
_SOLVING_KINDS = [(name, kind) for name, (_, kinds) in _SOLVING.items() for kind in kinds]


@pytest.mark.parametrize("name, kind", _SOLVING_KINDS, ids=["-".join(pair) for pair in _SOLVING_KINDS])
def test_a_solve_that_does_not_converge_raises_no_convergence_from_every_public_function(name, kind, monkeypatch):
    # a failed computation, not a bad argument: the RuntimeError of the errors contract, whichever solve failed
    fail_solves(monkeypatch, kind)
    with pytest.raises(RuntimeError, match="^Eigenvalues did not converge$") as info:
        _SOLVING[name][0]()
    assert type(info.value) is NoConvergenceError


def test_a_state_near_the_float_maximum_fails_the_solve_without_a_warning():
    huge = np.full((1, 4, 4), 1e308, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoConvergenceError, match="^Eigenvalues did not converge$"):
            _check_densities(huge)
