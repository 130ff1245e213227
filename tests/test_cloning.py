import numpy as np
import pytest
from hypothesis import given, settings

from entclone import (
    BadDimensionError,
    CloneScheme,
    OutOfRangeError,
    QUBIT_SHRINK,
    REGISTER_SHRINK,
    BellKind,
    bell_state,
    clone_local,
    clone_nonlocal,
    density_from_pure,
    iterate,
    kron,
    partial_trace,
    shrink_channel,
    symmetric_cloner_joint,
)
from entclone.cloning import REMIX_TOL, bell_clone

from helpers import densities, random_density


def _bell_density(kind, alpha):
    return density_from_pure(bell_state(kind, alpha))


def test_shrink_channel_mixes_toward_identity():
    rng = np.random.default_rng(20)
    rho = random_density(rng, 4)
    out = shrink_channel(rho, 0.5)
    assert np.abs(out - (0.5 * rho + 0.125 * np.eye(4))).max() < 1e-15
    assert np.abs(shrink_channel(rho, 1.0) - rho).max() == 0.0


def test_shrink_channel_eta_bounds():
    rho = np.eye(4) / 4.0
    with pytest.raises(OutOfRangeError):
        shrink_channel(rho, 0.0)
    with pytest.raises(OutOfRangeError):
        shrink_channel(rho, 1.2)


def test_scheme_shrink_factors():
    assert QUBIT_SHRINK == 2.0 / 3.0
    assert REGISTER_SHRINK == 3.0 / 5.0


def test_pure_scheme_is_the_identity_channel():
    rho = random_density(np.random.default_rng(21), 4)
    assert CloneScheme.PURE.apply(rho) is rho
    assert [s.value for s in CloneScheme] == ["pure", "local", "nonlocal"]


@pytest.mark.parametrize("scheme", list(CloneScheme))
def test_bell_clone_applies_the_channel_once_then_iterates(scheme):
    alphas = [0.6, 0.0, 1.0]
    rhos = [_bell_density(BellKind.PSI_MINUS, alpha) for alpha in alphas]
    assert np.array_equal(bell_clone(scheme, alphas), [scheme.apply(rho) for rho in rhos])
    assert np.array_equal(bell_clone(scheme, alphas, 2), [iterate(rho, scheme, 3).states[-1] for rho in rhos])


def test_clone_nonlocal_is_register_shrink():
    rng = np.random.default_rng(21)
    for _ in range(5):
        rho = random_density(rng, 4)
        expect = 0.6 * rho + 0.1 * np.eye(4)
        assert np.abs(clone_nonlocal(rho) - expect).max() < 1e-14


def test_clone_nonlocal_known_entries():
    out = clone_nonlocal(_bell_density(BellKind.PSI_MINUS, 0.8))
    assert np.allclose(np.diag(out), [0.1, 0.484, 0.316, 0.1], atol=1e-12)
    assert abs(out[1, 2] - (-0.288)) < 1e-12


def test_clone_local_known_entries():
    alpha = np.sqrt(0.5)
    out = clone_local(_bell_density(BellKind.PSI_MINUS, alpha))
    assert np.allclose(np.diag(out), np.array([5.0, 13.0, 13.0, 5.0]) / 36.0, atol=1e-12)
    assert abs(out[1, 2] - (-8.0 / 36.0)) < 1e-12

    a, b = 0.6, 0.8
    out = clone_local(_bell_density(BellKind.PSI_MINUS, a))
    diag = np.array([5.0, 24.0 * a * a + 1.0, 24.0 * b * b + 1.0, 5.0]) / 36.0
    assert np.allclose(np.diag(out), diag, atol=1e-12)
    assert abs(out[1, 2] - (-16.0 * a * b / 36.0)) < 1e-12
    assert abs(np.trace(out) - 1.0) < 1e-14


def test_clone_local_shrinks_each_qubit_marginal():
    rng = np.random.default_rng(22)
    for _ in range(10):
        rho = random_density(rng, 4)
        out = clone_local(rho)
        for side in ("first", "second"):
            marginal = partial_trace(rho, (2, 2), side)
            clone_marginal = partial_trace(out, (2, 2), side)
            expect = QUBIT_SHRINK * marginal + (1.0 - QUBIT_SHRINK) * np.eye(2) / 2.0
            assert np.abs(clone_marginal - expect).max() < 1e-13


def test_joint_cloner_marginals_reproduce_shrink():
    rng = np.random.default_rng(23)
    for dim in (2, 4):
        eta = (dim + 2.0) / (2.0 * (dim + 1.0))
        for _ in range(5):
            rho = random_density(rng, dim)
            joint = symmetric_cloner_joint(rho)
            assert abs(np.trace(joint) - 1.0) < 1e-12
            for side in ("first", "second"):
                clone = partial_trace(joint, (dim, dim), side)
                assert np.abs(clone - shrink_channel(rho, eta)).max() < 1e-12


def test_joint_cloner_rejects_odd_dimension():
    with pytest.raises(BadDimensionError):
        symmetric_cloner_joint(np.eye(3) / 3.0)


def test_iterate_keeps_input_first():
    rho = _bell_density(BellKind.PSI_MINUS, 0.6)
    seq = iterate(rho, CloneScheme.NONLOCAL, 2)
    assert len(seq.states) == 3
    assert np.abs(seq.states[0] - rho).max() == 0.0
    assert seq.scheme is CloneScheme.NONLOCAL


def test_iterate_matches_closed_form():
    """n non-local rounds act as a single shrink by (3/5)^n."""
    rng = np.random.default_rng(24)
    for _ in range(5):
        rho = random_density(rng, 4)
        seq = iterate(rho, CloneScheme.NONLOCAL, 4)
        for n, state in enumerate(seq.states):
            f = 0.6 ** n
            expect = f * rho + (1.0 - f) * np.eye(4) / 4.0
            assert np.abs(state - expect).max() < 1e-10


def test_iterate_single_local_step_matches_direct():
    rng = np.random.default_rng(25)
    rho = random_density(rng, 4)
    seq = iterate(rho, CloneScheme.LOCAL, 1)
    assert np.abs(seq.states[1] - clone_local(rho)).max() < 1e-10


def test_iterate_rejects_negative_count():
    with pytest.raises(OutOfRangeError):
        iterate(np.eye(4) / 4.0, CloneScheme.LOCAL, -1)


def test_clones_of_product_states_stay_product_like():
    # local cloning of a product state keeps the marginals independent
    rng = np.random.default_rng(26)
    a = random_density(rng, 2)
    b = random_density(rng, 2)
    out = clone_local(kron(a, b))
    sa = shrink_channel(a, QUBIT_SHRINK)
    sb = shrink_channel(b, QUBIT_SHRINK)
    assert np.abs(out - kron(sa, sb)).max() < 1e-13


@settings(max_examples=60, deadline=None)
@given(densities())
def test_public_clones_and_one_iterate_round_match_the_scheme_channel(rho):
    local = clone_local(rho)
    nonlocal_ = clone_nonlocal(rho)
    assert np.array_equal(local, CloneScheme.LOCAL.apply(rho))
    assert np.array_equal(nonlocal_, CloneScheme.NONLOCAL.apply(rho))
    for scheme, direct in ((CloneScheme.LOCAL, local), (CloneScheme.NONLOCAL, nonlocal_)):
        assert np.abs(iterate(rho, scheme, 1).states[1] - direct).max() <= REMIX_TOL
