import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entclone import (
    PAULIS,
    PLANAR_PI4,
    BadDimensionError,
    ChshConfig,
    NotHermitianError,
    NotNormalizedError,
    OutOfRangeError,
    bmax,
    bmax_numeric,
    chsh_value,
    clone_local,
    clone_nonlocal,
    correlation_matrix,
    validate_density,
)
from entclone.bell import _correlations
from entclone.linalg import HERMITIAN_TOL
from entclone.states import NORM_TOL

from helpers import densities, psi_minus, random_density
from oracles import shrink_channel

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


def test_singlet_correlation_matrix_is_minus_identity():
    t = correlation_matrix(psi_minus(np.sqrt(0.5)))
    assert np.abs(t + np.eye(3)).max() < 1e-12


def test_correlation_matrix_of_partly_entangled_state():
    a, b = 0.6, 0.8
    t = correlation_matrix(psi_minus(a))
    assert np.abs(t - np.diag([-2 * a * b, -2 * a * b, -1.0])).max() < 1e-12


def _skew(delta):
    # I/4 + i (delta/4) sigma_x (x) sigma_y: real entries +-delta/4, so max |rho - rho^dagger| = delta/2,
    # and tr(rho sigma_x (x) sigma_y) = i delta puts delta into Im T[0, 1]
    return np.eye(4) / 4.0 + 1j * (delta / 4.0) * np.kron(PAULIS[0], PAULIS[1])


def test_correlation_imaginary_part_holds_its_tolerance_edge():
    assert np.array_equal(correlation_matrix(_skew(HERMITIAN_TOL / 2)), np.zeros((3, 3)))
    # at twice the bound the state itself is still within HERMITIAN_TOL (defect exactly 1e-10),
    # so the T check is what rejects it
    twice = _skew(2 * HERMITIAN_TOL)
    validate_density(twice)
    message = "correlation (0,1) has imaginary part 2.000e-10"
    with pytest.raises(NotHermitianError, match=re.escape(message)):
        correlation_matrix(twice)
    with pytest.raises(NotHermitianError, match=re.escape(message)):
        _correlations(np.stack([np.eye(4) / 4.0, psi_minus(np.sqrt(0.5)), twice]))


def test_correlation_along_axes():
    # the spin correlation E(a, b) = a . T b
    t = correlation_matrix(psi_minus(np.sqrt(0.5)))
    assert abs(Z @ t @ Z + 1.0) < 1e-12
    assert abs(X @ t @ Z) < 1e-12


def test_chsh_config_rejects_bad_directions():
    with pytest.raises(NotNormalizedError):
        ChshConfig(a=X, a_prime=X, b=2.0 * Z, b_prime=Z)
    with pytest.raises(BadDimensionError):
        ChshConfig(a=X, a_prime=X, b=np.array([0.0, 1.0]), b_prime=Z)


def test_chsh_value_takes_only_a_chsh_config():
    # unchecked, None escaped as AttributeError
    with pytest.raises(OutOfRangeError, match="^cfg must be a ChshConfig, got None$"):
        chsh_value(psi_minus(0.5), None)


@pytest.mark.parametrize("direction, shown", [([1 + 0j, 0, 0], "a complex number, got (1+0j)"),
                                              ([True, False, False], "a bool, got True")])
def test_chsh_config_takes_only_real_directions(direction, shown):
    # unchecked, NumPy dropped the imaginary part with a ComplexWarning, and True read as 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRangeError, match=f"^measurement direction must be real, not {re.escape(shown)}$"):
            ChshConfig(a=direction, a_prime=X, b=Z, b_prime=Z)


def test_chsh_config_validates_units():
    with pytest.raises(NotNormalizedError):
        ChshConfig(a=2.0 * X, a_prime=X, b=Z, b_prime=Z)


def test_chsh_config_holds_its_norm_tolerance_edge():
    ChshConfig(a=X * (1.0 + NORM_TOL / 2), a_prime=X, b=Z, b_prime=Z)
    with pytest.raises(NotNormalizedError):
        ChshConfig(a=X * (1.0 + 2 * NORM_TOL), a_prime=X, b=Z, b_prime=Z)


@pytest.mark.parametrize("direction", [[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [1e200, 0.0, 0.0]])
def test_a_non_finite_or_huge_direction_is_not_unit_length(direction):
    # abs(norm - 1) > NORM_TOL is False for a NaN norm: the NaN direction built a config and a nan correlation
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotNormalizedError, match="got norm (nan|inf)$"):
            ChshConfig(a=np.array(direction), a_prime=X, b=Z, b_prime=Z)
        with pytest.raises(NotNormalizedError, match="got norm (nan|inf)$"):
            ChshConfig(a=X, a_prime=X, b=np.array(direction), b_prime=Z)


def test_chsh_config_holds_read_only_copies_of_its_directions():
    a = np.array([np.sqrt(0.5), 0.0, np.sqrt(0.5)])
    cfg = ChshConfig(a=a, a_prime=X, b=Z, b_prime=Z)
    before = chsh_value(psi_minus(0.6), cfg)
    a[0] = 5.0
    assert cfg.a.tolist() == [np.sqrt(0.5), 0.0, np.sqrt(0.5)]
    assert chsh_value(psi_minus(0.6), cfg) == before
    with pytest.raises(ValueError, match="read-only"):
        cfg.b[0] = 5.0
    assert X.tolist() == [1.0, 0.0, 0.0]


def test_chsh_configs_compare_and_hash_by_identity():
    cfg = PLANAR_PI4
    twin = ChshConfig(a=cfg.a, a_prime=cfg.a_prime, b=cfg.b, b_prime=cfg.b_prime)
    assert cfg == cfg and cfg != twin
    assert hash(cfg) == hash(cfg)
    assert len({cfg, twin}) == 2


def test_planar_config_geometry():
    cfg = PLANAR_PI4
    for v in (cfg.a, cfg.a_prime, cfg.b, cfg.b_prime):
        assert abs(np.linalg.norm(v) - 1.0) < 1e-15
        assert v[1] == 0.0
    c = np.cos(np.pi / 4.0)
    assert abs(cfg.b @ cfg.a - c) < 1e-15
    assert abs(cfg.a @ cfg.b_prime - c) < 1e-15
    assert abs(cfg.b_prime @ cfg.a_prime - c) < 1e-15
    assert abs(cfg.b @ cfg.b_prime) < 1e-15


def test_singlet_reaches_tsirelson_at_planar_config():
    value = chsh_value(psi_minus(np.sqrt(0.5)), PLANAR_PI4)
    assert abs(value - 2.0 * np.sqrt(2.0)) < 1e-12


def test_pure_state_closed_forms():
    cfg = PLANAR_PI4
    for alpha in np.linspace(0.0, 1.0, 41):
        beta = np.sqrt(1.0 - alpha * alpha)
        rho = psi_minus(alpha)
        assert abs(chsh_value(rho, cfg) - np.sqrt(2.0) * (1.0 + 2.0 * alpha * beta)) < 1e-12
        assert abs(bmax(rho) - 2.0 * np.sqrt(1.0 + 4.0 * alpha * alpha * beta * beta)) < 1e-12


def test_bmax_endpoints():
    assert abs(bmax(psi_minus(0.0)) - 2.0) < 1e-12
    assert abs(bmax(psi_minus(1.0)) - 2.0) < 1e-12
    assert abs(chsh_value(psi_minus(0.0), PLANAR_PI4) - np.sqrt(2.0)) < 1e-12


def test_clone_peaks_at_maximal_entanglement():
    rho = psi_minus(np.sqrt(0.5))
    assert abs(bmax(clone_nonlocal(rho)) - 6.0 * np.sqrt(2.0) / 5.0) < 1e-12
    assert abs(bmax(clone_local(rho)) - 8.0 * np.sqrt(2.0) / 9.0) < 1e-12


def test_shrink_scales_the_correlation_matrix():
    rng = np.random.default_rng(40)
    for _ in range(10):
        rho = random_density(rng, 4)
        t = correlation_matrix(rho)
        for eta in (0.6, 2.0 / 3.0, 0.9):
            assert np.abs(correlation_matrix(shrink_channel(rho, eta)) - eta * t).max() < 1e-12


def test_bmax_numeric_agrees_on_random_states():
    rng = np.random.default_rng(41)
    for _ in range(10):
        rho = random_density(rng, 4)
        assert abs(bmax(rho) - bmax_numeric(rho)) < 1e-8


def test_bmax_numeric_is_deterministic():
    rng = np.random.default_rng(42)
    rho = random_density(rng, 4)
    assert bmax_numeric(rho, seed=5) == bmax_numeric(rho, seed=5) == bmax_numeric(rho, seed=np.int64(5))


@pytest.mark.parametrize("seed", [True, np.True_, 1.5, -1, np.int64(-1), "1", None, np.array(0.5), np.array(1)])
def test_bmax_numeric_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    # unchecked, True ran seed 1, 1.5 escaped as NumPy's TypeError and -1 as its ValueError
    message = f"seed must be a non-negative integer, got {seed!r}"
    with pytest.raises(OutOfRangeError, match=f"^{re.escape(message)}$"):
        bmax_numeric(psi_minus(np.sqrt(0.5)), seed)


# bmax_numeric(rho, seed).hex() for seeds 0-3: a reordered iteration or a changed draw shows
PINNED_BMAX_NUMERIC = {
    "psi_minus_0.3": ["0x1.5b415b05a401dp+1"] * 4,
    "random_full_rank": ["0x1.29d1570eee9e3p+0", "0x1.29d1570eee9e3p+0",
                         "0x1.29d1570eee9e4p+0", "0x1.29d1570eee9e3p+0"],
    "maximally_mixed": ["0x0.0p+0"] * 4,
}


def _pinned_state(name):
    if name == "psi_minus_0.3":
        return psi_minus(np.sqrt(0.3))
    if name == "random_full_rank":
        return random_density(np.random.default_rng(7), 4)
    return np.eye(4) / 4.0


@pytest.mark.parametrize("name", list(PINNED_BMAX_NUMERIC))
def test_bmax_numeric_values_are_pinned(name):
    rho = _pinned_state(name)
    assert [bmax_numeric(rho, seed=seed).hex() for seed in range(4)] == PINNED_BMAX_NUMERIC[name]


@settings(max_examples=60, deadline=None)
@given(densities())
def test_bmax_stays_within_tsirelson_on_random_states(rho):
    assert bmax(rho) <= 2.0 * np.sqrt(2.0) + 1e-12


@settings(max_examples=20, deadline=None)
@given(densities(), st.integers(0, 2**32 - 1))
def test_bmax_numeric_never_exceeds_the_closed_form(rho, seed):
    # the search evaluates B at unit directions, so it can only approach the maximum from below
    assert bmax_numeric(rho, seed=seed) <= bmax(rho) + 1e-9


def test_bmax_never_exceeds_tsirelson():
    rng = np.random.default_rng(43)
    for _ in range(50):
        value = bmax(random_density(rng, 4))
        assert value <= 2.0 * np.sqrt(2.0) + 1e-12
