import numpy as np
import pytest

from entclone import (
    BadDimensionError,
    BellKind,
    ChshConfig,
    NotNormalizedError,
    bell_state,
    bmax,
    bmax_numeric,
    chsh_value,
    clone_local,
    clone_nonlocal,
    correlation,
    correlation_matrix,
    density_from_pure,
    planar_pi4_config,
    shrink_channel,
)

from helpers import random_density

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


def _psi_minus(alpha):
    return density_from_pure(bell_state(BellKind.PSI_MINUS, alpha))


def test_singlet_correlation_matrix_is_minus_identity():
    t = correlation_matrix(_psi_minus(np.sqrt(0.5)))
    assert np.abs(t + np.eye(3)).max() < 1e-12


def test_correlation_matrix_of_partly_entangled_state():
    a, b = 0.6, 0.8
    t = correlation_matrix(_psi_minus(a))
    assert np.abs(t - np.diag([-2 * a * b, -2 * a * b, -1.0])).max() < 1e-12


def test_correlation_along_axes():
    rho = _psi_minus(np.sqrt(0.5))
    assert abs(correlation(rho, Z, Z) + 1.0) < 1e-12
    assert abs(correlation(rho, X, Z)) < 1e-12


def test_correlation_rejects_bad_directions():
    rho = _psi_minus(0.5)
    with pytest.raises(NotNormalizedError):
        correlation(rho, 2.0 * Z, Z)
    with pytest.raises(BadDimensionError):
        correlation(rho, np.array([0.0, 1.0]), Z)


def test_chsh_config_validates_units():
    with pytest.raises(NotNormalizedError):
        ChshConfig(a=2.0 * X, a_prime=X, b=Z, b_prime=Z)


def test_planar_config_geometry():
    cfg = planar_pi4_config()
    for v in (cfg.a, cfg.a_prime, cfg.b, cfg.b_prime):
        assert abs(np.linalg.norm(v) - 1.0) < 1e-15
        assert v[1] == 0.0
    c = np.cos(np.pi / 4.0)
    assert abs(cfg.b @ cfg.a - c) < 1e-15
    assert abs(cfg.a @ cfg.b_prime - c) < 1e-15
    assert abs(cfg.b_prime @ cfg.a_prime - c) < 1e-15
    assert abs(cfg.b @ cfg.b_prime) < 1e-15


def test_singlet_reaches_tsirelson_at_planar_config():
    value = chsh_value(_psi_minus(np.sqrt(0.5)), planar_pi4_config())
    assert abs(value - 2.0 * np.sqrt(2.0)) < 1e-12


def test_pure_state_closed_forms():
    cfg = planar_pi4_config()
    for alpha in np.linspace(0.0, 1.0, 41):
        beta = np.sqrt(1.0 - alpha * alpha)
        rho = _psi_minus(alpha)
        assert abs(chsh_value(rho, cfg) - np.sqrt(2.0) * (1.0 + 2.0 * alpha * beta)) < 1e-12
        assert abs(bmax(rho) - 2.0 * np.sqrt(1.0 + 4.0 * alpha * alpha * beta * beta)) < 1e-12


def test_bmax_endpoints():
    assert abs(bmax(_psi_minus(0.0)) - 2.0) < 1e-12
    assert abs(bmax(_psi_minus(1.0)) - 2.0) < 1e-12
    assert abs(chsh_value(_psi_minus(0.0), planar_pi4_config()) - np.sqrt(2.0)) < 1e-12


def test_clone_peaks_at_maximal_entanglement():
    rho = _psi_minus(np.sqrt(0.5))
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
    assert bmax_numeric(rho, seed=5) == bmax_numeric(rho, seed=5)


def test_bmax_never_exceeds_tsirelson():
    rng = np.random.default_rng(43)
    for _ in range(50):
        value = bmax(random_density(rng, 4))
        assert value <= 2.0 * np.sqrt(2.0) + 1e-12
