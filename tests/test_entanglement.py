import numpy as np
import pytest

from entclone import (
    CloneScheme,
    OutOfRangeError,
    binary_entropy,
    clone_local,
    clone_nonlocal,
    concurrence,
    entanglement_of_formation,
    iterate,
    spin_flip,
)

from entclone.entanglement import NOISE_FLOOR

from helpers import psi_minus, random_density, werner
from oracles import NotXShapeError, concurrence_xstate_oracle


def test_spin_flip_leaves_singlet_alone():
    rho = psi_minus(np.sqrt(0.5))
    assert np.abs(spin_flip(rho) - rho).max() < 1e-15


def test_spin_flip_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
        spin_flip(np.full((4, 4), np.nan))


def test_spin_flip_is_an_involution():
    rng = np.random.default_rng(50)
    rho = random_density(rng, 4)
    assert np.abs(spin_flip(spin_flip(rho)) - rho).max() < 1e-15


def test_concurrence_of_singlet_is_one():
    result = concurrence(psi_minus(np.sqrt(0.5)))
    assert abs(result.concurrence - 1.0) < 1e-12
    assert np.allclose(result.lambdas, [1.0, 0.0, 0.0, 0.0], atol=1e-7)


def test_concurrence_results_compare_and_hash_by_identity():
    result, twin = concurrence(psi_minus(0.6)), concurrence(psi_minus(0.6))
    assert result.lambdas.tobytes() == twin.lambdas.tobytes()
    assert result == result and result != twin
    assert hash(result) == hash(result)
    assert len({result, twin}) == 2


def test_concurrence_of_separable_states_is_zero():
    assert concurrence(np.eye(4) / 4.0).concurrence == 0.0
    rng = np.random.default_rng(51)
    a = random_density(rng, 2)
    b = random_density(rng, 2)
    assert concurrence(np.kron(a, b)).concurrence < 1e-8


def test_concurrence_of_pure_states():
    for alpha in np.linspace(0.0, 1.0, 21):
        beta = np.sqrt(1.0 - alpha * alpha)
        c = concurrence(psi_minus(alpha)).concurrence
        assert abs(c - 2.0 * alpha * beta) < 1e-9


def test_werner_concurrence():
    # mixing the singlet with white noise: C = max(0, (3p - 1) / 2)
    assert abs(concurrence(werner(0.8)).concurrence - 0.7) < 1e-12
    assert concurrence(werner(1.0 / 3.0)).concurrence < 1e-9
    assert concurrence(werner(0.2)).concurrence == 0.0


def test_concurrence_holds_its_noise_floor_edge():
    # sqrt(rho) rho~ sqrt(rho) is rho^2 for a Werner state: three eigenvalues ((1 - p) / 4)^2
    half = concurrence(werner(1.0 - 4.0 * np.sqrt(NOISE_FLOOR / 2))).lambdas
    twice = concurrence(werner(1.0 - 4.0 * np.sqrt(2 * NOISE_FLOOR))).lambdas
    assert half[1:].tolist() == [0.0, 0.0, 0.0]
    assert (twice[1:] > 0.0).all()


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) < 1e-15
    assert abs(binary_entropy(0.11) - binary_entropy(0.89)) < 1e-15
    assert binary_entropy(np.float64(0.5)) == binary_entropy(np.float32(0.5)) == binary_entropy(0.5)
    assert binary_entropy(np.int64(1)) == binary_entropy(1) == 0.0
    with pytest.raises(OutOfRangeError):
        binary_entropy(-0.01)
    with pytest.raises(OutOfRangeError):
        binary_entropy(1.01)


@pytest.mark.parametrize("x", [None, "0.5", 0.5j, True, False, np.True_, np.False_, [0.5]])
def test_binary_entropy_takes_only_a_real_number(x):
    # unchecked, True read as 1 and returned 0.0, and None or "0.5" escaped as a bare comparison TypeError
    with pytest.raises(OutOfRangeError, match=r"^binary entropy argument must lie in \[0, 1\], got "):
        binary_entropy(x)


def test_eof_of_singlet_is_one():
    assert abs(entanglement_of_formation(psi_minus(np.sqrt(0.5))) - 1.0) < 1e-12


def test_eof_of_product_state_is_zero():
    rng = np.random.default_rng(52)
    a = random_density(rng, 2)
    b = random_density(rng, 2)
    assert entanglement_of_formation(np.kron(a, b)) < 1e-12


def test_eof_after_each_cloning_round():
    singlet = psi_minus(np.sqrt(0.5))
    states = iterate(singlet, CloneScheme.NONLOCAL, 3)
    values = [entanglement_of_formation(s) for s in states]
    assert abs(values[0] - 1.0) < 1e-12
    assert abs(values[1] - 0.250224912) < 1e-9
    assert abs(values[2] - 0.005093855) < 1e-9
    assert values[3] == 0.0


def test_eof_is_monotone_in_concurrence():
    values = [entanglement_of_formation(werner(p)) for p in (0.5, 0.7, 0.9, 1.0)]
    assert all(lo < hi for lo, hi in zip(values, values[1:]))


def test_cloned_singlet_concurrences():
    singlet = psi_minus(np.sqrt(0.5))
    assert abs(concurrence(clone_local(singlet)).concurrence - 1.0 / 6.0) < 1e-12
    assert abs(concurrence(clone_nonlocal(singlet)).concurrence - 0.4) < 1e-12


def test_nonlocal_clone_concurrence_closed_form():
    for alpha in np.linspace(0.0, 1.0, 41):
        beta = np.sqrt(1.0 - alpha * alpha)
        c = concurrence(clone_nonlocal(psi_minus(alpha))).concurrence
        assert abs(c - 2.0 * max(0.0, 0.6 * alpha * beta - 0.1)) < 1e-9


def test_xstate_oracle_matches_general_concurrence():
    rng = np.random.default_rng(53)
    for _ in range(50):
        d = rng.dirichlet(np.ones(4))
        inner = rng.uniform(-1.0, 1.0) * np.sqrt(d[1] * d[2])
        outer = rng.uniform(-1.0, 1.0) * np.sqrt(d[0] * d[3])
        rho = np.diag(d).astype(complex)
        rho[1, 2] = rho[2, 1] = inner
        rho[0, 3] = rho[3, 0] = outer
        expected = concurrence(rho).concurrence
        assert abs(concurrence_xstate_oracle(rho) - expected) < 1e-9


def test_xstate_oracle_on_cloned_singlet():
    value = concurrence_xstate_oracle(clone_local(psi_minus(np.sqrt(0.5))))
    assert abs(value - 1.0 / 6.0) < 1e-12


def test_xstate_oracle_rejects_dense_states():
    rng = np.random.default_rng(54)
    with pytest.raises(NotXShapeError):
        concurrence_xstate_oracle(random_density(rng, 4))
