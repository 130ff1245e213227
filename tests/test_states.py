import json

import numpy as np
import pytest

from entclone import (
    BadDimensionError,
    BadTraceError,
    BellKind,
    NotHermitianError,
    NotNormalizedError,
    NotPsdError,
    OutOfRangeError,
    bell_state,
    clone_local,
    clone_nonlocal,
    concurrence,
    concurrence_xstate_oracle,
    correlation_matrix,
    density_from_dict,
    density_from_pure,
    density_to_dict,
    load_density,
    ppt_verdict,
    save_density,
    validate_density,
)

from helpers import random_density


def test_bell_state_components():
    a, b = 0.6, 0.8
    assert np.allclose(bell_state(BellKind.PSI_MINUS, a), [0, a, -b, 0])
    assert np.allclose(bell_state(BellKind.PSI_PLUS, a), [0, a, b, 0])
    assert np.allclose(bell_state(BellKind.PHI_MINUS, a), [a, 0, 0, -b])
    assert np.allclose(bell_state(BellKind.PHI_PLUS, a), [a, 0, 0, b])


def test_bell_state_is_normalized_across_alpha():
    for alpha in np.linspace(0.0, 1.0, 21):
        for kind in BellKind:
            psi = bell_state(kind, alpha)
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_bell_state_alpha_bounds():
    with pytest.raises(OutOfRangeError):
        bell_state(BellKind.PSI_MINUS, -0.01)
    with pytest.raises(OutOfRangeError):
        bell_state(BellKind.PSI_MINUS, 1.01)


def test_density_from_pure_projector():
    psi = bell_state(BellKind.PSI_MINUS, 0.6)
    rho = density_from_pure(psi)
    assert abs(np.trace(rho) - 1.0) < 1e-14
    assert np.abs(rho @ rho - rho).max() < 1e-14


def test_density_from_pure_rejects_unnormalized():
    with pytest.raises(NotNormalizedError):
        density_from_pure(np.array([1.0, 1.0, 0.0, 0.0]))


def test_validate_density_accepts_random_states():
    rng = np.random.default_rng(10)
    for _ in range(20):
        rho = random_density(rng, 4)
        assert validate_density(rho) is not None


def test_validate_density_failure_modes():
    nonherm = np.eye(4, dtype=complex)
    nonherm[0, 1] = 1e-3
    with pytest.raises(NotHermitianError):
        validate_density(nonherm / 4.0)
    with pytest.raises(NotPsdError):
        validate_density(np.diag([1.5, -0.5, 0.0, 0.0]))
    with pytest.raises(BadTraceError):
        validate_density(np.eye(4) / 2.0)


def _coherence_swapped_local_output(alpha):
    # plausible-looking variant of the local cloning output with the corner
    # and coherence weights interchanged; its corners are negative, so it is
    # not a state at all
    beta = np.sqrt(1.0 - alpha * alpha)
    m = np.zeros((4, 4))
    m[0, 0] = m[3, 3] = -4.0 * alpha * beta / 36.0
    m[1, 1] = (24.0 * alpha * alpha + 1.0) / 36.0
    m[2, 2] = (24.0 * beta * beta + 1.0) / 36.0
    m[1, 2] = m[2, 1] = 5.0 / 36.0
    return m


def test_validate_density_rejects_coherence_swapped_variant():
    """The check order matters here: the variant also has a wrong trace, but
    positivity is checked first and is the failure worth reporting."""
    m = _coherence_swapped_local_output(np.sqrt(0.5))
    assert abs(np.trace(m) - 22.0 / 36.0) < 1e-14
    with pytest.raises(NotPsdError):
        validate_density(m)


def test_dict_round_trip():
    rng = np.random.default_rng(11)
    rho = random_density(rng, 4)
    again = density_from_dict(density_to_dict(rho))
    assert np.abs(again - rho).max() < 1e-15


def test_density_from_dict_malformed():
    with pytest.raises(ValueError):
        density_from_dict({"re": [[1.0]]})
    with pytest.raises(ValueError):
        density_from_dict({"dim": 2, "re": "oops", "im": "oops"})
    with pytest.raises(BadDimensionError):
        density_from_dict({"dim": 4, "re": np.eye(2).tolist(), "im": np.zeros((2, 2)).tolist()})


def test_file_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    rho = random_density(rng, 4)
    path = tmp_path / "state.json"
    save_density(path, rho)
    assert np.abs(load_density(path) - rho).max() < 1e-15


def test_load_density_bad_files(tmp_path):
    with pytest.raises(ValueError):
        load_density(tmp_path / "missing.json")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    with pytest.raises(ValueError):
        load_density(garbled)
    listing = tmp_path / "list.json"
    listing.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ValueError):
        load_density(listing)
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 3000)
    with pytest.raises(ValueError, match="too deeply"):
        load_density(nested)
    infinite = tmp_path / "infinite.json"
    infinite.write_text('{"dim": 1e400, "re": [[1.0]], "im": [[0.0]]}')
    with pytest.raises(ValueError, match="malformed density payload"):
        load_density(infinite)


TWO_QUBIT_FUNCTIONS = [
    clone_local,
    clone_nonlocal,
    ppt_verdict,
    concurrence,
    correlation_matrix,
    concurrence_xstate_oracle,
]


@pytest.mark.parametrize("fn", TWO_QUBIT_FUNCTIONS, ids=lambda fn: fn.__name__)
def test_two_qubit_functions_check_their_argument(fn):
    with pytest.raises(BadDimensionError):
        fn(np.eye(2) / 2.0)
    with pytest.raises(NotPsdError):
        fn(np.diag([0.6, 0.5, -0.1, 0.0]))
