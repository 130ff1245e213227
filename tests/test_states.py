import json
import re
import warnings

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
    correlation_matrix,
    density_from_dict,
    density_from_pure,
    density_to_dict,
    load_density,
    ppt_verdict,
    save_density,
    validate_density,
)

from entclone.states import NORM_TOL

from helpers import random_density
from oracles import concurrence_xstate_oracle


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


@pytest.mark.parametrize("alpha", [True, False, np.True_, np.array([True, False]), [False]])
def test_bell_state_rejects_a_bool_amplitude(alpha):
    # unchecked, True read as 1 and PSI_MINUS built |01>
    with pytest.raises(OutOfRangeError, match="^alpha must be a real amplitude, not a bool, got "):
        bell_state(BellKind.PSI_MINUS, alpha)


def test_bell_state_takes_the_enum_or_its_value():
    assert bell_state("phi_plus", 0.6).tobytes() == bell_state(BellKind.PHI_PLUS, 0.6).tobytes()
    with pytest.raises(ValueError, match="^'bell' is not a valid BellKind$"):
        bell_state("bell", 0.6)


@pytest.mark.parametrize("alpha, shown", [("0.5", "a string, got '0.5'"), (0.5 + 0j, "a complex number, got (0.5+0j)"),
                                          (None, "an object, got None"), (["0.5"], "a string, got '0.5'")])
def test_bell_state_rejects_an_amplitude_that_is_not_a_real_number(alpha, shown):
    # unchecked, "0.5" was parsed into the alpha = 0.5 ket, None read as nan and a complex raised TypeError
    with pytest.raises(OutOfRangeError, match=f"^alpha must be a real amplitude, not {re.escape(shown)}$"):
        bell_state(BellKind.PSI_MINUS, alpha)


def test_matrices_and_kets_of_strings_are_not_parsed():
    with pytest.raises(OutOfRangeError, match="^matrix entries must be numbers, not a string, got '1'$"):
        validate_density([["1"]])
    with pytest.raises(OutOfRangeError, match="^ket entries must be numbers, not a string, got '1'$"):
        density_from_pure(["1", "0"])


def test_density_from_pure_projector():
    psi = bell_state(BellKind.PSI_MINUS, 0.6)
    rho = density_from_pure(psi)
    assert abs(np.trace(rho) - 1.0) < 1e-14
    assert np.abs(rho @ rho - rho).max() < 1e-14


@pytest.mark.parametrize("ket", [0.5, np.array(0.5)])
def test_density_from_pure_rejects_a_ket_with_no_axis(ket):
    # NumPy's vecdot raised "Input operand 0 does not have enough dimensions", naming no argument
    with pytest.raises(BadDimensionError, match=r"^ket must be a vector or a stack of vectors, got shape \(\)$"):
        density_from_pure(ket)


def test_density_from_pure_rejects_unnormalized():
    with pytest.raises(NotNormalizedError):
        density_from_pure(np.array([1.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, np.inf), 1e200])
def test_density_from_pure_rejects_a_non_finite_or_huge_entry(entry):
    # a NaN norm passed abs(norm - 1) > NORM_TOL, and NaN or inf entries came out as NaN projectors
    ket = np.array([entry, 0.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for psi in (ket, np.stack([bell_state(BellKind.PSI_MINUS, 0.6), ket])):
            with pytest.raises(NotNormalizedError, match="got (nan|inf)$"):
                density_from_pure(psi)


def test_density_from_pure_holds_its_norm_tolerance_edge():
    ket = bell_state(BellKind.PSI_MINUS, np.sqrt(0.5))
    density_from_pure(ket * (1.0 + NORM_TOL / 2))
    with pytest.raises(NotNormalizedError):
        density_from_pure(ket * (1.0 + 2 * NORM_TOL))


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


@pytest.mark.parametrize("dim, size", [(4.7, 4), (4.0, 4), ("4", 4), (True, 1), (float("inf"), 1)])
def test_density_from_dict_takes_only_an_integer_dim(dim, size):
    # each dim is one int() reads as the size of the arrays beside it, except infinity
    payload = density_to_dict(np.eye(size) / size)
    payload["dim"] = dim
    with pytest.raises(ValueError, match="^malformed density payload: dim must be a JSON integer, got ") as info:
        density_from_dict(payload)
    assert type(info.value) is ValueError


def test_state_payloads_and_files_reject_bad_arguments_with_value_errors(tmp_path):
    # density_from_dict and save_density escaped as IndexError, load_density and a bad path as TypeError,
    # and density_to_dict(np.ones(3)) made a payload that load_density could not read
    with pytest.raises(ValueError, match="^state file must hold a JSON object$"):
        density_from_dict(np.eye(2))
    with pytest.raises(BadDimensionError):
        density_to_dict(np.ones(3))
    with pytest.raises(OutOfRangeError):
        save_density(tmp_path / "none.json", None)
    assert not (tmp_path / "none.json").exists()
    with pytest.raises(ValueError, match="^cannot write state file: "):
        save_density(object(), np.eye(4) / 4)
    with pytest.raises(ValueError, match="^cannot read state file: "):
        load_density(object())
    message = "malformed density payload: re must hold real numbers, not a string, got '1'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        density_from_dict({"dim": 1, "re": [["1"]], "im": [[0]]})


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
