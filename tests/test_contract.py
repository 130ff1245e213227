"""The package boundary: every export returns, or raises what the contract in ``entclone.errors`` allows.

Each call draws every argument from one shared grammar: a valid value, or a
string, None, object(), a bool, a complex number, a 0-d array, an array of
the wrong shape, NaN or inf.  A call given only values its arguments take
must return; one given any other must raise ValueError.  No call may raise
another exception or a NumPy warning.  The callables are those of
``entclone.__all__``, so a new export is covered with no new test, and one
whose parameter name is not in ``VALID`` fails until it is classified.
"""

import enum
import inspect
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entclone

from helpers import werner

# exports that are not boundaries: result types, the error classes, and the constants
NOT_CALLED = {
    "AlphaSquaredInterval", "ConcurrenceResult", "SeparabilityVerdict", "SpectralDecomposition",
    *entclone.errors.__all__,
    "PAULIS", "PLANAR_PI4", "QUBIT_SHRINK", "REGISTER_SHRINK",
}
CALLED = sorted(set(entclone.__all__) - NOT_CALLED)

_RHO = werner(0.8)
_STATE_FILE = "state.json"

# one valid value per parameter name; an enum's "value" is its first member's, taken in _value
VALID = {
    "rho": _RHO, "m": _RHO, "psi": entclone.bell_state(entclone.BellKind.PSI_MINUS, 0.6),
    "alpha": 0.6, "kind": entclone.BellKind.PSI_MINUS, "scheme": "nonlocal", "n": 2,
    "tol": 1e-6, "seed": 3, "x": 0.3, "dims": (2, 2), "keep": "first",
    "cfg": entclone.PLANAR_PI4, "data": entclone.density_to_dict(_RHO), "path": _STATE_FILE,
    "a": entclone.PLANAR_PI4.a, "a_prime": entclone.PLANAR_PI4.a_prime,
    "b": entclone.PLANAR_PI4.b, "b_prime": entclone.PLANAR_PI4.b_prime,
}

# the shared grammar of values no argument should need
INVALID = {
    "str": "0.5", "none": None, "object": object(), "bool": True, "complex": 0.5 + 0j,
    "0-d": np.array(0.5), "shape": np.full((2, 3), 0.5), "nan": float("nan"), "inf": float("inf"),
}
# the grammar values an argument does take: arrays of amplitudes, and a relative file name
TAKEN = {("alpha", "0-d"), ("alpha", "shape"), ("path", "str")}


def _parameters(function):
    if isinstance(function, enum.EnumMeta):
        return ["value"]
    return [p.name for p in inspect.signature(function).parameters.values() if p.kind is p.POSITIONAL_OR_KEYWORD]


def _value(function, name, kind):
    if kind != "valid":
        return INVALID[kind]
    return next(iter(function)).value if name == "value" else VALID[name]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    # save_density and load_density take relative paths too: run every call inside a scratch directory
    cwd, path = os.getcwd(), tmp_path_factory.mktemp("contract")
    os.chdir(path)
    yield path
    os.chdir(cwd)


def test_every_export_is_called_or_classified():
    callables = {name for name in entclone.__all__ if callable(getattr(entclone, name))}
    assert set(CALLED) <= callables
    for name in CALLED:
        for parameter in _parameters(getattr(entclone, name)):
            assert parameter == "value" or parameter in VALID, f"{name}({parameter}) has no valid value"


# half the arguments valid, so a check behind the first argument is reached too
_KINDS = st.one_of(st.just("valid"), st.sampled_from(sorted(INVALID)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_export_returns_or_raises_a_contract_error(workdir, data):
    for path in (_STATE_FILE, INVALID["str"]):  # a file name is a path argument's string: both files hold a state
        entclone.save_density(workdir / path, _RHO)
    for name in CALLED:
        function = getattr(entclone, name)
        parameters = _parameters(function)
        kinds = [data.draw(_KINDS, label=f"{name}({parameter})") for parameter in parameters]
        refused = [(p, k) for p, k in zip(parameters, kinds) if k != "valid" and (p, k) not in TAKEN]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                function(*[_value(function, p, k) for p, k in zip(parameters, kinds)])
            except ValueError:
                assert refused, f"{name} refused valid arguments {dict(zip(parameters, kinds))}"
            else:
                assert not refused, f"{name} took {refused}"


_NAMED_CALLS = {
    "partial_trace(keep)": (lambda value: entclone.partial_trace(_RHO, (2, 2), value), "keep"),
    "iterate(scheme)": (lambda value: entclone.iterate(_RHO, value, 1), "scheme"),
    "entanglement_interval(scheme)": (lambda value: entclone.entanglement_interval(value), "scheme"),
    "bell_state(kind)": (lambda value: entclone.bell_state(value, 0.6), "kind"),
    # the enums' own lookup compared an array with each member's value; refused naming the class
    "CloneScheme": (entclone.CloneScheme, "CloneScheme"),
    "BellKind": (entclone.BellKind, "BellKind"),
}


@pytest.mark.parametrize("call", sorted(_NAMED_CALLS))
@pytest.mark.parametrize("value", [np.ones(3), np.array(["local", "first"])])
def test_an_array_for_a_name_is_refused_naming_the_parameter(call, value):
    # an array compared with a name in the enum lookup or with "first" raised NumPy's ambiguous-truth ValueError
    function, name = _NAMED_CALLS[call]
    with pytest.raises(ValueError, match=f"^{name} must be "):
        function(value)
