import re

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
    entanglement_of_formation,
    iterate,
    partial_trace,
)
from entclone import cloning
from entclone.cli import _clone_block
from entclone.cloning import REMIX_TOL, _channel, _iterate, bell_clone
from entclone.linalg import _psd_eigh

from helpers import densities, random_density
from oracles import (
    cloner_isometry,
    machine_joint_local,
    machine_joint_nonlocal,
    shrink_channel,
    symmetric_cloner_joint,
)


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
    assert _channel(CloneScheme.PURE, rho) is rho
    assert [s.value for s in CloneScheme] == ["pure", "local", "nonlocal"]


@pytest.mark.parametrize("scheme", list(CloneScheme))
def test_bell_clone_applies_the_channel_once_then_iterates(scheme):
    alphas = [0.6, 0.0, 1.0]
    rhos = [_bell_density(BellKind.PSI_MINUS, alpha) for alpha in alphas]
    assert np.array_equal(bell_clone(scheme, alphas), [_channel(scheme, rho) for rho in rhos])
    assert np.array_equal(_clone_block(scheme, 2, alphas), [iterate(rho, scheme, 3)[-1] for rho in rhos])


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
    # for d = 4 each marginal of the Buzek-Hillery joint state is the package's non-local channel
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
                if dim == 4:
                    assert np.abs(clone - _channel(CloneScheme.NONLOCAL, rho)).max() < 1e-12


def test_joint_cloner_rejects_odd_dimension():
    with pytest.raises(BadDimensionError):
        symmetric_cloner_joint(np.eye(3) / 3.0)


def test_iterate_keeps_input_first():
    rho = _bell_density(BellKind.PSI_MINUS, 0.6)
    states = iterate(rho, CloneScheme.NONLOCAL, 2)
    assert type(states) is list and len(states) == 3
    assert np.abs(states[0] - rho).max() == 0.0


def test_iterate_matches_closed_form():
    """n non-local rounds act as a single shrink by (3/5)^n."""
    rng = np.random.default_rng(24)
    for _ in range(5):
        rho = random_density(rng, 4)
        for n, state in enumerate(iterate(rho, CloneScheme.NONLOCAL, 4)):
            f = 0.6 ** n
            expect = f * rho + (1.0 - f) * np.eye(4) / 4.0
            assert np.abs(state - expect).max() < 1e-10


def test_iterate_single_local_step_matches_direct():
    rng = np.random.default_rng(25)
    rho = random_density(rng, 4)
    assert np.abs(iterate(rho, CloneScheme.LOCAL, 1)[1] - clone_local(rho)).max() < 1e-10


def test_iterate_rejects_negative_count():
    with pytest.raises(OutOfRangeError):
        iterate(np.eye(4) / 4.0, CloneScheme.LOCAL, -1)


@pytest.mark.parametrize("n, shown", [(True, "True"), (2.0, "2.0"), ("2", "'2'"), (None, "None"),
                                      (np.array(0.5), "array(0.5)"), (np.array(2), "array(2)")])
def test_iterate_rejects_a_count_that_is_not_an_integer(n, shown):
    # np.eye(3) is no state: the count is checked first
    for rho in (np.eye(4) / 4.0, np.eye(3)):
        with pytest.raises(OutOfRangeError, match=f"^step count must be a non-negative integer, got {re.escape(shown)}$"):
            iterate(rho, CloneScheme.LOCAL, n)
    assert len(iterate(np.eye(4) / 4.0, CloneScheme.LOCAL, np.int64(2))) == 3


def test_iterate_takes_the_enum_or_its_value():
    rho = _bell_density(BellKind.PSI_MINUS, 0.6)
    by_value, by_member = iterate(rho, "nonlocal", 2), iterate(rho, CloneScheme.NONLOCAL, 2)
    assert [s.tobytes() for s in by_value] == [s.tobytes() for s in by_member]
    with pytest.raises(ValueError, match="^'global' is not a valid CloneScheme$"):
        iterate(rho, "global", 2)


def test_clones_of_product_states_stay_product_like():
    # local cloning of a product state keeps the marginals independent
    rng = np.random.default_rng(26)
    a = random_density(rng, 2)
    b = random_density(rng, 2)
    out = clone_local(np.kron(a, b))
    sa = shrink_channel(a, QUBIT_SHRINK)
    sb = shrink_channel(b, QUBIT_SHRINK)
    assert np.abs(out - np.kron(sa, sb)).max() < 1e-13


@settings(max_examples=60, deadline=None)
@given(densities())
def test_public_clones_and_one_iterate_round_match_the_scheme_channel(rho):
    local = clone_local(rho)
    nonlocal_ = clone_nonlocal(rho)
    assert np.array_equal(local, _channel(CloneScheme.LOCAL, rho))
    assert np.array_equal(nonlocal_, _channel(CloneScheme.NONLOCAL, rho))
    for scheme, direct in ((CloneScheme.LOCAL, local), (CloneScheme.NONLOCAL, nonlocal_)):
        assert np.abs(iterate(rho, scheme, 1)[1] - direct).max() <= REMIX_TOL


@pytest.mark.parametrize("scheme", [CloneScheme.LOCAL, CloneScheme.NONLOCAL])
def test_remix_check_holds_its_tolerance_edge(scheme, monkeypatch):
    # shift only the direct channel on the (N, 4, 4) stack, not the (N, 4, 4, 4) projector clones
    original = _channel
    delta = {}

    def shifted(scheme, rho, out=None):
        out = original(scheme, rho, out=out)
        if rho.ndim == 3:
            out = out.copy()
            out[-1, 0, 0] += delta["value"]
        return out

    monkeypatch.setattr(cloning, "_channel", shifted)
    stack = np.stack([_bell_density(BellKind.PSI_MINUS, np.sqrt(0.5)), np.eye(4) / 4.0])
    singlet = stack[0]
    delta["value"] = REMIX_TOL / 2
    assert len(list(_iterate(stack, _psd_eigh(stack), scheme, 2))) == 3
    assert len(iterate(singlet, scheme, 2)) == 3
    delta["value"] = 2 * REMIX_TOL
    message = "eigenbasis remixing deviates from the direct channel by 2.000e-10"
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        list(_iterate(stack, _psd_eigh(stack), scheme, 2))
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        iterate(singlet, scheme, 2)


@pytest.mark.parametrize(
    "scheme, lowest", [(CloneScheme.PURE, 0.0), (CloneScheme.LOCAL, 1.0 / 36.0), (CloneScheme.NONLOCAL, 0.1)]
)
def test_every_scheme_is_completely_positive_and_trace_preserving(scheme, lowest):
    # _channel is affine; its linear extension L(X) = _channel(X) - (1 - tr X) _channel(0) is the channel
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)  # units[4 i + j] = |i><j|
    traces = np.trace(units, axis1=-2, axis2=-1)
    images = _channel(scheme, units) - (1.0 - traces)[:, None, None] * _channel(scheme, np.zeros((4, 4)))
    # Choi matrix sum_ij |i><j| (x) L(|i><j|), indexed [(i, a), (j, b)]
    choi = images.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16)
    assert np.abs(choi - choi.conj().T).max() == 0.0
    assert abs(np.linalg.eigvalsh(choi)[0] - lowest) < 1e-12
    assert np.abs(np.trace(images, axis1=-2, axis2=-1) - traces).max() < 1e-15


# the cloning machine itself: an explicit isometry onto two copies and a machine, then the partial traces
MACHINE_TOL = 1e-15
_MACHINES = {CloneScheme.LOCAL: machine_joint_local, CloneScheme.NONLOCAL: machine_joint_nonlocal}


def _clone_and_machine(joint):
    # the two marginals of a 16x16 joint state ordered (clone pair, machine)
    joint = joint.reshape(4, 4, 4, 4)
    return np.einsum("imjm->ij", joint), np.einsum("mimj->ij", joint)


def _entropy_bits(rho):
    w = np.linalg.eigvalsh(rho)
    w = w[w > 1e-15]
    return float(-(w * np.log2(w)).sum())


@pytest.mark.parametrize("d", [2, 4])
def test_the_cloning_machine_is_an_isometry_onto_the_joint_clones(d):
    v = cloner_isometry(d)
    assert v.shape == (d**3, d)
    assert np.abs(v.conj().T @ v - np.eye(d)).max() < MACHINE_TOL
    rho = random_density(np.random.default_rng(40 + d), d)
    out = (v @ rho @ v.conj().T).reshape(d * d, d, d * d, d)
    assert np.abs(np.einsum("ikjk->ij", out) - symmetric_cloner_joint(rho)).max() < MACHINE_TOL


@pytest.mark.parametrize("d, shrink", [(2, QUBIT_SHRINK), (4, REGISTER_SHRINK)])
def test_shrink_factors_are_read_off_the_cloning_machine(d, shrink):
    # the first copy of |0> is eta |0><0| + (1 - eta) I/d, so its <0|.|0> is eta + (1 - eta)/d
    ket = cloner_isometry(d)[:, :1]
    clone = np.einsum("ikjk->ij", (ket @ ket.conj().T).reshape(d, d * d, d, d * d))
    eta = (d * clone[0, 0].real - 1.0) / (d - 1.0)
    assert np.abs(clone - (eta * np.diag(np.eye(d)[0]) + (1.0 - eta) * np.eye(d) / d)).max() < MACHINE_TOL
    assert abs(eta - shrink) < MACHINE_TOL


def test_both_channels_equal_the_cloning_machine_on_random_states():
    for k in range(20):
        rho = random_density(np.random.default_rng(500 + k))
        for public, machine in ((clone_local, machine_joint_local), (clone_nonlocal, machine_joint_nonlocal)):
            clone, _ = _clone_and_machine(machine(rho))
            assert np.abs(public(rho) - clone).max() < MACHINE_TOL


def test_both_channels_equal_the_cloning_machine_on_the_bell_grid():
    # the stacked channel of a sweep block against the machine on each row's input
    alphas = np.linspace(0.0, 1.0, 41)
    for scheme, machine in _MACHINES.items():
        for clone, alpha in zip(bell_clone(scheme, alphas), alphas):
            expected, _ = _clone_and_machine(machine(_bell_density(BellKind.PSI_MINUS, alpha)))
            assert np.abs(clone - expected).max() < MACHINE_TOL


@pytest.mark.parametrize("scheme", list(_MACHINES))
def test_entanglement_lost_to_the_clones_is_shared_with_the_machine(scheme):
    # a pure input leaves the copies and the machine in a pure state; wherever the clone pair holds less EoF than the
    # input, the clone pair and its machine share positive mutual information S(C) + S(M) - S(CM)
    for alpha in np.linspace(0.0, 1.0, 21)[1:-1]:
        rho = _bell_density(BellKind.PSI_MINUS, alpha)
        joint = _MACHINES[scheme](rho)
        clone, machine = _clone_and_machine(joint)
        assert entanglement_of_formation(clone) < entanglement_of_formation(rho)
        assert _entropy_bits(clone) + _entropy_bits(machine) - _entropy_bits(joint) > 1e-9
