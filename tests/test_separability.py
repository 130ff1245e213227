import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from entclone import (
    BadDimensionError,
    CloneScheme,
    NoConvergenceError,
    OutOfRangeError,
    clone_local,
    clone_nonlocal,
    concurrence,
    entanglement_interval,
    ppt_verdict,
)

from entclone.separability import PPT_TOL, _verdict

from helpers import psi_minus, random_density, werner

LOCAL_LOW = 0.5 - np.sqrt(39.0) / 16.0
LOCAL_HIGH = 0.5 + np.sqrt(39.0) / 16.0
NONLOCAL_LOW = 0.5 - np.sqrt(2.0) / 3.0
NONLOCAL_HIGH = 0.5 + np.sqrt(2.0) / 3.0


def test_singlet_is_entangled():
    rho = psi_minus(np.sqrt(0.5))
    verdict = ppt_verdict(rho)
    assert verdict.entangled
    assert abs(verdict.min_pt_eigenvalue - (-0.5)) < 1e-12


def test_maximally_mixed_is_separable():
    verdict = ppt_verdict(np.eye(4) / 4.0)
    assert not verdict.entangled
    assert abs(verdict.min_pt_eigenvalue - 0.25) < 1e-14


def test_ppt_verdict_holds_its_tolerance_edge():
    half, twice = werner((1.0 + 2 * PPT_TOL) / 3.0), werner((1.0 + 8 * PPT_TOL) / 3.0)
    assert not ppt_verdict(half).entangled
    assert ppt_verdict(twice).entangled
    low, entangled = _verdict(np.stack([half, twice]), PPT_TOL)
    assert entangled.tolist() == [False, True]
    assert np.allclose(low, [-PPT_TOL / 2, -2 * PPT_TOL], rtol=1e-6, atol=0.0)


# p over [0, 1], and p within 1e-8 of the separability boundary 1/3
@given(st.floats(0.0, 1.0) | st.floats(-1e-8, 1e-8).map(lambda d: 1.0 / 3.0 + d))
def test_ppt_agrees_with_concurrence_on_werner_states_outside_the_tolerance_band(p):
    rho = werner(p)
    verdict = ppt_verdict(rho)
    assume(abs(verdict.min_pt_eigenvalue) >= 2 * PPT_TOL)
    assert verdict.entangled == (concurrence(rho).concurrence > 0)


def test_ppt_and_concurrence_disagree_only_inside_the_tolerance_band():
    # min PT eigenvalue -PPT_TOL / 2: PPT calls it separable, concurrence sees 2 x 5e-11
    inside = werner((1.0 + 2 * PPT_TOL) / 3.0)
    assert not ppt_verdict(inside).entangled
    assert concurrence(inside).concurrence == pytest.approx(PPT_TOL, rel=1e-4)
    # min PT eigenvalue -2 PPT_TOL: both call it entangled
    outside = werner((1.0 + 8 * PPT_TOL) / 3.0)
    assert ppt_verdict(outside).entangled
    assert concurrence(outside).concurrence == pytest.approx(4 * PPT_TOL, rel=1e-4)


def test_product_states_are_separable():
    rng = np.random.default_rng(30)
    for _ in range(10):
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        assert not ppt_verdict(np.kron(a, b)).entangled


def test_ppt_verdict_needs_two_qubits():
    with pytest.raises(BadDimensionError):
        ppt_verdict(np.eye(2) / 2.0)


def test_clone_verdicts_flip_at_the_boundaries():
    inside = psi_minus(np.sqrt(0.5))
    outside = psi_minus(np.sqrt(0.05))
    assert ppt_verdict(clone_local(inside)).entangled
    assert not ppt_verdict(clone_local(outside)).entangled
    assert ppt_verdict(clone_nonlocal(inside)).entangled
    assert not ppt_verdict(clone_nonlocal(psi_minus(np.sqrt(0.01)))).entangled


def test_local_interval_endpoints():
    interval = entanglement_interval("local")
    assert abs(interval.low - LOCAL_LOW) < 1e-8
    assert abs(interval.high - LOCAL_HIGH) < 1e-8
    assert abs((interval.low + interval.high) - 1.0) < 1e-7


def test_nonlocal_interval_endpoints():
    interval = entanglement_interval("nonlocal")
    assert abs(interval.low - NONLOCAL_LOW) < 1e-8
    assert abs(interval.high - NONLOCAL_HIGH) < 1e-8


def test_pure_interval_covers_everything_but_the_ends():
    interval = entanglement_interval("pure")
    assert interval.low < 1e-7
    assert interval.high > 1.0 - 1e-7


def test_nonlocal_interval_contains_local():
    local = entanglement_interval("local")
    nonlocal_ = entanglement_interval("nonlocal")
    assert nonlocal_.low < local.low
    assert nonlocal_.high > local.high


def test_interval_tolerance_consistency():
    coarse = entanglement_interval("local", tol=1e-4)
    fine = entanglement_interval("local", tol=1e-8)
    assert abs(coarse.low - fine.low) < 1e-4
    assert abs(coarse.high - fine.high) < 1e-4


def test_interval_argument_checks():
    with pytest.raises(ValueError):
        entanglement_interval("global")
    with pytest.raises(OutOfRangeError):
        entanglement_interval("local", tol=0.0)
    with pytest.raises(OutOfRangeError):
        entanglement_interval("local", tol=float("nan"))


def test_interval_takes_the_enum_or_its_value():
    assert entanglement_interval(CloneScheme.LOCAL) == entanglement_interval("local")
    assert entanglement_interval(CloneScheme.NONLOCAL, 1e-4) == entanglement_interval("nonlocal", 1e-4)


# exact endpoints: stopping on a stalled midpoint must not move any reachable tolerance
PINNED_ENDPOINTS = [
    ("pure", 1e-14, 3.552713678800501e-15, 0.9999999999999964),
    ("pure", 1e-08, 3.725290298461914e-09, 0.9999999962747097),
    ("local", 1e-14, 0.10968762528024101, 0.890312374719759),
    ("local", 1e-12, 0.10968762528000298, 0.890312374719997),
    ("local", 1e-10, 0.1096876252850052, 0.8903123747149948),
    ("local", 1e-08, 0.10968762263655663, 0.8903123773634434),
    ("local", 1e-06, 0.10968732833862305, 0.890312671661377),
    ("local", 0.1, 0.09375, 0.90625),
    ("nonlocal", 1e-14, 0.02859547926789574, 0.9714045207321043),
    ("nonlocal", 1e-12, 0.028595479267551127, 0.9714045207324489),
    ("nonlocal", 1e-10, 0.02859547929256223, 0.9714045207074378),
    ("nonlocal", 1e-08, 0.02859548106789589, 0.9714045189321041),
    ("nonlocal", 1e-06, 0.028595447540283203, 0.9714045524597168),
    ("nonlocal", 0.1, 0.03125, 0.96875),
]


@pytest.mark.parametrize("scheme, tol, low, high", PINNED_ENDPOINTS)
def test_interval_endpoints_are_pinned_for_reachable_tolerances(scheme, tol, low, high):
    interval = entanglement_interval(scheme, tol)
    assert (interval.low, interval.high) == (low, high)


# the exact stall messages: the bracket reached is that of one sequential bisection
STALL_MESSAGES = {
    "local": "bisection stalled at alpha^2 bracket [0.1096876252802443, 0.10968762528024431], "
             "wider than tol 1e-30",
    "nonlocal": "bisection stalled at alpha^2 bracket [0.02859547926789388, 0.028595479267893884], "
                "wider than tol 1e-30",
}


@pytest.mark.parametrize("scheme", ["local", "nonlocal"])
def test_interval_raises_when_the_midpoint_stops_splitting_the_bracket(scheme):
    with pytest.raises(NoConvergenceError) as info:
        entanglement_interval(scheme, tol=1e-30)
    assert str(info.value) == STALL_MESSAGES[scheme]
    found = re.search(r"bracket \[(\S+), (\S+)\]", str(info.value))
    low, high = float(found.group(1)), float(found.group(2))
    # two adjacent floats at the paper's endpoint, which PPT_TOL moves by ~1e-10
    assert high == np.nextafter(low, 1.0)
    assert min(abs(low - x) for x in (LOCAL_LOW, LOCAL_HIGH, NONLOCAL_LOW, NONLOCAL_HIGH)) < 1e-9
