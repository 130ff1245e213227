"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line naming the behavior it pins down;
run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import subprocess
import sys

import numpy as np

from entclone import (
    PLANAR_PI4,
    BellKind,
    CloneScheme,
    bell_state,
    bmax,
    bmax_numeric,
    chsh_value,
    clone_local,
    clone_nonlocal,
    concurrence,
    density_from_pure,
    entanglement_interval,
    entanglement_of_formation,
    hermitian_eig,
    iterate,
    ppt_verdict,
)
from entclone.cli import main as cli_main

from helpers import package_env, psi_minus, random_density

GRID = np.linspace(0.0, 1.0, 1001)
ROOT_HALF = np.sqrt(0.5)


def _report(number, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] criterion {number:2d}: {label}{suffix}")


def test_c01_singlet_eof_sequence_under_repeated_cloning():
    states = iterate(psi_minus(ROOT_HALF), CloneScheme.NONLOCAL, 3)
    values = [entanglement_of_formation(s) for s in states]
    ok = (
        abs(values[0] - 1.0) <= 1e-9
        and abs(values[1] - 0.250225) <= 1e-4
        and abs(values[2] - 0.005094) <= 1e-4
        and values[3] <= 1e-12
    )
    _report(1, "singlet EoF sequence under repeated non-local cloning", ok,
            "got " + ", ".join(f"{v:.6f}" for v in values))
    assert ok


def test_c02_local_inseparability_interval():
    interval = entanglement_interval("local")
    low, high = 0.5 - np.sqrt(39.0) / 16.0, 0.5 + np.sqrt(39.0) / 16.0
    err = max(abs(interval.low - low), abs(interval.high - high))
    ok = err <= 1e-6
    _report(2, "local-cloning inseparability interval endpoints", ok,
            f"[{interval.low:.7f}, {interval.high:.7f}], max err {err:.2e}")
    assert ok


def test_c03_nonlocal_inseparability_interval():
    interval = entanglement_interval("nonlocal")
    low, high = 0.5 - np.sqrt(2.0) / 3.0, 0.5 + np.sqrt(2.0) / 3.0
    err = max(abs(interval.low - low), abs(interval.high - high))
    ok = err <= 1e-6
    _report(3, "non-local-cloning inseparability interval endpoints", ok,
            f"[{interval.low:.7f}, {interval.high:.7f}], max err {err:.2e}")
    assert ok


def test_c04_clones_never_violate_chsh():
    worst = 0.0
    for alpha in GRID:
        rho = psi_minus(alpha)
        worst = max(worst, bmax(clone_local(rho)), bmax(clone_nonlocal(rho)))
    peak = psi_minus(ROOT_HALF)
    err_nonlocal = abs(bmax(clone_nonlocal(peak)) - 6.0 * np.sqrt(2.0) / 5.0)
    err_local = abs(bmax(clone_local(peak)) - 8.0 * np.sqrt(2.0) / 9.0)
    ok = worst <= 2.0 and err_nonlocal <= 1e-9 and err_local <= 1e-9
    _report(4, "clones never violate the CHSH bound", ok,
            f"grid max {worst:.6f}, peak errs {err_nonlocal:.1e}/{err_local:.1e}")
    assert ok


def test_c05_pure_state_curves_match_closed_forms():
    cfg = PLANAR_PI4
    err = 0.0
    for alpha in GRID:
        beta = np.sqrt(1.0 - alpha * alpha)
        rho = psi_minus(alpha)
        err = max(err, abs(chsh_value(rho, cfg) - np.sqrt(2.0) * (1.0 + 2.0 * alpha * beta)))
        err = max(err, abs(bmax(rho) - 2.0 * np.sqrt(1.0 + 4.0 * alpha * alpha * beta * beta)))
    peak = abs(bmax(psi_minus(ROOT_HALF)) - 2.0 * np.sqrt(2.0))
    ends = max(
        abs(bmax(psi_minus(0.0)) - 2.0),
        abs(bmax(psi_minus(1.0)) - 2.0),
        abs(chsh_value(psi_minus(0.0), cfg) - np.sqrt(2.0)),
        abs(chsh_value(psi_minus(1.0), cfg) - np.sqrt(2.0)),
    )
    ok = err <= 1e-9 and peak <= 1e-9 and ends <= 1e-9
    _report(5, "pure-state CHSH curves match closed forms", ok, f"max err {max(err, peak, ends):.2e}")
    assert ok


def test_c06_remix_equals_direct_channel():
    inputs = []
    for alpha in (0.3, 0.6, ROOT_HALF):
        for kind in BellKind:
            inputs.append(density_from_pure(bell_state(kind, alpha)))
    rng = np.random.default_rng(600)
    for _ in range(100):
        inputs.append(random_density(rng, 4))
    gap = 0.0
    for rho in inputs:
        weights, vectors = hermitian_eig(rho)
        for channel in (clone_local, clone_nonlocal):
            remixed = np.zeros((4, 4), dtype=complex)
            for w, v in zip(weights, vectors.T):
                remixed += w * channel(np.outer(v, v.conj()))
            gap = max(gap, np.abs(remixed - channel(rho)).max())
    ok = gap <= 1e-10
    _report(6, "diagonalize-clone-remix equals the direct channel", ok, f"max gap {gap:.2e}")
    assert ok


def test_c07_ppt_verdict_agrees_with_concurrence():
    rng = np.random.default_rng(700)
    disagreements = 0
    for _ in range(1000):
        rho = random_density(rng, 4)
        by_ppt = ppt_verdict(rho, tol=1e-9).entangled
        by_concurrence = concurrence(rho).concurrence > 1e-9
        disagreements += by_ppt != by_concurrence
    ok = disagreements == 0
    _report(7, "partial-transpose verdict agrees with concurrence", ok,
            f"{disagreements} disagreements in 1000 states")
    assert ok


def test_c08_closed_form_chsh_maximum_agrees_with_search():
    rng = np.random.default_rng(800)
    err = 0.0
    for _ in range(50):
        rho = random_density(rng, 4)
        err = max(err, abs(bmax(rho) - bmax_numeric(rho)))
    ok = err <= 1e-6
    _report(8, "closed-form maximal CHSH agrees with numerical search", ok, f"max gap {err:.2e}")
    assert ok


def test_c09_clone_measures_independent_of_bell_input():
    spread = 0.0
    for alpha in (0.3, 0.6, ROOT_HALF):
        for channel in (clone_local, clone_nonlocal):
            spectra, maxima, eofs = [], [], []
            for kind in BellKind:
                out = channel(density_from_pure(bell_state(kind, alpha)))
                spectra.append(np.sort(np.linalg.eigvalsh(out)))
                maxima.append(bmax(out))
                eofs.append(entanglement_of_formation(out))
            spread = max(spread, np.ptp(np.array(spectra), axis=0).max())
            spread = max(spread, np.ptp(maxima), np.ptp(eofs))
    ok = spread <= 1e-10
    _report(9, "clone spectra, CHSH maximum, and EoF identical for every Bell input", ok,
            f"max spread {spread:.2e}")
    assert ok


def test_c10_nonlocal_cloning_preserves_more_entanglement():
    local_eof = np.empty(GRID.size)
    nonlocal_eof = np.empty(GRID.size)
    for i, alpha in enumerate(GRID):
        rho = psi_minus(alpha)
        local_eof[i] = entanglement_of_formation(clone_local(rho))
        nonlocal_eof[i] = entanglement_of_formation(clone_nonlocal(rho))
    dominance = bool(np.all(nonlocal_eof >= local_eof - 1e-12))
    local_pos = local_eof > 1e-12
    nonlocal_pos = nonlocal_eof > 1e-12
    contained = bool(np.all(nonlocal_pos[local_pos]))
    low_margin = bool(np.any(nonlocal_pos & ~local_pos & (GRID < 0.5)))
    high_margin = bool(np.any(nonlocal_pos & ~local_pos & (GRID > 0.5)))
    ok = dominance and contained and low_margin and high_margin
    _report(10, "non-local cloning preserves more entanglement than local", ok,
            f"positive at {nonlocal_pos.sum()} vs {local_pos.sum()} of {GRID.size} grid points")
    assert ok


def test_c11_three_rounds_kill_entanglement_for_every_amplitude():
    worst = 0.0
    for alpha in GRID:
        final = iterate(psi_minus(alpha), CloneScheme.NONLOCAL, 3)[-1]
        worst = max(worst, entanglement_of_formation(final))
    ok = worst <= 1e-12
    _report(11, "three non-local cloning rounds kill entanglement at every amplitude", ok,
            f"max EoF {worst:.2e}")
    assert ok


def test_c12_sweep_output_is_byte_identical(tmp_path):
    target = tmp_path / "sweep.csv"
    flags = ["sweep", "--scheme", "nonlocal", "--grid", "101", "--out", str(target)]
    assert cli_main(flags) == 0
    first = target.read_bytes()
    assert cli_main(flags) == 0
    second = target.read_bytes()

    cmd = [sys.executable, "-m", "entclone.cli", "sweep", "--scheme", "local", "--grid", "51"]
    run_a = subprocess.run(cmd, capture_output=True, env=package_env())
    run_b = subprocess.run(cmd, capture_output=True, env=package_env())
    ok = (
        first == second
        and len(first) > 0
        and run_a.returncode == 0
        and len(run_a.stdout) > 0
        and run_a.stdout == run_b.stdout
    )
    _report(12, "sweep output is byte-identical across identical runs", ok,
            f"{len(first)} bytes via file, {len(run_a.stdout)} via stdout")
    assert ok


def test_full_suite_runtime_is_reasonable():
    # the grid loops above dominate; this canary fails if something slips
    # toward pathological cost
    import time

    start = time.time()
    for alpha in np.linspace(0.0, 1.0, 51):
        rho = psi_minus(alpha)
        clone_local(rho)
        clone_nonlocal(rho)
        bmax(rho)
    assert time.time() - start < 10.0
