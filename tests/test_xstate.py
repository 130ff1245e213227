"""The X-state kernels of the stacks the program builds, against the general kernels as their oracle.

Every state ``sweep`` and ``table1`` build is a real X state: zero off the
diagonal and the anti-diagonal, with an exactly diagonal T.  Their density
check (``linalg._x_entries``) and measures (``_x_concurrence``,
``_x_pt_min``, ``_x_bmax``) are closed forms of those entries; states a
caller gives keep the general kernels.
"""

import numpy as np
import pytest

from entclone import PLANAR_PI4, CloneScheme, NotHermitianError, NotPsdError, save_density
from entclone import cli
from entclone.bell import _bmax, _chsh, _correlations, _x_bmax
from entclone.cli import _BLOCK, _clone_block, _csv_rows, _grid, main
from entclone.cloning import bell_clone
from entclone.entanglement import _concurrence, _eof, _x_concurrence
from entclone.linalg import _ANTI_DIAGONAL, _DIAGONAL, _OFF_X, HERMITIAN_TOL, PSD_TOL, _psd_eigh, _x_entries
from entclone.separability import _verdict, _x_pt_min

_X_MASK = np.zeros(16, dtype=bool)
_X_MASK[np.r_[_DIAGONAL, _ANTI_DIAGONAL]] = True

# (scheme, extra rounds): every plain scheme and the non-local chains the structure test covers
_BUILT = [(scheme, 0) for scheme in CloneScheme] + [(CloneScheme.NONLOCAL, k) for k in (1, 2, 5, 30, 100)]
# grid sizes log-spaced over 2..2001, as the sweep-grid benchmark draws them
_GRIDS = [int(n) for n in np.unique(np.geomspace(2, 2001, 12).astype(int))]


def _amplitudes(rounds):
    # a grid and seeded random amplitudes, fewer on the long chains
    rows = 2001 if rounds < 30 else 600
    return np.concatenate([_grid(rows), np.random.default_rng(61 + rounds).random(rows)])


def _built_stacks(monkeypatch, argv):
    # every stack main(argv) hands to _x_entries
    stacks, check = [], cli._x_entries
    monkeypatch.setattr(cli, "_x_entries", lambda rhos: stacks.append(rhos.copy()) or check(rhos))
    assert main(argv) == 0
    return stacks


def _assert_x_shaped(rhos):
    flat = rhos.reshape(len(rhos), 16)
    assert not flat.imag.any()
    assert not flat[:, ~_X_MASK].any()
    t = _correlations(rhos)
    assert not (t - t.diagonal(axis1=1, axis2=2)[:, :, None] * np.eye(3)).any()


@pytest.mark.parametrize("scheme, rounds", _BUILT, ids=[f"{s.value}-{k}" for s, k in _BUILT])
def test_every_built_block_is_a_real_x_state(scheme, rounds):
    alphas = _amplitudes(rounds)
    for start in range(0, len(alphas), _BLOCK):
        _assert_x_shaped(_clone_block(scheme, rounds, alphas[start:start + _BLOCK]))


@pytest.mark.parametrize("argv", [
    ["sweep", "--scheme", "local", "--grid", "1025"],
    ["sweep", "--scheme", "nonlocal", "--iterations", "5", "--grid", "600"],
    ["table1", "--steps", "100"],
], ids=["sweep-local", "sweep-nonlocal-5", "table1-100"])
def test_every_stack_the_commands_check_is_a_real_x_state(argv, monkeypatch, capsys):
    stacks = _built_stacks(monkeypatch, argv)
    assert len(stacks) == (1 if argv[0] == "table1" else -(-int(argv[-1]) // _BLOCK))
    for rhos in stacks:
        _assert_x_shaped(rhos)
    if argv[0] == "table1":
        assert stacks[0].shape == (101, 4, 4)


def _valid_x_stack():
    # the two plain clones of an entangled pair, a pure one and I/4
    return np.concatenate([bell_clone(CloneScheme.LOCAL, [0.6]), bell_clone(CloneScheme.NONLOCAL, [0.8]),
                           bell_clone(CloneScheme.PURE, [0.3]), np.eye(4, dtype=complex)[None] / 4])


def test_the_check_returns_the_x_entries():
    rhos = _valid_x_stack()
    diagonal, anti = _x_entries(rhos)
    assert diagonal.tobytes() == np.diagonal(rhos, axis1=1, axis2=2).real.tobytes()
    assert anti.tobytes() == rhos[:, [0, 1, 2, 3], [3, 2, 1, 0]].real.tobytes()


@pytest.mark.parametrize("index", list(_OFF_X))
def test_an_entry_off_the_x_raises(index):
    rhos = _valid_x_stack()
    rhos.reshape(len(rhos), 16)[2, index] = 1e-300
    with pytest.raises(RuntimeError, match="not a real X state"):
        _x_entries(rhos)


@pytest.mark.parametrize("index", range(16))
def test_an_imaginary_part_raises(index):
    rhos = _valid_x_stack()
    rhos.reshape(len(rhos), 16)[1, index] += 1e-300j
    with pytest.raises(RuntimeError, match="not a real X state"):
        _x_entries(rhos)


@pytest.mark.parametrize("pair", [(1, 2), (2, 1), (0, 3), (3, 0)])
def test_the_hermiticity_check_passes_at_its_tolerance(pair):
    # |m - m^dagger| on I/4 with one coherence of HERMITIAN_TOL and its partner 0 is HERMITIAN_TOL exactly
    rhos = _valid_x_stack()
    rhos[3][pair] = HERMITIAN_TOL
    _x_entries(rhos)
    rhos[3][pair] = np.nextafter(HERMITIAN_TOL, 1.0)
    with pytest.raises(NotHermitianError, match=r"^not Hermitian: max \|m - m\^dagger\| = 1\.000e-10$"):
        _x_entries(rhos)


@pytest.mark.parametrize("block", [(0, 3), (1, 2)])
def test_the_psd_check_passes_at_its_tolerance(block):
    # a block [[-t, 0], [0, -t]] has the smallest closed-form eigenvalue (-t - t) / 2 - hypot(0, 0) = -t exactly
    rhos = _valid_x_stack()
    for low, passes in ((-PSD_TOL, True), (np.nextafter(-PSD_TOL, -1.0), False)):
        rhos[3][block, block] = low
        if passes:
            _x_entries(rhos)
            continue
        with pytest.raises(NotPsdError, match=r"^not positive semidefinite: min eigenvalue = -1\.000e-10$"):
            _x_entries(rhos)


@pytest.mark.parametrize("coherence", [(0, 3), (1, 2)])
def test_a_coherence_past_its_block_raises(coherence):
    # a coherence larger than the block's diagonal makes an eigenvalue negative: -0.05 here, past PSD_TOL
    rhos = _valid_x_stack()
    rhos[3][coherence] = rhos[3][coherence[::-1]] = 0.3
    with pytest.raises(NotPsdError, match="min eigenvalue = -5.000e-02"):
        _x_entries(rhos)


def test_non_finite_entries_raise_a_value_or_runtime_error():
    for index, error in ((0, NotPsdError), (3, NotHermitianError), (1, RuntimeError)):
        for value in (np.nan, np.inf):
            rhos = _valid_x_stack()
            rhos.reshape(len(rhos), 16)[0, index] = value
            with pytest.raises(error):
                _x_entries(rhos)


def _oracle_stacks():
    # what the sweeps build, in _BLOCK-row stacks: grids log-spaced over 2..2001 and seeded amplitudes, every scheme
    # plain and the non-local chains
    alphas = np.concatenate([*map(_grid, _GRIDS), np.random.default_rng(62).random(1500)])
    for scheme, rounds in _BUILT[:5]:
        for start in range(0, len(alphas), _BLOCK):
            yield _clone_block(scheme, rounds, alphas[start:start + _BLOCK])


def _random_x_stack(n):
    # n real X states with both coherences, so T has three distinct diagonal entries, unlike a Bell clone's
    rng = np.random.default_rng(63)
    d = rng.dirichlet(np.ones(4), size=n)
    rhos = np.zeros((n, 4, 4), dtype=complex)
    rhos[:, range(4), range(4)] = d
    rhos[:, 0, 3] = rhos[:, 3, 0] = rng.uniform(-1.0, 1.0, n) * np.sqrt(d[:, 0] * d[:, 3])
    rhos[:, 1, 2] = rhos[:, 2, 1] = rng.uniform(-1.0, 1.0, n) * np.sqrt(d[:, 1] * d[:, 2])
    return rhos


def test_the_general_kernels_are_the_oracle_of_the_x_kernels():
    # 1e-15 on the stacks the program builds; a generic X state's general concurrence carries the error of its square
    # roots (up to about 1e-13 here), and its T three distinct diagonal entries, which only it tells apart in _x_bmax
    for rhos, c_tol in [*((rhos, 1e-15) for rhos in _oracle_stacks()), (_random_x_stack(_BLOCK), 1e-12)]:
        x, t = _x_entries(rhos), _correlations(rhos)
        assert _x_bmax(t).tobytes() == _bmax(t).tobytes()
        assert np.abs(_x_concurrence(*x) - _concurrence(rhos, _psd_eigh(rhos))[1]).max() <= c_tol
        assert np.abs(_x_pt_min(*x) - _verdict(rhos)[0]).max() <= 1e-15


def _general_sweep(scheme, rounds, alphas):
    # a sweep's text by the general kernels on the stacks it builds
    texts = [cli.CSV_HEADER + "\n"]
    for start in range(0, len(alphas), _BLOCK):
        block = alphas[start:start + _BLOCK]
        rhos = _clone_block(scheme, rounds, block)
        t, c = _correlations(rhos), _concurrence(rhos, _psd_eigh(rhos))[1]
        texts.append(_csv_rows(block, _chsh(t, PLANAR_PI4), _bmax(t), _eof(c), _verdict(rhos)[0]))
    return "".join(texts)


@pytest.mark.parametrize("scheme, rounds", _BUILT[:5], ids=[f"{s.value}-{k}" for s, k in _BUILT[:5]])
@pytest.mark.parametrize("grid", sorted({*_GRIDS, 513, 1025}))
def test_a_sweep_prints_the_text_of_the_general_kernels(scheme, rounds, grid, capsys):
    argv = ["sweep", "--scheme", scheme.value, "--grid", str(grid), "--iterations", str(rounds)]
    assert main(argv) == 0
    assert capsys.readouterr().out == _general_sweep(scheme, rounds, _grid(grid))


# the rows whose %.9g EoF is known to differ between the kernels, a rounding boundary each: (alpha, the general
# kernels' EoF, the X-state kernels'). The exact EoF of the first is 0.71913113949999996, 3.7e-17 below its boundary;
# of the second 0.95846187450000014, 1.4e-16 above its. A 2-ulp move of C crosses each; the second is one of 100 000
# seeded random pure amplitudes (default_rng(20261021).random(100_000), row 49036), the only one there
_BOUNDARY_ROWS = [(0.8952061712292559, "0.719131139", "0.71913114"),
                  (0.6169246346881477, "0.958461874", "0.958461875")]


@pytest.mark.parametrize("alpha, general, closed", _BOUNDARY_ROWS)
def test_the_known_boundary_rows(alpha, general, closed, capsys):
    assert main(["sweep", "--scheme", "pure", "--alpha", repr(alpha)]) == 0
    got, expected = capsys.readouterr().out.splitlines()[1].split(","), _general_sweep(
        CloneScheme.PURE, 0, np.array([alpha])).splitlines()[1].split(",")
    assert (expected[3], got[3]) == (general, closed)
    assert got[:3] + got[4:] == expected[:3] + expected[4:]
    rhos = bell_clone(CloneScheme.PURE, [alpha])
    c, c0 = _x_concurrence(*_x_entries(rhos))[0], _concurrence(rhos, _psd_eigh(rhos))[1][0]
    assert 0 < abs(c - c0) <= 2 * np.spacing(c0)


def test_analyze_keeps_the_general_kernels(tmp_path, monkeypatch, capsys):
    # a state a caller gives is not known to be X-shaped: no X-state kernel runs on it
    def refuse(*args):
        raise AssertionError("an X-state kernel ran")

    for name in ("_x_entries", "_x_concurrence", "_x_pt_min", "_x_bmax"):
        monkeypatch.setattr(cli, name, refuse)
    path = tmp_path / "state.json"
    save_density(path, bell_clone(CloneScheme.LOCAL, [0.6])[0])
    assert main(["analyze", "--input", str(path)]) == 0
    assert "verdict: entangled" in capsys.readouterr().out
