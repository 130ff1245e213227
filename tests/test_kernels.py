"""Each public measure is one validation in front of an unchecked kernel."""

import numpy as np
from hypothesis import given, settings

from entclone import (
    PAULIS,
    CloneScheme,
    bmax,
    chsh_value,
    concurrence,
    correlation_matrix,
    entanglement_of_formation,
    planar_pi4_config,
    ppt_verdict,
)
from entclone.bell import _bmax, _chsh, _correlations
from entclone.entanglement import _concurrence, _eof
from entclone.separability import PPT_TOL, _verdict

from helpers import densities


def _nine_traces(rho):
    # the correlation matrix as one trace per Pauli pair
    t = np.empty((3, 3))
    for i, a in enumerate(PAULIS):
        for j, b in enumerate(PAULIS):
            t[i, j] = complex(np.trace(rho @ np.kron(a, b))).real
    return t


@settings(max_examples=60, deadline=None)
@given(densities())
def test_public_measures_equal_their_kernels(rho):
    t = correlation_matrix(rho)
    assert t.tobytes() == _nine_traces(rho).tobytes()
    assert t.tobytes() == _correlations(rho).tobytes()
    cfg = planar_pi4_config()
    assert chsh_value(rho, cfg) == _chsh(t, cfg)
    assert bmax(rho) == _bmax(t)
    public, kernel = concurrence(rho), _concurrence(rho)
    assert public.concurrence == kernel.concurrence
    assert np.array_equal(public.lambdas, kernel.lambdas)
    assert entanglement_of_formation(rho) == _eof(kernel.concurrence)
    assert ppt_verdict(rho) == _verdict(rho, PPT_TOL)


@settings(max_examples=60, deadline=None)
@given(densities())
def test_cloning_never_increases_eof(rho):
    before = entanglement_of_formation(rho)
    for scheme in (CloneScheme.LOCAL, CloneScheme.NONLOCAL):
        assert entanglement_of_formation(scheme.apply(rho)) <= before + 1e-12
