"""Machine-speed calibration for the benchmark's timings.

On a shared machine the CPU speed available to one process swings by up to
2x within seconds, as other tenants come and go.  A run's median can land in
a fast or a slow phase, so two runs of the same code differ by more than any
useful regression bound.  To take that out, the benchmark times a fixed
kernel next to every stretch of measured work and rescales the work's times
to a reference speed:

    normalized = measured * REFERENCE_S / kernel time

The kernel belongs to the benchmark, not to the package, so a change to the
package cannot move it.  It resembles the package's own hot path: small
complex NumPy calls and number formatting driven from Python.  The reported
times are therefore times at the speed where the kernel takes REFERENCE_S;
the raw wall-clock figures are recorded beside them.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.011     # kernel time at the reference speed
INTERVAL_S = 0.25       # measured work between two calibrations, at most

_REPEATS = 600
_G = np.array([[1.0, 0.3 - 0.2j, 0.1j, 0.0], [0.3 + 0.2j, 0.8, 0.0, 0.2],
               [-0.1j, 0.0, 0.6, 0.1 - 0.1j], [0.0, 0.2, 0.1 + 0.1j, 0.4]])
_M = _G @ _G.conj().T
# bound at import, so that the tracer's wrapping of numpy.linalg neither
# counts nor slows the kernel
_eigvalsh = np.linalg.eigvalsh


def kernel_seconds() -> float:
    start = time.perf_counter()
    m = _M
    for _ in range(_REPEATS):
        values = _eigvalsh(m)
        square = m @ m
        float(np.abs(m - m.conj().T).max())
        complex(np.trace(square))
        ",".join(f"{v:.9g}" for v in values)
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that takes times measured between two kernel runs to reference speed."""
    return 2.0 * REFERENCE_S / (before + after)
