"""Entangled-pair cloning toolkit.

Simulates optimal symmetric cloning of two-qubit entangled states, locally
(one cloner per qubit) and non-locally (one cloner on the full register),
and quantifies what survives: partial-transpose separability verdicts, CHSH
correlations and their maximum over measurement directions, concurrence,
and entanglement of formation.
"""

from .bell import (
    ChshConfig,
    bmax,
    bmax_numeric,
    chsh_value,
    correlation,
    correlation_matrix,
    planar_pi4_config,
)
from .cloning import (
    QUBIT_SHRINK,
    REGISTER_SHRINK,
    CloneScheme,
    CloneSequence,
    clone_local,
    clone_nonlocal,
    iterate,
    shrink_channel,
    symmetric_cloner_joint,
)
from .entanglement import (
    ConcurrenceResult,
    binary_entropy,
    concurrence,
    concurrence_xstate_oracle,
    entanglement_of_formation,
    spin_flip,
)
from .errors import (
    BadDimensionError,
    BadTraceError,
    NoConvergenceError,
    NotHermitianError,
    NotNormalizedError,
    NotPsdError,
    NotXShapeError,
    OutOfRangeError,
)
from .linalg import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PAULIS,
    SpectralDecomposition,
    dagger,
    hermitian_eig,
    kron,
    partial_trace,
    partial_transpose,
    psd_sqrt,
)
from .separability import (
    AlphaSquaredInterval,
    SeparabilityVerdict,
    entanglement_interval,
    ppt_verdict,
)
from .states import (
    BellKind,
    bell_state,
    density_from_dict,
    density_from_pure,
    density_to_dict,
    load_density,
    save_density,
    validate_density,
)

__version__ = "0.1.0"

# type checkers treat imported names as private unless listed; `import *` would add the submodules
__all__ = [
    "AlphaSquaredInterval",
    "BadDimensionError",
    "BadTraceError",
    "BellKind",
    "ChshConfig",
    "CloneScheme",
    "CloneSequence",
    "ConcurrenceResult",
    "NoConvergenceError",
    "NotHermitianError",
    "NotNormalizedError",
    "NotPsdError",
    "NotXShapeError",
    "OutOfRangeError",
    "PAULIS",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "QUBIT_SHRINK",
    "REGISTER_SHRINK",
    "SeparabilityVerdict",
    "SpectralDecomposition",
    "bell_state",
    "binary_entropy",
    "bmax",
    "bmax_numeric",
    "chsh_value",
    "clone_local",
    "clone_nonlocal",
    "concurrence",
    "concurrence_xstate_oracle",
    "correlation",
    "correlation_matrix",
    "dagger",
    "density_from_dict",
    "density_from_pure",
    "density_to_dict",
    "entanglement_interval",
    "entanglement_of_formation",
    "hermitian_eig",
    "iterate",
    "kron",
    "load_density",
    "partial_trace",
    "partial_transpose",
    "planar_pi4_config",
    "ppt_verdict",
    "psd_sqrt",
    "save_density",
    "shrink_channel",
    "spin_flip",
    "symmetric_cloner_joint",
    "validate_density",
]
