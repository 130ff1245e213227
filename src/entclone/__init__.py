"""Entangled-pair cloning toolkit.

Simulates optimal symmetric cloning of two-qubit entangled states, locally
(one cloner per qubit) and non-locally (one cloner on the full register),
and quantifies what survives: partial-transpose separability verdicts, CHSH
correlations and their maximum over measurement directions, concurrence,
and entanglement of formation.
"""

from . import bell, cloning, entanglement, errors, linalg, separability, states
from .bell import *
from .cloning import *
from .entanglement import *
from .errors import *
from .linalg import *
from .separability import *
from .states import *

__version__ = "0.1.0"

# each module's __all__ declares its public names for type checkers; `import *` of their union binds no submodule
__all__ = []
__all__ += bell.__all__
__all__ += cloning.__all__
__all__ += entanglement.__all__
__all__ += errors.__all__
__all__ += linalg.__all__
__all__ += separability.__all__
__all__ += states.__all__
