"""Exception types raised by state validation and the numeric kernels.

The contract of every public function and class: a rejected argument raises ValueError (one of these errors, or a
plain ValueError for non-finite matrix entries, a state file that cannot be read, written or parsed, an unknown
``keep``, CloneScheme or BellKind value, or an input NumPy cannot shape into the array needed), so one
``except ValueError`` catches every bad argument; a computation that fails on accepted arguments raises RuntimeError
(NoConvergenceError, iterate's remix check, or a state the program built that is not a real X state).  No call raises
TypeError, KeyError, IndexError or AttributeError or emits a NumPy warning, and none parses a string or casts a bool
or a complex number where a real is expected.
"""

__all__ = [
    "BadDimensionError",
    "BadTraceError",
    "NoConvergenceError",
    "NotHermitianError",
    "NotNormalizedError",
    "NotPsdError",
    "OutOfRangeError",
]


class NotHermitianError(ValueError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotPsdError(ValueError):
    """Matrix has an eigenvalue below the negativity tolerance."""


class BadTraceError(ValueError):
    """Matrix trace differs from 1 beyond tolerance."""


class BadDimensionError(ValueError):
    """Matrix or vector has a shape the operation does not accept."""


class NotNormalizedError(ValueError):
    """Vector norm differs from 1 beyond tolerance."""


class OutOfRangeError(ValueError):
    """Parameter lies outside its admissible interval, or is not of the kind of number it must be."""


class NoConvergenceError(RuntimeError):
    """Eigensolver failed to converge, or a bisection stalled short of its tolerance."""
