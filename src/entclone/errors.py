"""Exception types raised by state validation and the numeric kernels."""


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
    """Scalar parameter lies outside its admissible interval."""


class NotXShapeError(ValueError):
    """Matrix carries weight outside the diagonal and anti-diagonal."""


class NoConvergenceError(RuntimeError):
    """Eigensolver failed to converge, or a bisection stalled short of its tolerance."""
