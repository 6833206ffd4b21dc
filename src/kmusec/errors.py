"""Exception types shared by the kernels and the library modules."""


class ConvergenceError(RuntimeError):
    """A series or iterative evaluation hit its term cap before the
    requested tolerance was met."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class PrecisionError(ConvergenceError):
    """Valid input drove an evaluation out of double precision: an
    overflow, a division by zero or a NaN."""
