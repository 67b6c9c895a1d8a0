"""Exception types shared across the package; each carries only its message.

The CLI maps them to exit codes: CapacityError 2, VerificationError and
QuadratureError 3, DegenerateParamsError 4.
"""


class DegenerateParamsError(ValueError):
    """A parameter (N, or n for the 2-adic descent) is too small for the computation to make sense."""


class CapacityError(RuntimeError):
    """Requested computation exceeds the configured memory budget."""


class VerificationError(AssertionError):
    """An internal cross-check failed; results are not trustworthy."""


class QuadratureError(RuntimeError):
    """A quadrature failed to converge within its refinement budget."""
