"""Exception types shared across the package."""


class DegenerateParamsError(ValueError):
    """A parameter (N, or n for the 2-adic descent) is too small for the computation to make sense."""


class CapacityError(RuntimeError):
    """Requested computation exceeds the configured memory budget."""


class VerificationError(AssertionError):
    """An internal cross-check failed; results are not trustworthy."""


class QuadratureError(RuntimeError):
    """A quadrature failed to converge within its refinement budget."""

    def __init__(self, message: str, partial: complex | float | None = None):
        super().__init__(message)
        self.partial = partial
