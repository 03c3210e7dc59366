"""Exception and warning types shared across tailgauge."""


class ValidationError(ValueError):
    """Invalid input or configuration (bad parameter domain, degenerate data)."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to reach its accuracy or convergence target."""


class QuadratureError(NumericalError):
    """Adaptive quadrature could not reach the requested tolerance.

    ``index`` is the failing interval of a batch (0 for a single interval).
    """

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class OutsideValidatedRegionWarning(UserWarning):
    """Emitted when results are computed outside the validated (n, xi) region."""
