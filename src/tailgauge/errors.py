"""Exception and warning types shared across tailgauge."""


class ValidationError(ValueError):
    """Invalid input or configuration (bad parameter domain, degenerate data)."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to reach its accuracy or convergence target."""


class QuadratureError(NumericalError):
    """A quadrature could not reach its tolerance, or the estimator law it
    builds does not resolve: a u-rule without unit mass or with a quantile
    bracket that is not finite, or moments that overflow a double."""


class OutsideValidatedRegionWarning(UserWarning):
    """Emitted when results are computed outside the validated (n, xi) region."""
