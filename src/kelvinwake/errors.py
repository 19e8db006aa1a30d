"""Exception hierarchy for the kelvinwake package."""


class KelvinWakeError(Exception):
    """Base class for all package-specific errors."""


class DomainError(KelvinWakeError, ValueError):
    """An argument lies outside the supported domain."""


class OrderOverflowError(DomainError):
    """A requested function order exceeds the configured cap."""


class RangeOverflowError(KelvinWakeError, OverflowError):
    """A result exceeds the double-precision range."""


class AccuracyError(KelvinWakeError):
    """The requested accuracy was not reached.

    Carries the best available value and its estimated error so callers can
    decide whether the partial result is still useful.  Both are None where
    there is none, as when a quadrature's initial panels already exceed
    its panel budget.
    """

    def __init__(self, message, value=None, error_estimate=None, terms_used=0):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.terms_used = terms_used


class RegimeError(KelvinWakeError):
    """The evaluation point lies outside the regime of the chosen method."""


class BoundViolationError(KelvinWakeError):
    """A measured quantity exceeded its analytic bound."""
