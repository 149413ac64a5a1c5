"""Exception types shared across the package."""


class SapcertError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(SapcertError):
    """An argument is malformed (non-finite value, bad position, ...)."""


class DimensionError(SapcertError):
    """Operands have incompatible shapes."""


class SizeLimitExceeded(SapcertError):
    """A brute-force routine was asked for a size it refuses to handle."""


class PreconditionViolated(SapcertError):
    """A documented precondition does not hold for the given input."""


class CertificationFailed(SapcertError):
    """A certificate could not be produced within its tolerance."""


class RealizationFailed(SapcertError):
    """No admissible realization was found for the requested target."""


class ConvergenceError(SapcertError):
    """An iterative solver did not reach its tolerance.

    The best iterate seen so far is attached as ``best`` for diagnostics.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
