"""Exception types shared across the package.

Everything derives from ZdlError so callers (the CLI in particular) can
catch domain failures in one place and turn them into machine-readable
error reports.
"""


class ZdlError(ValueError):
    """Base class for all domain errors raised by this package."""


class InvalidBoundError(ZdlError):
    """A table or series bound was zero, negative, or otherwise unusable."""


class DomainError(ZdlError):
    """An evaluation point lies outside the operation's domain."""


class PoleError(DomainError):
    """Evaluation was requested exactly at the pole at s = 1."""


class ExceptionalPointError(DomainError):
    """Evaluation was requested too close to a zero of 1 - 2**(1-s).

    The eta-to-zeta bridge degenerates on the vertical line re(s) = 1 at
    imaginary parts 2*pi*k/log(2) for nonzero integer k.  The offending k
    is carried so the caller can switch to the derivative-based evaluator.
    """

    def __init__(self, message: str, k: int):
        super().__init__(message)
        self.k = k


class ScanStepError(ZdlError):
    """The zero-scan grid step is too coarse to bracket minima reliably."""


class NotAZeroError(ZdlError):
    """A candidate bracket refined to a point that is not a zero."""


class InsufficientWindowError(ZdlError):
    """The partial-sum window is too small for the requested diagnostic."""


class OutputError(ZdlError):
    """The report could not be written to the requested output path."""
