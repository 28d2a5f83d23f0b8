"""Exception types shared across the package.

The CLI maps these onto exit codes: validation problems exit 1,
numerical failures exit 2.
"""

from __future__ import annotations


class RfsqError(Exception):
    """Base class for all package errors."""


class ValidationError(RfsqError, ValueError):
    """Invalid input value; the message names the offending field."""


class NumericalError(RfsqError):
    """A numerical procedure failed or refused to proceed."""


class StepTooLargeError(NumericalError):
    """A time-domain integration blew up (instability sentinel)."""


class NoConvergenceError(NumericalError):
    """Relaxation hit its time cap with the residual still too large."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class DegeneratePhaseError(NumericalError):
    """Coherence is zero, so every quadrature phase ties; none is optimal."""


class PhaseOutOfRangeError(ValidationError):
    """Requested squeezing phase falls outside the analytic family's domain."""


class UnitMismatchError(ValidationError):
    """A closed form is only printed for gamma = 1 (and eta = 1) units."""


class NoPureStateError(NumericalError):
    """No drive strength makes the atom pure on the requested slice."""

    def __init__(self, message: str, sigma_max: float = float("nan")):
        super().__init__(message)
        self.sigma_max = sigma_max


class NoRootError(NumericalError):
    """Bisection bracket contains no sign change."""


class CertificationFailedError(NumericalError):
    """The photon-number certification found an offending grid point."""

    def __init__(self, message: str, offenders: list | None = None):
        super().__init__(message)
        self.offenders = offenders or []


class AsymptoticConditionWarning(UserWarning):
    """An asymptotic condition was evaluated outside its comfort zone."""
