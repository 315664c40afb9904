"""Exception types raised across the package, and its positive-and-finite check."""


def require_positive(**values):
    """ValueError naming the first value that is not positive and finite (NaN too)."""
    for name, value in values.items():
        if not 0 < value < float("inf"):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


class LyapcertError(Exception):
    """Base class for all package errors."""


# --- linear algebra kernel ---

class NotHurwitz(LyapcertError):
    """A matrix required to be Hurwitz has an eigenvalue with real part >= -1e-12."""


class SingularSystem(LyapcertError):
    """A linear solve was numerically rank-deficient."""


class Overflow(LyapcertError):
    """Matrix exponential entries exceeded the representable range."""


# --- damping catalogue ---

class DomainError(LyapcertError):
    """Function evaluated outside its domain (e.g. unbounded h at zero)."""


# --- model builders ---

class NotDissipative(LyapcertError):
    """The drift matrix fails the dissipativity test for the given inner product."""


class NotControllable(LyapcertError):
    """The pair (A, B) fails the Kalman rank test."""


class NotStabilized(LyapcertError):
    """The closed-loop matrix A - k B B* is not Hurwitz."""


class NotDissipativeDiscretization(LyapcertError):
    """An assembled discretization violates the dissipativity sign condition."""


# --- certificates ---

class WrongNormChoice(LyapcertError):
    """Damping/norm combination incompatible with the requested certificate kind."""


class CalibrationFailed(LyapcertError):
    """The supplied decay constants fail the probe-trajectory check."""


# --- time integration ---

class StepRejectionLimit(LyapcertError):
    """Local error target unreachable after the maximum number of step halvings."""


class ContractionViolation(LyapcertError):
    """State norm increased beyond tolerance; the scheme or model is inconsistent."""


class SubflowNotConverged(LyapcertError):
    """The Newton solve of an implicit-midpoint damping substep did not converge."""


# --- analysis ---

class InsufficientData(LyapcertError):
    """Too few usable samples for the requested fit or check."""


class NoLinearPhase(LyapcertError):
    """Trajectory never leaves the unit ball or has too few pre-entry samples."""


# --- config / CLI ---

class ParseError(LyapcertError):
    """Config text violates the grammar; message carries the line number."""


class ValidationError(LyapcertError):
    """Config parsed but one or more values violate their constraints."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class MissingInput(LyapcertError):
    """A subcommand's required input file is absent from the run directory."""


class StaleCertificate(LyapcertError):
    """The run directory's certificate.txt was certified for a different config."""
