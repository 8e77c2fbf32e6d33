"""Exception hierarchy shared by all modules.

Every exception carries the process exit code the command-line front end
maps it to: 2 for validation problems, 3 for numerical ones.  I/O errors
are left to the standard ``OSError`` family (exit code 4).
"""

__all__ = [
    "OscSyncError",
    "DomainError",
    "ConfigError",
    "GridMismatch",
    "NumericalError",
    "NoUniqueSteadyState",
    "UnphysicalState",
    "DegenerateState",
]


class OscSyncError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class DomainError(OscSyncError):
    """An input value lies outside its documented domain."""

    exit_code = 2


class ConfigError(OscSyncError):
    """A configuration is internally inconsistent or outside validity."""

    exit_code = 2


class GridMismatch(OscSyncError):
    """Two series that must share a time grid do not."""

    exit_code = 2


class NumericalError(OscSyncError):
    """A numerical routine failed to converge or lost its error budget."""

    exit_code = 3


class NoUniqueSteadyState(NumericalError):
    """The drift matrix has a (near-)zero eigenvalue; no unique fixed point."""


class UnphysicalState(NumericalError):
    """A covariance matrix violates the uncertainty principle beyond tolerance."""


class DegenerateState(NumericalError):
    """A state is degenerate in a way that makes a closed form undefined."""
