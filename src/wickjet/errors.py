"""Shared exception types for the wickjet kernel."""

__all__ = [
    "WickjetError",
    "DimensionMismatch",
    "TruncationMismatch",
    "DegreeWindowError",
    "PreconditionError",
    "SolveError",
]


class WickjetError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(WickjetError):
    """Operands live over a different number of complex variables."""


class TruncationMismatch(WickjetError):
    """Operands carry different truncation degrees; re-truncate explicitly."""


class DegreeWindowError(WickjetError):
    """An input record's term lies below the degree window of its input."""


class PreconditionError(WickjetError):
    """An operation's documented precondition does not hold for the input."""


class SolveError(WickjetError):
    """An iterative solve failed to meet its contract within budget."""
