"""Shared exception types and the base of the package's immutable values.

Every module that defines a value type imports this leaf module already, so
``Value`` lives here: it is the one place that sets a slot past the guard.
"""

__all__ = [
    "WickjetError",
    "DimensionMismatch",
    "TruncationMismatch",
    "DegreeWindowError",
    "PreconditionError",
    "SolveError",
    "Value",
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


class Value:
    """An immutable value: its slots are set by ``_init`` and never assigned.

    Two values of the same type are equal when their ``_key()`` is, and hash
    by it; a value of another type is left to that type's ``__eq__``.  A
    subclass with its own equality overrides ``__eq__`` and ``__hash__``.
    """

    __slots__ = ()

    def _init(self, **slots) -> None:
        for name, value in slots.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())
