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

    A value is its public slots, the ``__slots__`` names without a leading
    underscore: ``_key()`` is their tuple, equality and hash follow it, and
    ``repr`` is ``Type(name=value, ...)``.  A private slot, such as a cache,
    takes part in none.  A value of another type is left to that type's
    ``__eq__``; a type with its own equality writes its own hash and repr.
    """

    __slots__ = ()

    def _init(self, **slots) -> None:
        for name, value in slots.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _public(self) -> list:
        """``(name, value)`` of each public slot, in declaration order."""
        return [(name, getattr(self, name)) for name in self.__slots__ if name[0] != "_"]

    def _key(self) -> tuple:
        return tuple(value for _, value in self._public())

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in self._public())})"
