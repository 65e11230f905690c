"""Exact complex-rational coefficients.

Every coefficient in the algebra kernel is a Gaussian rational: a pair of
``fractions.Fraction`` values (real and imaginary part).  No floats enter the
arithmetic anywhere; the only place floats appear in the whole package is the
final regression step of the CP^1 decay fits.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["ComplexRational", "Rat", "I", "parse_rational", "format_rational",
           "LITERAL_DIGITS"]

Rat = Fraction  # short alias used throughout the package

_RatLike = (int, Fraction)

# Most digits a rational literal may carry before its exponent; the exponent
# itself may have at most two digits.  Together they keep every parsed value
# below 10^200, far inside what the reports can print.
LITERAL_DIGITS = 100


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal of the form ``"p/q"`` or ``"p"``.

    Decimal forms such as ``"1.5e-3"`` are read exactly.  Every malformed
    literal, a zero denominator or an oversized literal included, is a
    ValueError; the size bound is checked before any number is formed.
    """
    text = text.strip()
    mantissa, _, exponent = text.lower().partition("e")
    if sum(map(str.isdigit, mantissa)) > LITERAL_DIGITS \
            or sum(map(str.isdigit, exponent)) > 2:
        raise ValueError(f"rational literal too large (at most "
                         f"{LITERAL_DIGITS} digits and a two-digit exponent): "
                         f"{text[:24]!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(value: Fraction) -> str:
    """Canonical string form: ``"p/q"`` in lowest terms, ``"p"`` for integers."""
    return str(value)


class ComplexRational:
    """An exact complex number with rational real and imaginary parts.

    Immutable; supports the arithmetic the series kernel needs (ring
    operations, exact division, conjugation).  Integers and Fractions mix
    freely on either side of an operator.
    """

    __slots__ = ("re", "im")

    re: Fraction
    im: Fraction

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("ComplexRational is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def coerce(cls, value) -> "ComplexRational":
        if isinstance(value, ComplexRational):
            return value
        if isinstance(value, _RatLike):
            return cls(value, 0)
        raise TypeError(f"cannot coerce {type(value).__name__} to ComplexRational")

    @classmethod
    def from_strings(cls, re: str, im: str = "0") -> "ComplexRational":
        return cls(parse_rational(re), parse_rational(im))

    # -- predicates ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    @property
    def is_real(self) -> bool:
        return not self.im

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = self.coerce(other)
        return ComplexRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self.coerce(other)
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return self.coerce(other) - self

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __mul__(self, other):
        other = self.coerce(other)
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.coerce(other)
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division by zero ComplexRational")
        return ComplexRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        return self.coerce(other) / self

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = ComplexRational(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def inverse(self) -> "ComplexRational":
        return ComplexRational(1) / self

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, _RatLike):
            return self.im == 0 and self.re == other
        if isinstance(other, ComplexRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self) -> int:
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- conversion / display --------------------------------------------

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        if not self.im:
            return f"ComplexRational({self.re})"
        return f"ComplexRational({self.re}, {self.im})"

    def __str__(self) -> str:
        if not self.im:
            return format_rational(self.re)
        if not self.re:
            return f"{format_rational(self.im)}i"
        sign = "+" if self.im > 0 else "-"
        return f"{format_rational(self.re)}{sign}{format_rational(abs(self.im))}i"


I = ComplexRational(0, 1)
