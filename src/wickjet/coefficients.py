"""Exact complex-rational coefficients.

Every coefficient in the algebra kernel is a Gaussian rational: a pair of
``fractions.Fraction`` values (real and imaginary part).  No floats enter the
arithmetic anywhere; the only place floats appear in the whole package is the
final regression step of the CP^1 decay fits.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd

from .errors import WickjetError

__all__ = ["ComplexRational", "parse_rational", "format_rational",
           "format_complex", "LITERAL_DIGITS", "literal_digits",
           "random_rational", "random_coefficient"]

_RatLike = (int, Fraction)

# Most digits a rational literal may carry, numerator and denominator
# together; the sign and the slash do not count.  This keeps both parts of
# every parsed value below 10^100, far inside what the reports can print.
LITERAL_DIGITS = 100


def literal_digits(text: str) -> int:
    """The digits of a literal ``"p"``, ``"-p"``, ``"p/q"`` or ``"-p/q"``,
    numerator and denominator together: the count ``LITERAL_DIGITS`` bounds."""
    return len(text) - text.startswith("-") - ("/" in text)


def parse_rational(text: str) -> tuple:
    """Parse a rational literal ``"p"``, ``"-p"``, ``"p/q"`` or ``"-p/q"``
    into the integer pair ``(p, q)``, with q = 1 when there is no slash.

    These are exactly the forms ``format_rational`` writes, in ASCII digits;
    surrounding whitespace is ignored.  The pair is kept as written, not
    reduced: ``"6/4"`` reads as (6, 4) and ``"-0/7"`` as (0, 7).  Every
    other literal, a zero denominator or an oversized literal included, is a
    ValueError; the size bound is checked before any number is formed.
    """
    text = text.strip()
    num, slash, den = text.partition("/")
    digits = num.removeprefix("-")
    if not (text.isascii() and digits.isdigit() and (den.isdigit() or not slash)):
        raise ValueError(f"expected a rational literal \"p\" or \"p/q\", "
                         f"got {text[:24]!r}")
    if literal_digits(text) > LITERAL_DIGITS:
        raise ValueError(f"rational literal too large (at most "
                         f"{LITERAL_DIGITS} digits): {text[:24]!r}")
    q = int(den) if slash else 1
    if not q:
        raise ValueError(f"zero denominator in {text!r}")
    return int(num), q


def format_rational(value, den: int = 1) -> str:
    """``value / den`` (an int over den > 0, or a Fraction) as ``"p/q"`` or ``"p"``."""
    try:
        if den == 1:
            return str(value)
        common = gcd(value, den)
        if common == den:
            return str(value // den)
        return f"{value // common}/{den // common}"
    except ValueError:  # a part longer than the interpreter will print
        raise WickjetError(f"a coefficient part has more than "
                           f"{sys.get_int_max_str_digits()} digits") from None


def format_complex(re: str, im: str) -> str:
    """The parts ``re`` and ``im`` of one value, each as ``format_rational``
    writes it, as ``"p"``, ``"qi"``, ``"p+qi"`` or ``"p-qi"``."""
    if im == "0":
        return re
    if re == "0":
        return f"{im}i"
    return f"{re}{im}i" if im[0] == "-" else f"{re}+{im}i"


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
        # A part that is exactly a Fraction is kept as it is; any other
        # value goes through Fraction().
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

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

    # -- predicates ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

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

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

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
        return format_complex(format_rational(self.re), format_rational(self.im))


def random_rational(rng, bound: int = 6, max_den: int = 4) -> Fraction:
    """A numerator in [-bound, bound], then a denominator in [1, max_den]."""
    return Fraction(rng.randint(-bound, bound), rng.randint(1, max_den))


def random_coefficient(rng, bound: int = 6, max_den: int = 4,
                       complex_share: float = 0.5) -> ComplexRational:
    """A nonzero random coefficient for seeded inputs.

    Each attempt draws the real part, then ``rng.random()``, then the
    imaginary part only when that draw is below ``complex_share``; the
    draw order is fixed, so seeded inputs repeat exactly.
    """
    while True:
        re = random_rational(rng, bound, max_den)
        im = random_rational(rng, bound, max_den) \
            if rng.random() < complex_share else 0
        if re or im:
            return ComplexRational(re, im)
