"""Sparse truncated series over a Wick algebra with exact coefficients.

A term is keyed by ``(k2, I, J)`` where ``I`` and ``J`` are multi-indices
(tuples of non-negative ints, one slot per complex variable) recording the
powers of the holomorphic generators ``y_i`` and their conjugates ``yb_i``,
and ``k2`` is the *doubled* exponent of the deformation parameter ``h`` —
doubling keeps half-integer powers (sqrt(h) bookkeeping from normalized
bases) in integer arithmetic.  The total degree of a term is::

    degree(k2, I, J) = k2 + |I| + |J|        # h itself has degree 2

Every series carries a truncation degree ``trunc``: terms above it are
discarded, and the grading makes this lossless for products.  There is no
lower window: negative k2 (inverse powers of h, the extended algebra) is
allowed anywhere, and a series is exactly its terms.  Only
``WickSeries.from_records`` bounds degrees from below, for outside input.
Zero is the empty term map and equality is structural on the canonical
integer layout ``(dim, trunc, den, num)``.  Term records are read into that
layout and ``str`` and ``to_records`` write from it; ``ComplexRational``
values appear only in ``coefficient()`` and the ``terms`` view.

A series of dim 0 has no generators: it is a series in h alone, the scalar
ring in which pairings, values at a point and 1/m expansions live.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, itemgetter, mul
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .coefficients import (ComplexRational, format_complex, format_rational,
                           parse_rational)
from .errors import DegreeWindowError, DimensionMismatch, PreconditionError, TruncationMismatch

__all__ = [
    "MultiIndex",
    "mi_zero",
    "mi_sub",
    "mi_factorial",
    "total_degree",
    "accumulate",
    "power_terms",
    "bilinear_terms",
    "read_records",
    "WickSeries",
]

MultiIndex = tuple  # tuple[int, ...], length == dim
_ZERO = Fraction(0)


def mi_zero(dim: int) -> MultiIndex:
    return (0,) * dim


def mi_sub(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x - y for x, y in zip(a, b))


def mi_factorial(index: MultiIndex) -> int:
    out = 1
    for entry in index:
        for i in range(2, entry + 1):
            out *= i
    return out


def total_degree(k2: int, I: MultiIndex, J: MultiIndex) -> int:
    """Degree of the term h^(k2/2) y^I yb^J."""
    return k2 + sum(I) + sum(J)


def accumulate(pairs: Iterable) -> dict:
    """Sum ``(key, coefficient)`` pairs by key into a new dict.

    Sums that cancel stay in place as zero entries; the series constructors
    drop them, so no zero test runs per pair.
    """
    out: dict = {}
    get = out.get
    for key, value in pairs:
        prev = get(key)
        out[key] = value if prev is None else prev + value
    return out


def power_terms(first, x, product) -> Iterator:
    """``first``, ``first x``, ``first x x``, ... under ``product``, up to the first zero.

    Every term of x must have positive degree, so each factor of a graded
    product raises the least degree by at least one and the terms vanish
    past the truncation within ``trunc - min_degree(first) + 1`` steps.  A
    zero x ends the run after ``first`` without forming a product.
    """
    low = x.min_degree()
    if low is not None and low < 1:
        raise PreconditionError(
            f"a power series needs every term of degree >= 1, found {low}")
    term = first
    while term:
        yield term
        if not x:
            return
        term = product(term, x)


# The exact kernel.  Every bilinear operation (the pointwise product,
# wick_star, fock_act and formal_integral's moment rule) runs through
# ``bilinear_terms`` and differs only in its expansion rule: which
# output monomials, with which integer scalars, a pair of input terms gives.
# It reads both factors' stored integer numerators; sums of pair products
# stay integers over the product of the two denominators, reduced once when
# the result is built.


def bilinear_terms(f: "WickSeries", g: "WickSeries", expand) -> tuple:
    """A bilinear operation as integer pairs ``{key: [a, b]}`` over a denominator.

    ``expand(key_f, key_g)`` returns ``(key, scalar)`` pairs with integer
    scalars: the terms c_f x^key_f of f and c_g x^key_g of g contribute
    ``scalar * c_f * c_g`` to ``key``.  Every output key must have degree
    deg(key_f) + deg(key_g), so pairs beyond f's truncation, never visited,
    lose nothing.  Returns ``(sums, den)``; sums that cancel stay as [0, 0].
    """
    rows_g = g._sorted_rows()
    trunc = f.trunc
    sums: dict = {}
    get = sums.get
    for deg_f, key_f, a, b in f._sorted_rows():
        room = trunc - deg_f
        for deg_g, key_g, c, d in rows_g:
            if deg_g > room:
                break
            re = a * c - b * d
            im = a * d + b * c
            for key, scalar in expand(key_f, key_g):
                acc = get(key)
                if acc is None:
                    sums[key] = [re * scalar, im * scalar]
                else:
                    acc[0] += re * scalar
                    acc[1] += im * scalar
    return sums, f.den * g.den


def _record_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer index, got {value!r}")
    return value


def read_records(records: Iterable[dict]) -> tuple:
    """Term records as integer pairs ``{(k2, I, J): (a, b)}`` over one denominator.

    A record holds an integer ``"k2"``, integer lists ``"I"`` and ``"J"``
    and rational strings ``"re"``/``"im"`` such as ``"-3/2"`` (missing
    means zero); booleans and non-integral numbers are rejected, and so is
    any other malformed record (KeyError, TypeError or ValueError).  Each
    coefficient is (a + bi) / den.  Duplicate keys add up; sums that cancel
    stay as (0, 0), so the caller checks every key it was given.
    """
    keys, parts = [], []
    for rec in records:
        keys.append((_record_int(rec["k2"]), tuple(map(_record_int, rec["I"])),
                     tuple(map(_record_int, rec["J"]))))
        for name in ("re", "im"):
            text = rec.get(name, "0")
            if not isinstance(text, str):
                raise ValueError(f"\"{name}\" must be a rational string, got {text!r}")
            parts.append(parse_rational(text))
    den = lcm(*(x.denominator for x in parts))
    ints = [x.numerator * (den // x.denominator) for x in parts]
    re_sums = accumulate(zip(keys, ints[::2]))
    im_sums = accumulate(zip(keys, ints[1::2]))
    return {key: (a, im_sums[key]) for key, a in re_sums.items()}, den


def _check_keys(dim: int, keys: Iterable) -> None:
    """Reject a negative dim, and keys of outside input that do not fit it."""
    if dim < 0:
        raise DimensionMismatch(f"dim must be >= 0, got {dim}")
    for key in keys:
        if len(key[1]) != dim or len(key[2]) != dim:
            raise DimensionMismatch(
                f"multi-index length != dim={dim} in term {key}")
        if min(key[1] + key[2], default=0) < 0:
            raise ValueError(f"negative multi-index entry in term {key}")


class WickSeries:
    """A sparse, truncated element of the (extended) Wick algebra.

    The coefficient of ``key`` is (a + bi) / den for ``num[key] == (a, b)``,
    kept canonical: den > 0, no (0, 0) pair, no term past ``trunc``, and
    gcd(den, every a, every b) == 1.  ``num`` must not be mutated.
    """

    __slots__ = ("dim", "trunc", "den", "num", "_rows", "_terms")

    def __init__(self, dim: int, trunc: int, terms: Mapping | None = None):
        coeffs = {(k2, tuple(I), tuple(J)): ComplexRational.coerce(c)
                  for (k2, I, J), c in (terms or {}).items()}
        _check_keys(dim, coeffs)
        den = lcm(*(x.denominator for c in coeffs.values() for x in (c.re, c.im)))
        self._fill(dim, trunc, {key: (c.re.numerator * (den // c.re.denominator),
                                      c.im.numerator * (den // c.im.denominator))
                                for key, c in coeffs.items()}, den)

    def _fill(self, dim: int, trunc: int, num: Mapping, den: int) -> None:
        """Store ``num`` over ``den`` canonically, dropping terms past ``trunc``.

        The keys are trusted: ``__init__`` and ``from_records`` check the
        multi-indices of outside input, and the kernel's expansion rules
        keep them in form.
        """
        if trunc < 0:
            raise ValueError(f"trunc must be >= 0, got {trunc}")
        kept: dict = {}
        common = den
        for key, (a, b) in num.items():
            k2, I, J = key
            if k2 + sum(I) + sum(J) > trunc or not (a or b):
                continue
            if common != 1:
                common = gcd(common, a, b)
            kept[key] = (a, b)
        if common != 1:
            den //= common
            kept = {key: (a // common, b // common) for key, (a, b) in kept.items()}
        for name, value in zip(self.__slots__,
                               (dim, trunc, den, kept, None, None)):
            object.__setattr__(self, name, value)

    def _build(self, num: Mapping, den: int, dim: int | None = None,
               trunc: int | None = None) -> "WickSeries":
        """A series through ``_fill``, of this one's dim and trunc unless given."""
        series = object.__new__(WickSeries)
        series._fill(self.dim if dim is None else dim,
                     self.trunc if trunc is None else trunc, num, den)
        return series

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("WickSeries is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, dim: int, trunc: int) -> "WickSeries":
        return cls(dim, trunc)

    @classmethod
    def unit(cls, dim: int, trunc: int) -> "WickSeries":
        return cls.monomial(dim, trunc, 1, 0, mi_zero(dim), mi_zero(dim))

    @classmethod
    def monomial(cls, dim: int, trunc: int, coeff, k2: int = 0,
                 I: MultiIndex | None = None,
                 J: MultiIndex | None = None) -> "WickSeries":
        I = mi_zero(dim) if I is None else tuple(I)
        J = mi_zero(dim) if J is None else tuple(J)
        return cls(dim, trunc, {(k2, I, J): coeff})

    # -- inspection -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def __len__(self) -> int:
        return len(self.num)

    @property
    def terms(self) -> MappingProxyType:
        """Read-only ``{(k2, I, J): ComplexRational}`` view, built on first use.

        Only tests and the benchmark tracer read it; the engine works on
        ``num`` and ``den``, or on ``coefficient()``.
        """
        if self._terms is None:
            den = self.den
            object.__setattr__(self, "_terms", MappingProxyType({
                key: ComplexRational(Fraction(a, den), Fraction(b, den) if b else _ZERO)
                for key, (a, b) in self.num.items()}))
        return self._terms

    def _sorted_rows(self) -> list:
        """``(degree, key, a, b)`` per term by degree, kept for the next product."""
        if self._rows is None:
            object.__setattr__(self, "_rows", sorted(
                ((k2 + sum(I) + sum(J), (k2, I, J), a, b)
                 for (k2, I, J), (a, b) in self.num.items()), key=itemgetter(0)))
        return self._rows

    def coefficient(self, k2: int, I: MultiIndex | None = None,
                    J: MultiIndex | None = None) -> ComplexRational:
        """The coefficient of h^(k2/2) y^I yb^J; I and J default to zero."""
        zero = mi_zero(self.dim)
        a, b = self.num.get((k2, zero if I is None else tuple(I),
                             zero if J is None else tuple(J)), (0, 0))
        return ComplexRational(Fraction(a, self.den), Fraction(b, self.den))

    def min_degree(self) -> int | None:
        """Least term degree, or None for the zero series."""
        if not self.num:
            return None
        return min(total_degree(*key) for key in self.num)

    @property
    def lower_bound(self) -> int:
        # ``bench/tracer.py`` keys inputs by it; derived from the terms, never
        # stored, and read nowhere else.  Goes when the benchmark drops it.
        return min(0, self.min_degree() or 0)

    def degree_slice(self, degree: int) -> "WickSeries":
        """The homogeneous part of the given total degree."""
        picked = {k: v for k, v in self.num.items() if total_degree(*k) == degree}
        return self._build(picked, self.den)

    def is_plain(self) -> bool:
        """No inverse powers of h (no negative k2)."""
        return all(k2 >= 0 for (k2, _, _) in self.num)

    def is_holomorphic(self) -> bool:
        """Only y generators (J = 0 throughout)."""
        return all(not any(J) for (_, _, J) in self.num)

    # -- window management -----------------------------------------------

    def retruncate(self, trunc: int) -> "WickSeries":
        """Explicitly move to a different truncation degree (never implicit)."""
        return self._build(self.num, self.den, trunc=trunc)

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "WickSeries") -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} != {other.dim}")
        if self.trunc != other.trunc:
            raise TruncationMismatch(f"trunc {self.trunc} != {other.trunc}")

    def __add__(self, other, sign: int = 1):
        """``self + sign * other``, over the lcm of the two denominators."""
        if isinstance(other, (int, Fraction, ComplexRational)):
            other = WickSeries.monomial(self.dim, self.trunc, other)
        if not isinstance(other, WickSeries):
            return NotImplemented
        self._check_compatible(other)
        den = lcm(self.den, other.den)
        mine, theirs = den // self.den, sign * (den // other.den)
        sums = dict(self.num) if mine == 1 else \
            {key: (a * mine, b * mine) for key, (a, b) in self.num.items()}
        get = sums.get
        for key, (c, d) in other.num.items():
            prev = get(key)
            sums[key] = (c * theirs, d * theirs) if prev is None \
                else (prev[0] + c * theirs, prev[1] + d * theirs)
        return self._build(sums, den)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        flipped = {key: (-a, -b) for key, (a, b) in self.num.items()}
        return self._build(flipped, self.den)

    def scale(self, factor) -> "WickSeries":
        factor = ComplexRational.coerce(factor)
        if factor == 1:
            return self
        den = lcm(factor.re.denominator, factor.im.denominator)
        p, q = int(factor.re * den), int(factor.im * den)
        scaled = {key: (a * p - b * q, a * q + b * p)
                  for key, (a, b) in self.num.items()}
        return self._build(scaled, self.den * den)

    def __mul__(self, other):
        """Pointwise (commutative) product, truncated by total degree."""
        if isinstance(other, (int, Fraction, ComplexRational)):
            return self.scale(other)
        if not isinstance(other, WickSeries):
            return NotImplemented
        self._check_compatible(other)
        return self._build(*bilinear_terms(self, other, _pointwise))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            return self.scale(ComplexRational(1) / ComplexRational.coerce(other))
        return NotImplemented

    def conjugate(self) -> "WickSeries":
        """Swap y^I yb^J -> y^J yb^I and conjugate coefficients (h is real)."""
        flipped = {(k2, J, I): (a, -b) for (k2, I, J), (a, b) in self.num.items()}
        return self._build(flipped, self.den)

    def hbar_shift(self, dk2: int) -> "WickSeries":
        """Multiply by h^(dk2/2); dk2 may be negative or odd."""
        shifted = {(k2 + dk2, I, J): pair for (k2, I, J), pair in self.num.items()}
        return self._build(shifted, self.den)

    def reciprocal(self) -> "WickSeries":
        """Multiplicative inverse; the least-degree part must be one power of h.

        The lowest power is peeled off and the rest inverted geometrically,
        so the result may carry negative powers; coefficients are exact
        through ``trunc - 2 * min_degree`` and the caller slices as needed.
        """
        low = self.min_degree()
        if low is None:
            raise ZeroDivisionError("reciprocal of the zero series")
        lead = self.coefficient(low)
        inverse = 1 / lead
        ratio = (self.hbar_shift(-low) - lead) * -inverse  # positive powers
        acc = sum(power_terms(ratio, ratio, mul), WickSeries.unit(self.dim, self.trunc))
        return (acc * inverse).hbar_shift(-low)

    # -- slices -------------------------------------------------------------

    def constant_part(self) -> "WickSeries":
        """The (I, J) = (0, 0) terms, as a series in h alone (dim 0)."""
        zero = mi_zero(self.dim)
        picked = {(k2, (), ()): pair for (k2, I, J), pair in self.num.items()
                  if I == zero and J == zero}
        return self._build(picked, self.den, dim=0)

    def holomorphic_part(self) -> "WickSeries":
        picked = {key: v for key, v in self.num.items() if not any(key[2])}
        return self._build(picked, self.den)

    def antiholomorphic_part(self) -> "WickSeries":
        picked = {key: v for key, v in self.num.items() if not any(key[1])}
        return self._build(picked, self.den)

    # -- equality / display ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, WickSeries):
            return NotImplemented
        return (self.dim == other.dim and self.trunc == other.trunc
                and self.den == other.den and self.num == other.num)

    def __hash__(self) -> int:
        return hash((self.dim, self.trunc, self.den, frozenset(self.num.items())))

    def __repr__(self) -> str:
        return f"WickSeries(dim={self.dim}, trunc={self.trunc}, terms={len(self.num)})"

    def __str__(self) -> str:
        if not self.num:
            return "0"
        dim, den = self.dim, self.den
        names = [symbol if dim == 1 else f"{symbol}{i}"
                 for symbol in ("y", "yb") for i in range(1, dim + 1)]
        text = " + ".join(_format_term(names, key, a, b, den)
                          for key, (a, b) in sorted(self.num.items()))
        return text.replace("+ -", "- ")

    # -- serialization ---------------------------------------------------------

    def to_records(self) -> list[dict]:
        """One record per term, in key order; a dim-0 series leaves out I and J."""
        dim, den = self.dim, self.den
        return [{"k2": k2, **({"I": list(I), "J": list(J)} if dim else {}),
                 "re": format_rational(a, den), "im": format_rational(b, den)}
                for (k2, I, J), (a, b) in sorted(self.num.items())]

    @classmethod
    def from_records(cls, dim: int, trunc: int, records: Iterable[dict],
                     lower_bound: int = 0) -> "WickSeries":
        """Read term records (see ``read_records``); a key that does not fit
        ``dim`` raises, and so does a kept term of degree below ``lower_bound``."""
        num, den = read_records(records)
        _check_keys(dim, num)
        series = object.__new__(cls)
        series._fill(dim, trunc, num, den)
        for key in series.num:
            degree = total_degree(*key)
            if degree < lower_bound:
                raise DegreeWindowError(
                    f"term {key} has degree {degree} < lower bound {lower_bound}")
        return series


def _pointwise(key_f, key_g) -> list:
    """The pointwise product rule: exponents add, scalar 1."""
    (k2f, If, Jf), (k2g, Ig, Jg) = key_f, key_g
    return [((k2f + k2g, tuple(map(add, If, Ig)), tuple(map(add, Jf, Jg))), 1)]


def _format_hbar(k2: int) -> str:
    if k2 == 2:
        return "h"
    if k2 % 2 == 0:
        return f"h^{k2 // 2}"
    return f"h^({k2}/2)"


def _format_term(names: list, key, a: int, b: int, den: int) -> str:
    """The term (a + bi)/den h^(k2/2) y^I yb^J as ``str`` prints it.

    ``names`` holds the variable names of y then yb, none at dim 0.
    """
    k2, I, J = key
    factors = [_format_hbar(k2)] if k2 else []
    factors += [name if power == 1 else f"{name}^{power}"
                for name, power in zip(names, I + J) if power]
    if not factors:  # a series in h alone also brackets a negative constant
        coeff = format_complex(a, b, den)
        return f"({coeff})" if b or (not names and a < 0) else coeff
    body = " ".join(factors)
    if b:
        return f"({format_complex(a, b, den)}) {body}"
    if a == den:
        return body
    if a == -den:
        return f"-{body}"
    return f"{format_rational(a, den)} {body}"


# ``bench/tracer.py`` wraps ``HbarSeries.__mul__`` by name; the alias keeps
# that target resolvable until the benchmark drops it.  Not exported.
HbarSeries = WickSeries
