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
integer layout ``(dim, trunc, den, num)``.

A series of dim 0 has no generators: it is a series in h alone, the scalar
ring in which pairings, values at a point and 1/m expansions live.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, itemgetter, mul
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .coefficients import ComplexRational, format_rational, parse_rational
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
    "read_record",
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


def accumulate(pairs: Iterable, out: dict | None = None) -> dict:
    """Sum ``(key, coefficient)`` pairs by key into ``out`` (a new dict by default).

    Sums that cancel stay in place as zero entries; the series constructors
    drop them, so no zero test runs per pair.
    """
    if out is None:
        out = {}
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
# wick_star, fock_act, anti_fock_act) runs through ``bilinear_terms`` and
# differs only in its expansion rule: which output monomials, with which
# integer scalars, a pair of input terms gives.  It reads both factors'
# stored integer numerators; sums of pair products stay integers over the
# product of the two denominators, reduced once when the result is built.


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


def _record_rational(rec: dict, name: str) -> Fraction:
    text = rec.get(name, "0")
    if not isinstance(text, str):
        raise ValueError(f"\"{name}\" must be a rational string, got {text!r}")
    return parse_rational(text)


def read_record(rec: dict, *fields: str) -> tuple:
    """One term record as ``(key, coefficient)``; malformed ones raise ValueError.

    ``"k2"`` is read as an integer and every other named field as a list of
    integers; booleans and non-integral numbers are rejected.  One field
    gives a bare key, several give a tuple.  ``re``/``im`` are rational
    strings such as ``"-3/2"`` (missing means zero).
    """
    parts = tuple(_record_int(rec[name]) if name == "k2"
                  else tuple(_record_int(e) for e in rec[name])
                  for name in fields)
    coeff = ComplexRational(_record_rational(rec, "re"),
                            _record_rational(rec, "im"))
    return (parts[0] if len(parts) == 1 else parts), coeff


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
        if dim < 0:
            raise DimensionMismatch(f"dim must be >= 0, got {dim}")
        for key in coeffs:
            if len(key[1]) != dim or len(key[2]) != dim:
                raise DimensionMismatch(
                    f"multi-index length != dim={dim} in term {key}")
            if min(key[1] + key[2], default=0) < 0:
                raise ValueError(f"negative multi-index entry in term {key}")
        den = lcm(*(x.denominator for c in coeffs.values() for x in (c.re, c.im)))
        self._fill(dim, trunc, {key: (c.re.numerator * (den // c.re.denominator),
                                      c.im.numerator * (den // c.im.denominator))
                                for key, c in coeffs.items()}, den)

    def _fill(self, dim: int, trunc: int, num: Mapping, den: int) -> None:
        """Store ``num`` over ``den`` canonically, dropping terms past ``trunc``.

        The keys are trusted: ``__init__`` checks the multi-indices of
        outside input, and the kernel's expansion rules keep them in form.
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
        """Read-only ``{(k2, I, J): ComplexRational}`` view, built on first use."""
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

    def sorted_terms(self) -> list:
        """Terms in canonical (k2, I, J) lexicographic order."""
        return sorted(self.terms.items())

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

    def is_antiholomorphic(self) -> bool:
        return all(not any(I) for (_, I, _) in self.num)

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
        inverse = lead.inverse()
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
        return " + ".join(_format_term(self.dim, key, coeff)
                          for key, coeff in self.sorted_terms()).replace("+ -", "- ")

    # -- serialization ---------------------------------------------------------

    def to_records(self) -> list[dict]:
        """One record per term; a series in h alone (dim 0) leaves out I and J."""
        return [{"k2": k2, **({"I": list(I), "J": list(J)} if self.dim else {}),
                 "re": format_rational(c.re), "im": format_rational(c.im)}
                for (k2, I, J), c in self.sorted_terms()]

    @classmethod
    def from_records(cls, dim: int, trunc: int, records: Iterable[dict],
                     lower_bound: int = 0) -> "WickSeries":
        """Read term records; a kept term of degree below ``lower_bound`` raises."""
        series = cls(dim, trunc,
                     accumulate(read_record(rec, "k2", "I", "J") for rec in records))
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


def _format_vars(symbol: str, index: MultiIndex, dim: int) -> list[str]:
    parts = []
    for i, power in enumerate(index):
        if not power:
            continue
        name = symbol if dim == 1 else f"{symbol}{i + 1}"
        parts.append(name if power == 1 else f"{name}^{power}")
    return parts


def _format_term(dim: int, key, coeff: ComplexRational) -> str:
    k2, I, J = key
    factors: list[str] = []
    if k2:
        factors.append(_format_hbar(k2))
    factors.extend(_format_vars("y", I, dim))
    factors.extend(_format_vars("yb", J, dim))
    if not factors:  # a series in h alone also brackets a negative constant
        return f"({coeff})" if coeff.im or (not dim and coeff.re < 0) else str(coeff)
    body = " ".join(factors)
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    if coeff.im:
        return f"({coeff}) {body}"
    return f"{coeff} {body}"


# ``bench/tracer.py`` wraps ``HbarSeries.__mul__`` by name; the alias keeps
# that target resolvable until the benchmark drops it.  Not exported.
HbarSeries = WickSeries
