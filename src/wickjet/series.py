"""Sparse truncated series over a Wick algebra with exact coefficients.

A term is keyed by ``(k2, I, J)`` where ``I`` and ``J`` are multi-indices
(tuples of non-negative ints, one slot per complex variable) recording the
powers of the holomorphic generators ``y_i`` and their conjugates ``yb_i``,
and ``k2`` is the *doubled* exponent of the deformation parameter ``h`` —
doubling keeps half-integer powers (sqrt(h) bookkeeping from normalized
bases) in integer arithmetic.  The total degree of a term is::

    degree(k2, I, J) = k2 + |I| + |J|        # h itself has degree 2

Every series carries a truncation degree ``trunc`` (terms above it are
discarded — the grading makes this lossless for products) and a
``lower_bound`` on allowed term degrees (negative bounds admit the extended
algebra with inverse powers of h).  Zero is the empty term map and equality
is structural on the canonical integer layout ``(dim, trunc, den, num)``.
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
    "mi_add",
    "mi_sub",
    "mi_factorial",
    "total_degree",
    "accumulate",
    "power_terms",
    "bilinear_terms",
    "read_record",
    "WickSeries",
    "HbarSeries",
]

MultiIndex = tuple  # tuple[int, ...], length == dim
_ZERO = Fraction(0)


def mi_zero(dim: int) -> MultiIndex:
    return (0,) * dim


def mi_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x + y for x, y in zip(a, b))


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

    __slots__ = ("dim", "trunc", "lower_bound", "den", "num", "_rows", "_terms")

    def __init__(self, dim: int, trunc: int, terms: Mapping | None = None,
                 lower_bound: int = 0):
        coeffs = {(k2, tuple(I), tuple(J)): ComplexRational.coerce(c)
                  for (k2, I, J), c in (terms or {}).items()}
        den = lcm(*(x.denominator for c in coeffs.values() for x in (c.re, c.im)))
        self._fill(dim, trunc, {key: (c.re.numerator * (den // c.re.denominator),
                                      c.im.numerator * (den // c.im.denominator))
                                for key, c in coeffs.items()}, den, lower_bound)

    def _fill(self, dim: int, trunc: int, num: Mapping, den: int,
              lower_bound: int) -> None:
        """The one constructor: checks ``num`` over ``den`` and stores it canonically."""
        if dim < 1:
            raise DimensionMismatch(f"dim must be >= 1, got {dim}")
        if trunc < 0:
            raise ValueError(f"trunc must be >= 0, got {trunc}")
        kept: dict = {}
        common = den
        for key, (a, b) in num.items():
            k2, I, J = key
            if len(I) != dim or len(J) != dim:
                raise DimensionMismatch(
                    f"multi-index length != dim={dim} in term {key}")
            if min(I) < 0 or min(J) < 0:
                raise ValueError(f"negative multi-index entry in term {key}")
            deg = k2 + sum(I) + sum(J)
            if deg > trunc or not (a or b):
                continue
            if deg < lower_bound:
                raise DegreeWindowError(
                    f"term {key} has degree {deg} < lower bound {lower_bound}")
            if common != 1:
                common = gcd(common, a, b)
            kept[key] = (a, b)
        if common != 1:
            den //= common
            kept = {key: (a // common, b // common) for key, (a, b) in kept.items()}
        for name, value in zip(self.__slots__,
                               (dim, trunc, lower_bound, den, kept, None, None)):
            object.__setattr__(self, name, value)

    def _build(self, num: Mapping, den: int, lower_bound: int) -> "WickSeries":
        """A series of this one's dim and trunc, through ``_fill``."""
        series = object.__new__(WickSeries)
        series._fill(self.dim, self.trunc, num, den, lower_bound)
        return series

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("WickSeries is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, dim: int, trunc: int, lower_bound: int = 0) -> "WickSeries":
        return cls(dim, trunc, None, lower_bound)

    @classmethod
    def unit(cls, dim: int, trunc: int) -> "WickSeries":
        return cls.monomial(dim, trunc, 1, 0, mi_zero(dim), mi_zero(dim))

    @classmethod
    def monomial(cls, dim: int, trunc: int, coeff, k2: int = 0,
                 I: MultiIndex | None = None, J: MultiIndex | None = None,
                 lower_bound: int | None = None) -> "WickSeries":
        I = mi_zero(dim) if I is None else tuple(I)
        J = mi_zero(dim) if J is None else tuple(J)
        deg = total_degree(k2, I, J)
        if lower_bound is None:
            lower_bound = min(0, deg)
        return cls(dim, trunc, {(k2, I, J): coeff}, lower_bound)

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

    def coefficient(self, k2: int, I: MultiIndex, J: MultiIndex) -> ComplexRational:
        a, b = self.num.get((k2, tuple(I), tuple(J)), (0, 0))
        return ComplexRational(Fraction(a, self.den), Fraction(b, self.den))

    def sorted_terms(self) -> list:
        """Terms in canonical (k2, I, J) lexicographic order."""
        return sorted(self.terms.items())

    def min_degree(self) -> int | None:
        """Least term degree, or None for the zero series."""
        if not self.num:
            return None
        return min(total_degree(*key) for key in self.num)

    def degree_slice(self, degree: int) -> "WickSeries":
        """The homogeneous part of the given total degree."""
        picked = {k: v for k, v in self.num.items() if total_degree(*k) == degree}
        return self._build(picked, self.den, min(self.lower_bound, degree))

    def is_plain(self) -> bool:
        """No inverse powers of h and a non-negative degree window."""
        return self.lower_bound >= 0 and all(k2 >= 0 for (k2, _, _) in self.num)

    def is_holomorphic(self) -> bool:
        """Only y generators (J = 0 throughout)."""
        return all(not any(J) for (_, _, J) in self.num)

    def is_antiholomorphic(self) -> bool:
        return all(not any(I) for (_, I, _) in self.num)

    # -- window management -----------------------------------------------

    def with_lower_bound(self, lower_bound: int) -> "WickSeries":
        return self._build(self.num, self.den, lower_bound)

    def retruncate(self, trunc: int) -> "WickSeries":
        """Explicitly move to a different truncation degree (never implicit)."""
        series = object.__new__(WickSeries)
        series._fill(self.dim, trunc, self.num, self.den, self.lower_bound)
        return series

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
        return self._build(sums, den, min(self.lower_bound, other.lower_bound))

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        flipped = {key: (-a, -b) for key, (a, b) in self.num.items()}
        return self._build(flipped, self.den, self.lower_bound)

    def scale(self, factor) -> "WickSeries":
        factor = ComplexRational.coerce(factor)
        if factor == 1:
            return self
        den = lcm(factor.re.denominator, factor.im.denominator)
        p, q = int(factor.re * den), int(factor.im * den)
        scaled = {key: (a * p - b * q, a * q + b * p)
                  for key, (a, b) in self.num.items()}
        return self._build(scaled, self.den * den, self.lower_bound)

    def __mul__(self, other):
        """Pointwise (commutative) product, truncated by total degree."""
        if isinstance(other, (int, Fraction, ComplexRational)):
            return self.scale(other)
        if not isinstance(other, WickSeries):
            return NotImplemented
        self._check_compatible(other)
        return self._build(*bilinear_terms(self, other, _pointwise),
                           self.lower_bound + other.lower_bound)

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
        return self._build(flipped, self.den, self.lower_bound)

    def hbar_shift(self, dk2: int) -> "WickSeries":
        """Multiply by h^(dk2/2); dk2 may be negative or odd."""
        shifted = {(k2 + dk2, I, J): pair for (k2, I, J), pair in self.num.items()}
        return self._build(shifted, self.den, self.lower_bound + dk2)

    # -- slices -------------------------------------------------------------

    def constant_part(self) -> "HbarSeries":
        """The (I, J) = (0, 0) terms, as a series in h alone."""
        dim0, den = mi_zero(self.dim), self.den
        return HbarSeries(self.trunc, {
            k2: ComplexRational(Fraction(a, den), Fraction(b, den))
            for (k2, I, J), (a, b) in self.num.items() if I == dim0 and J == dim0})

    def holomorphic_part(self) -> "WickSeries":
        picked = {key: v for key, v in self.num.items() if not any(key[2])}
        return self._build(picked, self.den, self.lower_bound)

    # -- equality / display ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, WickSeries):
            return NotImplemented
        return (self.dim == other.dim and self.trunc == other.trunc
                and self.den == other.den and self.num == other.num)

    def __hash__(self) -> int:
        return hash((self.dim, self.trunc, self.den, frozenset(self.num.items())))

    def __repr__(self) -> str:
        return (f"WickSeries(dim={self.dim}, trunc={self.trunc}, "
                f"lower_bound={self.lower_bound}, terms={len(self.num)})")

    def __str__(self) -> str:
        if not self.num:
            return "0"
        return " + ".join(_format_term(self.dim, key, coeff)
                          for key, coeff in self.sorted_terms()).replace("+ -", "- ")

    # -- serialization ---------------------------------------------------------

    def to_records(self) -> list[dict]:
        return [{"k2": k2, "I": list(I), "J": list(J), "re": format_rational(c.re),
                 "im": format_rational(c.im)} for (k2, I, J), c in self.sorted_terms()]

    @classmethod
    def from_records(cls, dim: int, trunc: int, records: Iterable[dict],
                     lower_bound: int = 0) -> "WickSeries":
        terms = accumulate(read_record(rec, "k2", "I", "J") for rec in records)
        return cls(dim, trunc, terms, lower_bound)


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
    if not factors:
        return f"({coeff})" if coeff.im else str(coeff)
    body = " ".join(factors)
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    if coeff.im:
        return f"({coeff}) {body}"
    return f"{coeff} {body}"


class HbarSeries:
    """A truncated series in the deformation parameter alone (k2-keyed)."""

    __slots__ = ("trunc", "terms")

    def __init__(self, trunc: int, terms: Mapping | None = None):
        object.__setattr__(self, "trunc", trunc)
        clean: dict = {}
        if terms:
            for k2, raw in terms.items():
                coeff = ComplexRational.coerce(raw)
                if not coeff or k2 > trunc:
                    continue
                clean[k2] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("HbarSeries is immutable")

    @classmethod
    def zero(cls, trunc: int) -> "HbarSeries":
        return cls(trunc)

    @classmethod
    def one(cls, trunc: int) -> "HbarSeries":
        return cls(trunc, {0: 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, k2: int) -> ComplexRational:
        return self.terms.get(k2, ComplexRational(0))

    def min_degree(self) -> int | None:
        """Least term degree (k2, as h has degree 2), or None for the zero series."""
        return min(self.terms) if self.terms else None

    def sorted_terms(self) -> list:
        return sorted(self.terms.items())

    def _check(self, other: "HbarSeries") -> None:
        if self.trunc != other.trunc:
            raise TruncationMismatch(f"trunc {self.trunc} != {other.trunc}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            other = HbarSeries(self.trunc, {0: other})
        if not isinstance(other, HbarSeries):
            return NotImplemented
        self._check(other)
        return HbarSeries(self.trunc,
                          accumulate(other.terms.items(), dict(self.terms)))

    __radd__ = __add__

    def __neg__(self):
        return HbarSeries(self.trunc, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            other = HbarSeries(self.trunc, {0: other})
        if not isinstance(other, HbarSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            factor = ComplexRational.coerce(other)
            return HbarSeries(self.trunc,
                              {k: c * factor for k, c in self.terms.items()})
        if not isinstance(other, HbarSeries):
            return NotImplemented
        self._check(other)
        trunc = self.trunc
        return HbarSeries(trunc, accumulate(
            (ka + kb, ca * cb) for ka, ca in self.terms.items()
            for kb, cb in other.terms.items() if ka + kb <= trunc))

    __rmul__ = __mul__

    def shift(self, dk2: int) -> "HbarSeries":
        return HbarSeries(self.trunc, {k + dk2: c for k, c in self.terms.items()})

    def reciprocal(self) -> "HbarSeries":
        """Multiplicative inverse; the lowest term must be nonzero.

        The lowest power is peeled off and the rest inverted geometrically,
        so the result may carry negative powers; coefficients are exact
        through ``trunc - 2 * min_degree`` and the caller slices as needed.
        """
        low = self.min_degree()
        if low is None:
            raise ZeroDivisionError("reciprocal of the zero series")
        inverse = self.terms[low].inverse()
        ratio = (self.shift(-low) - self.terms[low]) * -inverse  # positive powers
        acc = sum(power_terms(ratio, ratio, mul), HbarSeries.one(self.trunc))
        return (acc * inverse).shift(-low)

    def truncate_k2(self, k2_max: int) -> "HbarSeries":
        return HbarSeries(self.trunc, {k: c for k, c in self.terms.items() if k <= k2_max})

    def conjugate(self) -> "HbarSeries":
        return HbarSeries(self.trunc, {k: c.conjugate() for k, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, ComplexRational)):
            other = HbarSeries(self.trunc, {0: other})
        if not isinstance(other, HbarSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.trunc, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"HbarSeries(trunc={self.trunc}, terms={dict(self.sorted_terms())!r})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k2, coeff in self.sorted_terms():
            if k2 == 0:
                parts.append(str(coeff) if coeff.is_real and coeff.re >= 0 else f"({coeff})")
                continue
            body = _format_hbar(k2)
            if coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            elif coeff.im:
                parts.append(f"({coeff}) {body}")
            else:
                parts.append(f"{coeff} {body}")
        return " + ".join(parts).replace("+ -", "- ")

    def to_records(self) -> list[dict]:
        return [{"k2": k2, "re": format_rational(c.re), "im": format_rational(c.im)}
                for k2, c in self.sorted_terms()]

    @classmethod
    def from_records(cls, trunc: int, records: Iterable[dict]) -> "HbarSeries":
        return cls(trunc, accumulate(read_record(rec, "k2") for rec in records))


def iter_multi_indices(dim: int, max_abs: int) -> Iterator[MultiIndex]:
    """All multi-indices of length dim with |I| <= max_abs, lexicographic."""
    if dim == 0:
        yield ()
        return
    for head in range(max_abs + 1):
        for tail in iter_multi_indices(dim - 1, max_abs - head):
            yield (head,) + tail
