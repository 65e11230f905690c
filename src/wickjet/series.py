"""Sparse truncated series over a Wick algebra with exact coefficients.

A term is h^(k2/2) y^I yb^J, where ``I`` and ``J`` are multi-indices (one
non-negative exponent per complex variable) of the holomorphic generators
``y_i`` and their conjugates ``yb_i``, and ``k2`` is the *doubled* exponent
of the deformation parameter ``h`` — doubling keeps half-integer powers
(sqrt(h) bookkeeping from normalized bases) in integer arithmetic.  The
total degree of a term is::

    degree(k2, I, J) = k2 + |I| + |J|        # h itself has degree 2

Each term is stored under one integer key: its degree in the top bits, then
one byte per exponent, I_1 ... I_dim J_1 ... J_dim (``pack``/``unpack``), so
k2 is the degree minus the byte sum.  Sorting keys sorts by degree, the
pointwise product adds keys, and truncation, slices, shifts and
conjugation are integer compares, shifts and masks.  Every exponent is
below ``EXPONENT_LIMIT`` = 128; the top bit of each byte is a guard bit, so
the sum of two keys never carries from one field into the next.  Outside
input at or past the limit is rejected, and a product whose output would
reach it raises.  Only this module reads key bits: other modules go through
``pack``, ``unpack`` and the ``WickSeries`` methods, and the kernel's
expansion rules give exponent offsets, which ``bilinear_terms`` packs.

Every series carries a truncation degree ``trunc``: terms above it are
discarded, and the grading makes this lossless for products.  There is no
lower window: negative k2 (inverse powers of h, the extended algebra) is
allowed anywhere, and a series is exactly its terms.  Only
``WickSeries.from_records`` bounds degrees from below, for outside input.
Zero is the empty term map and equality is structural on the canonical
integer layout ``(dim, trunc, den, num)``.  Term records are read into that
layout, each literal as an integer pair, and ``str`` and ``record_lines``
write from it, each coefficient part formatted once; ``ComplexRational``
values and ``(k2, I, J)`` tuples appear only at the public surface: the
tuple-keyed constructor, ``coefficient()`` and the ``terms`` view.

A series of dim 0 has no generators: it is a series in h alone, the scalar
ring in which pairings, values at a point and 1/m expansions live.  Its key
is k2 itself.

Every sum of several series, ``+`` and ``-`` included, is one
``linear_combination`` call, built once; besides it only ``accumulate``
(record input), the kernel ``bilinear_terms`` and the pointwise
``exponential`` add coefficients by key.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from math import gcd, lcm
from operator import mul, or_
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .coefficients import (LITERAL_DIGITS, ComplexRational, format_complex,
                           format_rational, literal_digits, parse_rational)
from .errors import DegreeWindowError, DimensionMismatch, PreconditionError, TruncationMismatch

__all__ = [
    "MultiIndex",
    "EXPONENT_LIMIT",
    "mi_zero",
    "mi_factorial",
    "total_degree",
    "pack",
    "unpack",
    "accumulate",
    "linear_combination",
    "power_terms",
    "exponential",
    "bilinear_terms",
    "read_records",
    "WickSeries",
]

MultiIndex = tuple  # tuple[int, ...], length == dim
_ZERO = Fraction(0)
EXPONENT_LIMIT = 128  # one byte per exponent, its top bit the guard


def mi_zero(dim: int) -> MultiIndex:
    return (0,) * dim


def mi_factorial(index: MultiIndex) -> int:
    out = 1
    for entry in index:
        for i in range(2, entry + 1):
            out *= i
    return out


def total_degree(k2: int, I: MultiIndex, J: MultiIndex) -> int:
    """Degree of the term h^(k2/2) y^I yb^J."""
    return k2 + sum(I) + sum(J)


def pack(dim: int, k2: int, I: MultiIndex, J: MultiIndex) -> int:
    """The key of h^(k2/2) y^I yb^J; every exponent must be below the limit.

    Keys add as their terms multiply: the key of a product of two terms is
    the sum of their keys, as long as every exponent stays below the limit.
    """
    raw = bytes((*I, *J))
    return int.from_bytes(raw, "big") | (k2 + sum(raw)) << 16 * dim


def unpack(dim: int, key: int) -> tuple:
    """``(k2, I, J)`` of a key."""
    top = 16 * dim
    raw = (key & ((1 << top) - 1)).to_bytes(2 * dim, "big")
    return (key >> top) - sum(raw), tuple(raw[:dim]), tuple(raw[dim:])


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


def linear_combination(parts: list, den: int = 1) -> "WickSeries":
    """``sum (a + bi) / den * s`` over the ``(s, (a, b))`` parts, built once.

    a, b and den > 0 are integers; the series share the first one's dim and
    trunc.  The terms are summed in one pass over the lcm of their dens.
    """
    first = parts[0][0]
    common = lcm(*(s.den for s, _ in parts))
    sums: dict = {}
    get = sums.get
    for s, (a, b) in parts:
        first._check_compatible(s)
        m = common // s.den
        a, b = a * m, b * m
        for key, (c, d) in s.num.items():
            re, im = a * c - b * d, a * d + b * c
            prev = get(key)
            sums[key] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
    return first._build(sums, den * common)


def _check_positive_degrees(x: "WickSeries") -> None:
    low = x.min_degree()
    if low is not None and low < 1:
        raise PreconditionError(
            f"a power series needs every term of degree >= 1, found {low}")


def power_terms(first, x, product) -> Iterator:
    """``first``, ``first x``, ``first x x``, ... under ``product``, up to the first zero.

    Every term of x must have positive degree, so each factor of a graded
    product raises the least degree by at least one and the terms vanish
    past the truncation within ``trunc - min_degree(first) + 1`` steps.  A
    zero x ends the run after ``first`` without forming a product.
    """
    _check_positive_degrees(x)
    term = first
    while term:
        yield term
        if not x:
            return
        term = product(term, x)


def exponential(x: "WickSeries") -> "WickSeries":
    """``e^x`` under the pointwise product, built one degree slice at a time.

    The degree operator theta (a term of degree d times d) is a derivation
    of the pointwise product, because keys add, so theta e^x = (theta x) e^x
    and the slices of e^x are E_0 = 1 and E_d = (1/d) sum_(k=1..d) k x_k
    E_(d-k), x_k being the degree-k slice of x.  That visits one product's worth of
    term pairs, where summing powers forms one product per power.  Each
    slice is kept as integer pairs over its own reduced denominator.  Every
    term of x must have positive degree (see ``power_terms``), and an output
    exponent at the limit raises as in ``bilinear_terms``.
    """
    _check_positive_degrees(x)
    top, den = 16 * x.dim, x.den
    guard = int.from_bytes(b"\x80" * (2 * x.dim), "big")
    by_degree: dict = {}
    for row in x._sorted_rows():
        by_degree.setdefault(row[0] >> top, []).append(row)
    slices = {0: ([(0, 1, 0)], 1)}  # degree -> (rows, den); key 0 is the term 1
    for d in range(1, x.trunc + 1):
        parts = [(k, rows, slices[d - k]) for k, rows in by_degree.items()
                 if d - k in slices]
        if not parts:
            continue
        common = lcm(*(den_e for _, _, (_, den_e) in parts))
        sums: dict = {}
        get = sums.get
        for k, rows_x, (rows_e, den_e) in parts:
            scale = k * (common // den_e)
            for key_x, a, b in rows_x:
                a, b = a * scale, b * scale
                for key_e, c, e in rows_e:
                    key = key_x + key_e
                    re, im = a * c - b * e, a * e + b * c
                    acc = get(key)
                    if acc is None:
                        sums[key] = [re, im]
                    else:
                        acc[0] += re
                        acc[1] += im
        if reduce(or_, sums, 0) & guard:
            raise PreconditionError(
                f"a product reaches the exponent limit {EXPONENT_LIMIT}")
        g = d * den * common
        for a, b in sums.values():
            if g == 1:
                break
            g = gcd(g, a, b)
        rows = [(key, a // g, b // g) for key, (a, b) in sums.items() if a or b]
        if rows:
            slices[d] = (rows, d * den * common // g)
    # over the lcm of reduced slices the gcd is 1, so the sum is canonical
    common = lcm(*(den_e for _, den_e in slices.values()))
    num = {key: (a * (common // den_e), b * (common // den_e))
           for rows, den_e in slices.values() for key, a, b in rows}
    series = object.__new__(WickSeries)
    series._store(x.dim, x.trunc, common, num)
    return series


# The exact kernel.  Every bilinear operation (the pointwise product,
# wick_star, fock_act and formal_integral's moment rule) runs through
# ``bilinear_terms`` and differs only in its expansion rule: which output
# terms, with which integer scalars, a pair of input terms gives.  A rule
# speaks exponents, never key bits: it names the key halves of each factor
# that form its index (I of f and J of g for the star product, both halves
# for the Fock and moment rules, none for the pointwise product) and maps
# the index (I, J) to ``((offset_I, offset_J), scalar)`` pairs.  Every
# output is y^(I_f + I_g - offset_I) yb^(J_f + J_g - offset_J) at degree
# deg f + deg g: the pointwise product has offset 0, a contraction alpha
# has (alpha, alpha), the Fock rule (J, J), and the moment rule the index
# itself.  Only this module packs the offsets into key fields, on the first
# use of each index, in one table per rule and dim.  The kernel reads both
# factors' stored integer numerators; sums of pair products stay integers
# over the product of the two denominators, reduced once when the result is
# built, as in ``linear_combination`` over the lcm of its parts'
# denominators.


def _pointwise(I: MultiIndex, J: MultiIndex) -> tuple:
    """The pointwise product: every pair multiplies, with offset zero."""
    return (((I, J), 1),)  # the rule selects no half, so I and J are zero


_POINTWISE = ("", "", _pointwise)


@cache
def _packed_rule(rule: tuple, dim: int) -> tuple:
    """``(select_f, select_g, table, fill)`` on the key fields of ``rule`` at ``dim``.

    A half "I" selects the fields of I, "J" those of J; ``fill`` reads an
    index's fields as (I, J) and packs the offsets the rule gives.
    """
    halves_f, halves_g, expand = rule
    half = 8 * dim
    low = (1 << half) - 1

    def select(halves: str) -> int:
        return (low << half if "I" in halves else 0) | (low if "J" in halves else 0)

    def fill(index: int) -> tuple:
        _, I, J = unpack(dim, index)
        return tuple((int.from_bytes(bytes((*offset_i, *offset_j)), "big"), scalar)
                     for (offset_i, offset_j), scalar in expand(I, J))

    return select(halves_f), select(halves_g), {}, fill


def bilinear_terms(f: "WickSeries", g: "WickSeries", rule: tuple) -> tuple:
    """A bilinear operation as integer pairs ``{key: [a, b]}`` over a denominator.

    ``rule`` is ``(halves_f, halves_g, expand)``.  A term c_f of f and a
    term c_g of g form the index (I, J) from the halves the rule names,
    summed over both factors; each ``((offset_I, offset_J), scalar)`` that
    ``expand(I, J)`` gives adds ``scalar * c_f * c_g`` to the term
    y^(I_f + I_g - offset_I) yb^(J_f + J_g - offset_J) of degree
    deg f + deg g.  Pairs past f's truncation are never visited.  An output exponent at the limit raises ``PreconditionError``
    instead of wrapping.  Returns ``(sums, den)``; sums that cancel stay as
    [0, 0].
    """
    select_f, select_g, table, fill = _packed_rule(rule, f.dim)
    lookup = table.get
    rows_g = g._sorted_rows()
    bound = (f.trunc + 1) << 16 * f.dim  # the least key past the truncation
    sums: dict = {}
    get = sums.get
    for key_f, a, b in f._sorted_rows():
        room = bound - key_f
        part = key_f & select_f
        for key_g, c, d in rows_g:
            if key_g >= room:
                break
            index = part + (key_g & select_g)
            offsets = lookup(index)
            if offsets is None:
                offsets = table[index] = fill(index)
            re = a * c - b * d
            im = a * d + b * c
            base = key_f + key_g
            for offset, scalar in offsets:
                key = base - offset
                acc = get(key)
                if acc is None:
                    sums[key] = [re * scalar, im * scalar]
                else:
                    acc[0] += re * scalar
                    acc[1] += im * scalar
    if reduce(or_, sums, 0) & int.from_bytes(b"\x80" * (2 * f.dim), "big"):
        raise PreconditionError(
            f"a product reaches the exponent limit {EXPONENT_LIMIT}")
    return sums, f.den * g.den


def _record_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer index, got {value!r}")
    return value


def read_records(records: Iterable[dict], dim: int) -> tuple:
    """Term records as integer pairs ``{key: (a, b)}`` over one denominator.

    A record holds an integer ``"k2"``, integer lists ``"I"`` and ``"J"``
    and rational strings ``"re"``/``"im"`` such as ``"-3/2"`` (missing
    means zero); booleans and non-integral numbers are rejected, and so is
    any other malformed record (KeyError, TypeError or ValueError) and any
    key that does not fit ``dim`` (see ``_pack_checked``).  Each coefficient
    is (a + bi) / den, with den the lcm of the literals' denominators as
    written; the series constructors reduce it.  Keys are packed here, once.
    Duplicate keys add up; sums that cancel stay as (0, 0), so the caller
    checks every key it was given.
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
    keys = _pack_checked(dim, keys)
    den = lcm(*(q for _, q in parts))
    ints = [p * (den // q) for p, q in parts]
    re_sums = accumulate(zip(keys, ints[::2]))
    im_sums = accumulate(zip(keys, ints[1::2]))
    return {key: (a, im_sums[key]) for key, a in re_sums.items()}, den


def _pack_checked(dim: int, keys: Iterable) -> list:
    """Pack ``(k2, I, J)`` keys of outside input, rejecting a negative dim and
    keys that do not fit it: wrong lengths, negative entries, or an exponent
    at or past ``EXPONENT_LIMIT``."""
    if dim < 0:
        raise DimensionMismatch(f"dim must be >= 0, got {dim}")
    top = 16 * dim
    guard = int.from_bytes(b"\x80" * (2 * dim), "big")
    packed = []
    for key in keys:
        k2, I, J = key
        if len(I) != dim or len(J) != dim:
            raise DimensionMismatch(
                f"multi-index length != dim={dim} in term {key}")
        entries = I + J
        try:
            fields = int.from_bytes(bytes(entries), "big")
        except ValueError:  # an entry outside 0..255
            fields = guard
        if fields & guard:
            if min(entries) < 0:
                raise ValueError(f"negative multi-index entry in term {key}")
            raise ValueError(f"exponent {max(entries)} in term {key} is at or "
                             f"past the limit {EXPONENT_LIMIT}")
        packed.append(fields | (k2 + sum(entries)) << top)
    return packed


class WickSeries:
    """A sparse, truncated element of the (extended) Wick algebra.

    The coefficient of the term with key ``key`` (see ``pack``) is
    (a + bi) / den for ``num[key] == (a, b)``, kept canonical: den > 0, no
    (0, 0) pair, no term past ``trunc``, and gcd(den, every a, every b) == 1.
    ``num`` must not be mutated.
    """

    __slots__ = ("dim", "trunc", "den", "num", "_rows", "_terms")

    def __init__(self, dim: int, trunc: int, terms: Mapping | None = None):
        coeffs = {(k2, tuple(I), tuple(J)): ComplexRational.coerce(c)
                  for (k2, I, J), c in (terms or {}).items()}
        keys = _pack_checked(dim, coeffs)
        den = lcm(*(x.denominator for c in coeffs.values() for x in (c.re, c.im)))
        self._fill(dim, trunc, {key: (c.re.numerator * (den // c.re.denominator),
                                      c.im.numerator * (den // c.im.denominator))
                                for key, c in zip(keys, coeffs.values())}, den)

    def _fill(self, dim: int, trunc: int, num: Mapping, den: int) -> None:
        """Store ``num`` over ``den`` canonically, dropping terms past ``trunc``.

        The keys are trusted: ``__init__`` and ``read_records`` check the
        multi-indices of outside input, and the kernel checks its outputs
        against the exponent limit.
        """
        if trunc < 0:
            raise ValueError(f"trunc must be >= 0, got {trunc}")
        bound = (trunc + 1) << 16 * dim
        kept: dict = {}
        common = den
        for key, (a, b) in num.items():
            if key >= bound or not (a or b):
                continue
            if common != 1:
                common = gcd(common, a, b)
            kept[key] = (a, b)
        if common != 1:
            den //= common
            kept = {key: (a // common, b // common) for key, (a, b) in kept.items()}
        self._store(dim, trunc, den, kept)

    def _store(self, dim: int, trunc: int, den: int, num: dict) -> None:
        """Set the slots from ``num`` over ``den``, already canonical."""
        for name, value in zip(self.__slots__,
                               (dim, trunc, den, num, None, None)):
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
        return cls.zero(dim, trunc)._build({0: (1, 0)}, 1)  # key 0 is the term 1

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
        """Read-only ``{(k2, I, J): ComplexRational}`` view in (k2, I, J) order, built on first use.

        Only tests and the benchmark tracer read it; the engine works on
        ``num`` and ``den``, or on ``coefficient()``.
        """
        if self._terms is None:
            dim, den = self.dim, self.den
            object.__setattr__(self, "_terms", MappingProxyType(dict(sorted(
                (unpack(dim, key), ComplexRational(Fraction(a, den),
                                                   Fraction(b, den) if b else _ZERO))
                for key, (a, b) in self.num.items()))))
        return self._terms

    def _sorted_rows(self) -> list:
        """``(key, a, b)`` per term by key, so by degree; kept for the next product."""
        if self._rows is None:
            object.__setattr__(self, "_rows", [
                (key, a, b) for key, (a, b) in sorted(self.num.items())])
        return self._rows

    def coefficient(self, k2: int, I: MultiIndex | None = None,
                    J: MultiIndex | None = None) -> ComplexRational:
        """The coefficient of h^(k2/2) y^I yb^J; I and J default to zero.

        Exponents that no stored term can have (negative, at or past the
        limit, or a multi-index of the wrong length) read as zero.
        """
        dim = self.dim
        if I is None and J is None:
            key = k2 << 16 * dim
        else:
            I = mi_zero(dim) if I is None else tuple(I)
            J = mi_zero(dim) if J is None else tuple(J)
            fits = len(I) == len(J) == dim and all(
                0 <= e < EXPONENT_LIMIT for e in I + J)
            key = pack(dim, k2, I, J) if fits else None
        a, b = self.num.get(key, (0, 0))
        return ComplexRational(Fraction(a, self.den), Fraction(b, self.den))

    def min_degree(self) -> int | None:
        """Least term degree, or None for the zero series."""
        if not self.num:
            return None
        return min(self.num) >> 16 * self.dim

    @property
    def lower_bound(self) -> int:
        # ``bench/tracer.py`` keys inputs by it; derived from the terms, never
        # stored, and read nowhere else.  Goes when the benchmark drops it.
        return min(0, self.min_degree() or 0)

    def degree_slice(self, degree: int) -> "WickSeries":
        """The homogeneous part of the given total degree."""
        top = 16 * self.dim
        low, high = degree << top, (degree + 1) << top
        picked = {k: v for k, v in self.num.items() if low <= k < high}
        return self._build(picked, self.den)

    def bidegrees(self) -> dict:
        """``{key: (k2, |I|, |J|)}``: each term's doubled h-exponent and its
        degrees in y and in yb.  The byte sum of each key half is taken once
        per distinct half, which terms share."""
        dim = self.dim
        half = 8 * dim
        low = (1 << half) - 1
        sums: dict = {}
        get = sums.get
        out = {}
        for key in self.num:
            i = get(upper := key >> half & low)
            if i is None:
                i = sums[upper] = sum(upper.to_bytes(dim, "big"))
            j = get(lower := key & low)
            if j is None:
                j = sums[lower] = sum(lower.to_bytes(dim, "big"))
            out[key] = ((key >> 2 * half) - i - j, i, j)
        return out

    def h_powers(self) -> set:
        """The doubled h-exponents k2 of the terms: degree minus byte sum."""
        dim = self.dim
        top, size = 16 * dim, 2 * dim
        fields = (1 << top) - 1
        return {(key >> top) - sum((key & fields).to_bytes(size, "big"))
                for key in self.num}

    def is_plain(self) -> bool:
        """No inverse powers of h (no negative k2)."""
        return min(self.h_powers(), default=0) >= 0

    def is_holomorphic(self) -> bool:
        """Only y generators (J = 0 throughout)."""
        low = (1 << 8 * self.dim) - 1
        return not any(key & low for key in self.num)

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

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign: int):
        """``self + sign * other``; a scalar other is a constant series."""
        if isinstance(other, (int, Fraction, ComplexRational)):
            other = WickSeries.monomial(self.dim, self.trunc, other)
        if not isinstance(other, WickSeries):
            return NotImplemented
        return linear_combination([(self, (1, 0)), (other, (sign, 0))])

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return linear_combination([(self, (-1, 0))])

    def scale(self, factor) -> "WickSeries":
        factor = ComplexRational.coerce(factor)
        if factor == 1:
            return self
        den = lcm(factor.re.denominator, factor.im.denominator)
        return linear_combination([(self, (int(factor.re * den), int(factor.im * den)))], den)

    def __mul__(self, other):
        """Pointwise (commutative) product, truncated by total degree."""
        if isinstance(other, (int, Fraction, ComplexRational)):
            return self.scale(other)
        if not isinstance(other, WickSeries):
            return NotImplemented
        self._check_compatible(other)
        return self._build(*bilinear_terms(self, other, _POINTWISE))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            return self.scale(ComplexRational(1) / ComplexRational.coerce(other))
        return NotImplemented

    def conjugate(self) -> "WickSeries":
        """Swap y^I yb^J -> y^J yb^I and conjugate coefficients (h is real).

        Every key keeps its degree and den and the gcd stay, so the result
        is canonical as it stands and skips ``_fill``'s scan.
        """
        half = 8 * self.dim
        low, fields = (1 << half) - 1, (1 << 2 * half) - 1
        flipped = {}
        for key, (a, b) in self.num.items():
            both = key & fields
            flipped[key ^ both ^ ((both & low) << half | both >> half)] = (a, -b)
        series = object.__new__(WickSeries)
        series._store(self.dim, self.trunc, self.den, flipped)
        return series

    def hbar_shift(self, dk2: int) -> "WickSeries":
        """Multiply by h^(dk2/2); dk2 may be negative or odd."""
        step = dk2 << 16 * self.dim
        shifted = {key + step: pair for key, pair in self.num.items()}
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
        unit = (WickSeries.unit(self.dim, self.trunc), (1, 0))
        ratio = linear_combination([unit, (self.hbar_shift(-low).scale(-inverse), (1, 0))])
        powers = [(power, (1, 0)) for power in power_terms(ratio, ratio, mul)]
        return (linear_combination([unit, *powers]) * inverse).hbar_shift(-low)

    # -- slices -------------------------------------------------------------

    def constant_part(self) -> "WickSeries":
        """The (I, J) = (0, 0) terms, as a series in h alone (dim 0)."""
        top = 16 * self.dim
        fields = (1 << top) - 1
        picked = {key >> top: pair for key, pair in self.num.items()
                  if not key & fields}
        return self._build(picked, self.den, dim=0)

    def holomorphic_part(self) -> "WickSeries":
        low = (1 << 8 * self.dim) - 1
        picked = {key: v for key, v in self.num.items() if not key & low}
        return self._build(picked, self.den)

    def antiholomorphic_part(self) -> "WickSeries":
        half = 8 * self.dim
        high = ((1 << half) - 1) << half
        picked = {key: v for key, v in self.num.items() if not key & high}
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

    def _exponent_items(self) -> list:
        """``(k2, exponents, re, im)`` per term in (k2, I, J) order, for the writers.

        ``exponents`` is the bytes I_1 ... I_dim J_1 ... J_dim of the key, and
        ``re`` and ``im`` are the coefficient's parts as ``format_rational``
        writes them, each formatted once for the text and the records.
        """
        top, size, den = 16 * self.dim, 2 * self.dim, self.den
        fields = (1 << top) - 1
        # (k2, exponents) is unique per term, so the sort compares no strings
        return sorted(((key >> top) - sum(raw := (key & fields).to_bytes(size, "big")), raw,
                       format_rational(a, den), format_rational(b, den) if b else "0")
                      for key, (a, b) in self.num.items())

    def __str__(self) -> str:
        return _text(self.dim, self._exponent_items())

    # -- serialization ---------------------------------------------------------

    def record_lines(self, *dropped: str) -> tuple:
        """``(lines, unreadable)``: one JSON record line per term (see ``_json_lines``)."""
        return _json_lines(self.dim, self._exponent_items(), dropped)

    def text_and_record_lines(self) -> tuple:
        """``str(self)`` and ``self.record_lines()``, from one sort of the terms
        and one format of each coefficient part."""
        items = self._exponent_items()
        return (_text(self.dim, items), *_json_lines(self.dim, items, ()))

    @classmethod
    def from_records(cls, dim: int, trunc: int, records: Iterable[dict],
                     lower_bound: int = 0) -> "WickSeries":
        """Read term records (see ``read_records``); a key that does not fit
        ``dim`` raises, and so does a kept term of degree below ``lower_bound``."""
        num, den = read_records(records, dim)
        series = object.__new__(cls)
        series._fill(dim, trunc, num, den)
        top = 16 * dim
        for key in series.num:
            if key >> top < lower_bound:
                raise DegreeWindowError(
                    f"term {unpack(dim, key)} has degree {key >> top} "
                    f"< lower bound {lower_bound}")
        return series


def _text(dim: int, items: list) -> str:
    """``str`` of a series of this dim from its ``_exponent_items``."""
    if not items:
        return "0"
    names = [symbol if dim == 1 else f"{symbol}{i}"
             for symbol in ("y", "yb") for i in range(1, dim + 1)]
    text = " + ".join(_format_term(names, *item) for item in items)
    return text.replace("+ -", "- ")


def _json_lines(dim: int, items: list, dropped: tuple) -> tuple:
    """``(lines, unreadable)`` from a series' ``_exponent_items``.

    Each line is ``json.dumps`` of the term's record ``{"k2", "I", "J",
    "re", "im"}``, byte for byte, with the ``dropped`` fields left out; a
    series of dim 0 also leaves out I and J.  ``unreadable`` numbers, from
    1, the records with a literal of more than ``LITERAL_DIGITS`` digits,
    which ``read_records`` refuses.
    """
    show_k2 = "k2" not in dropped
    show_i, show_j = (bool(dim) and name not in dropped for name in "IJ")
    lines, unreadable = [], []
    for number, (k2, raw, re, im) in enumerate(items, 1):
        key = f'"k2": {k2}, ' if show_k2 else ""
        if show_i:
            key += f'"I": {list(raw[:dim])}, '
        if show_j:
            key += f'"J": {list(raw[dim:])}, '
        lines.append(f'{{{key}"re": "{re}", "im": "{im}"}}')
        if max(literal_digits(re), literal_digits(im)) > LITERAL_DIGITS:
            unreadable.append(number)
    return lines, unreadable


def _format_hbar(k2: int) -> str:
    if k2 == 2:
        return "h"
    if k2 % 2 == 0:
        return f"h^{k2 // 2}"
    return f"h^({k2}/2)"


def _format_term(names: list, k2: int, exponents: bytes, re: str, im: str) -> str:
    """The term (re + im i) h^(k2/2) y^I yb^J as ``str`` prints it.

    ``names`` holds the variable names of y then yb, none at dim 0, and
    ``exponents`` the matching powers I then J; ``re`` and ``im`` are the
    formatted parts of the coefficient.
    """
    factors = [_format_hbar(k2)] if k2 else []
    factors += [name if power == 1 else f"{name}^{power}"
                for name, power in zip(names, exponents) if power]
    if not factors:  # a series in h alone also brackets a negative constant
        coeff = format_complex(re, im)
        return f"({coeff})" if im != "0" or (not names and re[0] == "-") else coeff
    body = " ".join(factors)
    if im != "0":
        return f"({format_complex(re, im)}) {body}"
    if re == "1":
        return body
    if re == "-1":
        return f"-{body}"
    return f"{re} {body}"


# ``bench/tracer.py`` wraps ``HbarSeries.__mul__`` by name; the alias keeps
# that target resolvable until the benchmark drops it.  Not exported.
HbarSeries = WickSeries
