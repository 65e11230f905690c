"""Closed-form oracle on the projective line with the round metric.

Inner products of monomial sections of the degree-m line bundle reduce to
Beta integrals, so every quantity here is an exact rational function of the
tensor power m: Gram norms, Toeplitz matrix entries, and their compositions.
This gives an independent route against which the formal engine's h-series
are checked coefficient by coefficient under the dictionary h <-> 1/m (the
dictionary is applied in this module and nowhere else).

Circle symmetry makes a symbol term z^a zbar^b move z^p to z^(p+a-b) only,
so Toeplitz matrices are stored by diagonals d = q - p: building one costs
O(terms * m) exact cells rather than (m+1)^2, and a composed entry sums over
pairs of diagonals.

Floating point appears only in the final convergence-rate regressions and in
numeric spot checks; all matrix data is exact.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from operator import mul

from .coefficients import ComplexRational
from .errors import PreconditionError
from .series import WickSeries, accumulate, power_terms

__all__ = [
    "FactorialRational",
    "RationalSymbol",
    "ToeplitzMatrix",
    "cp1_inner",
    "cp1_gram",
    "cp1_toeplitz",
    "peak_section",
    "mobius_pullback",
    "composition_residual",
    "symbol_jets",
    "fs_ratio_symbol",
]

_ZERO = ComplexRational(0)


def _cells(d: int, size: int) -> range:
    """Columns p where diagonal d = q - p lies inside a size x size matrix."""
    return range(max(0, -d), min(size, size - d))


class FactorialRational:
    """scalar * prod(m + a_i) / prod(m + b_j): an exact rational function of m.

    The shift multisets stay cancelled against each other, so equality of the
    stored data is equality of rational functions whenever both sides come
    from the same factored arithmetic.  Factorial ratios enter as products of
    consecutive shifts; no large factorials are ever formed.
    """

    __slots__ = ("scalar", "num_shifts", "den_shifts")

    def __init__(self, scalar=1, num_shifts=(), den_shifts=()):
        scalar = ComplexRational.coerce(scalar)
        num = sorted(int(s) for s in num_shifts)
        den = sorted(int(s) for s in den_shifts)
        if scalar:
            keep_num, keep_den = [], list(den)
            for s in num:
                if s in keep_den:
                    keep_den.remove(s)
                else:
                    keep_num.append(s)
            num, den = keep_num, keep_den
        else:
            num, den = [], []
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "num_shifts", tuple(num))
        object.__setattr__(self, "den_shifts", tuple(sorted(den)))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("FactorialRational is immutable")

    def __bool__(self) -> bool:
        return bool(self.scalar)

    def __eq__(self, other):
        if not isinstance(other, FactorialRational):
            return NotImplemented
        return (self.scalar, self.num_shifts, self.den_shifts) == \
            (other.scalar, other.num_shifts, other.den_shifts)

    def __hash__(self):
        return hash((self.scalar, self.num_shifts, self.den_shifts))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            return FactorialRational(self.scalar * ComplexRational.coerce(other),
                                     self.num_shifts, self.den_shifts)
        if not isinstance(other, FactorialRational):
            return NotImplemented
        return FactorialRational(self.scalar * other.scalar,
                                 self.num_shifts + other.num_shifts,
                                 self.den_shifts + other.den_shifts)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            return FactorialRational(
                self.scalar / ComplexRational.coerce(other),
                self.num_shifts, self.den_shifts)
        if not isinstance(other, FactorialRational):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by the zero rational function")
        return FactorialRational(self.scalar / other.scalar,
                                 self.num_shifts + other.den_shifts,
                                 self.den_shifts + other.num_shifts)

    def evaluate(self, m: int) -> ComplexRational:
        """Exact value at a numeric tensor power."""
        for s in self.den_shifts:
            if m + s == 0:
                raise PreconditionError(f"pole at m = {m}")
        value = self.scalar
        for s in self.num_shifts:
            value = value * (m + s)
        for s in self.den_shifts:
            value = value * Fraction(1, m + s)
        return value

    def expand_at_infinity(self, order: int) -> WickSeries:
        """Exact coefficients of the expansion in 1/m, with 1/m recorded as h.

        The result is an h-series (dim 0) with entries at k <= order; a net
        positive power of m appears as a negative h-power.
        """
        if order < 0:
            raise PreconditionError("expansion order must be non-negative")
        net = len(self.num_shifts) - len(self.den_shifts)
        budget = 2 * order + 2 * max(0, net)
        series = WickSeries.monomial(0, budget, self.scalar)
        for a in self.num_shifts:  # (m + a) h = 1 + a h
            series = series * WickSeries(0, budget, {(0, (), ()): 1, (2, (), ()): a})
        for b in self.den_shifts:  # 1 / ((m + b) h) = sum_k (-b h)^k
            series = series * WickSeries(0, budget, {
                (2 * k, (), ()): (-Fraction(b)) ** k for k in range(budget // 2 + 1)})
        return series.hbar_shift(-2 * net).retruncate(2 * order)

    def __repr__(self):
        def block(shifts):
            return "".join(f"(m{s:+d})" if s else "(m)" for s in shifts)
        num = block(self.num_shifts) or "1"
        den = block(self.den_shifts)
        text = f"{self.scalar}*{num}"
        return text + (f"/{den}" if den else "")


def cp1_inner(p: int, q: int) -> FactorialRational:
    """Normalized pairing of monomial sections, exact in the tensor power.

    Diagonal entries are m * p! * (m-p)!/(m+1)!; off-diagonal entries vanish
    by circle symmetry.
    """
    if p < 0 or q < 0:
        raise PreconditionError("monomial exponents must be non-negative")
    if p != q:
        return FactorialRational(0)
    return FactorialRational(math.factorial(p), (0,), range(1 - p, 2))


def cp1_gram(m: int, p: int) -> Fraction:
    """Numeric Gram diagonal; zero beyond the section space."""
    if m < 1:
        raise PreconditionError("tensor power must be at least 1")
    if p > m:
        return Fraction(0)
    return cp1_inner(p, p).evaluate(m).re


class RationalSymbol:
    """Function on the line: num terms c_ab z^a zbar^b over (1+|z|^2)^d.

    Every term must satisfy max(a, b) <= d, which keeps the symbol bounded
    and keeps the class closed under the isometry pullbacks below.
    """

    __slots__ = ("num", "denom_power")

    def __init__(self, num, denom_power: int = 0):
        d = int(denom_power)
        if d < 0:
            raise PreconditionError("denominator power must be non-negative")
        store = {}
        for key, raw in dict(num).items():
            a, b = (int(v) for v in key)
            if a < 0 or b < 0:
                raise PreconditionError(f"negative exponent in term {key!r}")
            if max(a, b) > d:
                raise PreconditionError(
                    f"term z^{a} zbar^{b} needs denominator power >= {max(a, b)}")
            coeff = ComplexRational.coerce(raw)
            if coeff:
                store[(a, b)] = coeff
        object.__setattr__(self, "num", store)
        object.__setattr__(self, "denom_power", d)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("RationalSymbol is immutable")

    @classmethod
    def constant(cls, value) -> "RationalSymbol":
        return cls({(0, 0): value}, 0)

    def is_real(self) -> bool:
        return all(self.num.get((b, a), ComplexRational(0)) == c.conjugate()
                   for (a, b), c in self.num.items())

    def evaluate(self, z: complex) -> complex:
        """Floating-point evaluation (used only for numeric spot checks)."""
        zb = z.conjugate()
        total = 0j
        for (a, b), c in self.num.items():
            total += complex(float(c.re), float(c.im)) * z ** a * zb ** b
        return total / (1.0 + (z * zb).real) ** self.denom_power

    def __eq__(self, other):
        if not isinstance(other, RationalSymbol):
            return NotImplemented
        return (self.num, self.denom_power) == (other.num, other.denom_power)

    def __hash__(self):
        return hash((frozenset(self.num.items()), self.denom_power))

    def __repr__(self):
        return (f"RationalSymbol(terms={len(self.num)}, "
                f"denom_power={self.denom_power})")


def fs_ratio_symbol() -> RationalSymbol:
    """The bounded ratio |z|^2/(1 + |z|^2), the standard test symbol."""
    return RationalSymbol({(1, 1): 1}, 1)


def symbol_jets(f: RationalSymbol, order: int) -> WickSeries:
    """Taylor jets of the symbol at the origin, for the formal engine."""
    t = WickSeries.monomial(1, order, 1, 0, (1,), (1,))
    geometric = WickSeries.unit(1, order)
    for k, power in enumerate(power_terms(t, t, mul), 1):
        geometric = geometric + power.scale(
            (-1) ** k * math.comb(f.denom_power + k - 1, k))
    numerator = WickSeries(1, order, {
        (0, (a,), (b,)): c for (a, b), c in f.num.items()
        if a + b <= order})
    return numerator * geometric


class ToeplitzMatrix:
    """Exact operator matrix in the monomial basis at a numeric tensor power.

    Entry (q, p) is the z^q coefficient of the operator applied to z^p.  The
    matrix is stored by diagonals: ``bands[d][p]`` is entry (p + d, p), each
    band has length m + 1 with zeros where p + d leaves the basis, and
    all-zero bands are not stored.  The Gram-weighted pairing is Hermitian
    for real symbols.
    """

    __slots__ = ("m", "bands")

    def __init__(self, m: int, bands):
        m = int(m)
        if m < 1:
            raise PreconditionError("tensor power must be at least 1")
        size = m + 1
        store = {}
        for d, band in dict(bands).items():
            d = int(d)
            band = tuple(ComplexRational.coerce(v) for v in band)
            if abs(d) > m:
                raise PreconditionError(f"diagonal {d} lies outside a "
                                        f"{size} x {size} matrix")
            if len(band) != size:
                raise PreconditionError(f"diagonal {d} must have {size} "
                                        f"entries")
            inside = _cells(d, size)
            if any(band[:inside.start]) or any(band[inside.stop:]):
                raise PreconditionError(f"diagonal {d} has entries outside "
                                        f"the matrix")
            if any(band):
                store[d] = band
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "bands", store)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("ToeplitzMatrix is immutable")

    def __eq__(self, other):
        if not isinstance(other, ToeplitzMatrix):
            return NotImplemented
        return (self.m, self.bands) == (other.m, other.bands)

    def _check_cell(self, q: int, p: int) -> None:
        if not (0 <= q <= self.m and 0 <= p <= self.m):
            raise PreconditionError(f"entry ({q}, {p}) lies outside the "
                                    f"matrix at tensor power {self.m}")

    def entry(self, q: int, p: int) -> ComplexRational:
        """The z^q coefficient of the operator applied to z^p."""
        self._check_cell(q, p)
        band = self.bands.get(q - p)
        return band[p] if band else _ZERO

    @property
    def entries(self) -> tuple:
        """Read-only dense view: ``entries[q][p]`` is ``entry(q, p)``."""
        size = self.m + 1
        rows = [[_ZERO] * size for _ in range(size)]
        for d, band in self.bands.items():
            for p in _cells(d, size):
                rows[p + d][p] = band[p]
        return tuple(map(tuple, rows))

    def pairing(self, p: int, q: int) -> ComplexRational:
        """The inner product of the image of z^p against z^q."""
        return self.entry(q, p) * cp1_gram(self.m, q)

    def composition_entry(self, other: "ToeplitzMatrix", p: int,
                          q: int) -> ComplexRational:
        """Entry (q, p) of the composed matrix, summed over the middle index."""
        if self.m != other.m:
            raise PreconditionError("tensor powers differ")
        self._check_cell(q, p)
        acc = _ZERO
        for d1, left in self.bands.items():
            r = q - d1
            right = other.bands.get(r - p)
            if right is not None and 0 <= r <= self.m:
                a, b = left[r], right[p]
                if a and b:
                    acc = acc + a * b
        return acc


def cp1_toeplitz(m: int, f: RationalSymbol) -> ToeplitzMatrix:
    """Exact Toeplitz matrix of the symbol at tensor power m.

    A term c z^a zbar^b fills only the diagonal q - p = a - b.  Entry (q, p)
    collects the Beta-integral pairings of f z^p against z^q, divided by the
    Gram diagonal; all factorial ratios are consecutive products, never raw
    factorials.
    """
    if m < 1:
        raise PreconditionError("tensor power must be at least 1")
    d = f.denom_power
    size = m + 1
    denom = math.prod(m + s for s in range(2, d + 2))
    bands: dict = {}
    for (a, b), c in f.num.items():
        shift = a - b
        if abs(shift) > m:
            continue
        band = bands.setdefault(shift, [_ZERO] * size)
        for p in _cells(shift, size):
            q = p + shift
            top = math.prod(range(q + 1, q + b + 1))
            mid = math.prod(m - q + i for i in range(1, d - b + 1))
            band[p] = band[p] + c * Fraction(top * mid, denom)
    return ToeplitzMatrix(m, bands)


def peak_section(m: int, p: int) -> tuple:
    """Basis vector of the degree-p monomial section (already peaked at 0)."""
    if m < 1:
        raise PreconditionError("tensor power must be at least 1")
    if not 0 <= p <= m:
        raise PreconditionError(f"no degree-{p} section at tensor power {m}")
    return tuple(Fraction(1) if i == p else Fraction(0) for i in range(m + 1))


def _binom_poly(constant: ComplexRational, linear: ComplexRational, n: int,
                holomorphic: bool) -> dict:
    """(constant + linear * v)^n as numerator terms, v = z or zbar."""
    out = {}
    for k in range(n + 1):
        coeff = ComplexRational.coerce(math.comb(n, k)) \
            * constant ** (n - k) * linear ** k
        if coeff:
            key = (k, 0) if holomorphic else (0, k)
            out[key] = coeff
    return out


def _poly_mul(left: dict, right: dict) -> dict:
    return accumulate(((a1 + a2, b1 + b2), c1 * c2)
                      for (a1, b1), c1 in left.items()
                      for (a2, b2), c2 in right.items())


def mobius_pullback(f: RationalSymbol, w) -> RationalSymbol:
    """Pull the symbol back under the isometry that moves w to the origin.

    The substitution z -> (z + w)/(1 - conj(w) z) preserves the class: the
    identity 1 + |T(z)|^2 = (1+|w|^2)(1+|z|^2)/|1 - conj(w) z|^2 clears all
    denominators back into (1+|z|^2) powers.
    """
    w = ComplexRational.coerce(w)
    if not w:
        return f
    d = f.denom_power
    wb = w.conjugate()
    one = ComplexRational(1)
    scale = (one + w * wb) ** d
    total: dict = {}
    for (a, b), c in f.num.items():
        poly = {(0, 0): c / scale}
        poly = _poly_mul(poly, _binom_poly(w, one, a, True))
        poly = _poly_mul(poly, _binom_poly(wb, one, b, False))
        poly = _poly_mul(poly, _binom_poly(one, -wb, d - a, True))
        poly = _poly_mul(poly, _binom_poly(one, -w, d - b, False))
        accumulate(poly.items(), total)
    return RationalSymbol(total, d)


def composition_residual(f: RationalSymbol, g: RationalSymbol, ms, orders,
                         predicted) -> dict:
    """Residual decay of exact composed matrix entries against predictions.

    ``predicted`` maps (p, q) to the engine's h-series for the matrix entry
    of the composed operator — the pairing of T_f T_g z^p against z^q
    divided by the Gram norm of z^q.  For each m the oracle matrices are
    built once (one matrix when g == f) and each exact entry is computed
    once; for every order in ``orders`` the partial sum of the prediction
    through h^order is subtracted, and the residuals are fitted with a
    log-log slope.  The result maps order -> (p, q) -> fit.
    Identically-zero residuals are reported with ``fitted = None`` and
    ``exact = True``.
    """
    ms = sorted(set(int(m) for m in ms))
    if not ms:
        raise PreconditionError("need at least one tensor power")
    orders = tuple(dict.fromkeys(int(n) for n in orders))
    if any(n < 0 for n in orders):
        raise PreconditionError("partial-sum orders must be non-negative")
    rows = {order: {} for order in orders}
    for m in ms:
        mf = cp1_toeplitz(m, f)
        mg = mf if g == f else cp1_toeplitz(m, g)
        for (p, q), series in sorted(predicted.items()):
            exact = mf.composition_entry(mg, p, q)
            powers = [(k2 // 2, c) for (k2, _, _), c in series.sorted_terms()
                      if k2 >= 0 and not k2 % 2]
            for order in orders:
                partial = _ZERO
                for k, coeff in powers:
                    if k > order:
                        break
                    partial = partial + coeff * Fraction(1, m ** k)
                residual = exact - partial
                rows[order].setdefault((p, q), []).append(
                    (m, exact, partial,
                     abs(complex(float(residual.re), float(residual.im)))))
    return {order: {key: _fit(element_rows)
                    for key, element_rows in per_element.items()}
            for order, per_element in rows.items()}


def _fit(rows: list) -> dict:
    """Log-log slope of the nonzero residuals among (m, exact, partial, r)."""
    nonzero = [(m, r) for (m, _, _, r) in rows if r > 0.0]
    if not nonzero:
        return {"rows": rows, "fitted": None, "exact": True}
    slope = None
    if len(nonzero) > 1:
        slope = statistics.linear_regression(
            [math.log(m) for m, _ in nonzero],
            [math.log(r) for _, r in nonzero]).slope
    return {"rows": rows, "fitted": slope, "exact": False}
