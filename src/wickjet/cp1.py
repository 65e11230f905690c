"""Closed-form oracle on the projective line with the round metric.

Inner products of monomial sections of the degree-m line bundle reduce to
Beta integrals, so every quantity here is an exact rational function of the
tensor power m: Gram norms, Toeplitz matrix entries, and their compositions.
This gives an independent route against which the formal engine's h-series
are checked coefficient by coefficient under the dictionary h <-> 1/m (the
dictionary is applied in this module and nowhere else).  The 1/m expansion
is an integer recurrence that forms no engine product, so the oracle stays
independent of the kernel it checks.

Circle symmetry makes a symbol term z^a zbar^b move z^p to z^(p+a-b) only,
and each entry has a closed form, so a Toeplitz matrix keeps just the tensor
power and the symbol: an entry costs O(terms), and a composed entry sums
over the middle indices that the right factor's terms reach.

Floating point appears only in the final convergence-rate regressions; all
matrix data is exact.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

from .coefficients import ComplexRational
from .errors import PreconditionError
from .series import WickSeries, linear_combination, unpack

__all__ = [
    "FactorialRational",
    "RationalSymbol",
    "ToeplitzMatrix",
    "cp1_inner",
    "cp1_toeplitz",
    "mobius_pullback",
    "composition_residual",
    "symbol_jets",
    "fs_ratio_symbol",
]

_ZERO = ComplexRational(0)


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

    def expand_at_infinity(self, order: int) -> WickSeries:
        """Exact coefficients of the expansion in 1/m, with 1/m recorded as h.

        The result is an h-series (dim 0) with entries at k <= order; a net
        positive power of m appears as a negative h-power.  An integer
        recurrence forms it with no engine product, so the oracle stays
        independent of the kernel it checks.
        """
        if order < 0:
            raise PreconditionError("expansion order must be non-negative")
        net = len(self.num_shifts) - len(self.den_shifts)
        c = [1] + [0] * (order + net)  # c[k] is at h^(k - net), k - net <= order
        for a in self.num_shifts:  # times (m + a) h = 1 + a h
            for k in range(len(c) - 1, 0, -1):
                c[k] += a * c[k - 1]
        for b in self.den_shifts:  # divided by (m + b) h = 1 + b h
            for k in range(1, len(c)):
                c[k] -= b * c[k - 1]
        den = math.lcm(self.scalar.re.denominator, self.scalar.im.denominator)
        x, y = int(self.scalar.re * den), int(self.scalar.im * den)
        return WickSeries.zero(0, 2 * order)._build(  # a dim-0 key is its k2
            {2 * (k - net): (x * ck, y * ck) for k, ck in enumerate(c)}, den)

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


class RationalSymbol:
    """Function on the line: num terms c_ab z^a zbar^b over (1+|z|^2)^d.

    ``num`` is a classical dim-1 series of trunc 2d whose term y^a yb^b
    holds c_ab.  Every term must satisfy max(a, b) <= d, which keeps the
    symbol bounded and keeps the class closed under the isometry pullbacks
    below.
    """

    __slots__ = ("num", "denom_power")

    def __init__(self, num, denom_power: int = 0):
        d = int(denom_power)
        if d < 0:
            raise PreconditionError("denominator power must be non-negative")
        terms = {}
        for key, coeff in dict(num).items():
            a, b = (int(v) for v in key)
            if a < 0 or b < 0:
                raise PreconditionError(f"negative exponent in term {key!r}")
            if max(a, b) > d:
                raise PreconditionError(
                    f"term z^{a} zbar^{b} needs denominator power >= {max(a, b)}")
            terms[(0, (a,), (b,))] = coeff
        object.__setattr__(self, "num", WickSeries(1, 2 * d, terms))
        object.__setattr__(self, "denom_power", d)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("RationalSymbol is immutable")

    def __eq__(self, other):
        if not isinstance(other, RationalSymbol):
            return NotImplemented
        return (self.num, self.denom_power) == (other.num, other.denom_power)

    def __hash__(self):
        return hash((self.num, self.denom_power))

    def __repr__(self):
        return (f"RationalSymbol(terms={len(self.num)}, "
                f"denom_power={self.denom_power})")


def fs_ratio_symbol() -> RationalSymbol:
    """The bounded ratio |z|^2/(1 + |z|^2), the standard test symbol."""
    return RationalSymbol({(1, 1): 1}, 1)


def symbol_jets(f: RationalSymbol, order: int) -> WickSeries:
    """Taylor jets of the symbol at the origin, for the formal engine.

    1/(1+|y|^2)^d is sum_k (-1)^k C(d+k-1, k) |y|^(2k).  Its k = 0 term is 1
    at every d; at d = 0 every other term is C(k-1, k) = 0.
    """
    d = f.denom_power
    inverse = WickSeries(1, order, {
        (0, (k,), (k,)): (-1) ** k * math.comb(d + k - 1, k) if k else 1
        for k in range(order // 2 + 1)})
    return f.num.retruncate(order) * inverse


class ToeplitzMatrix:
    """Exact operator matrix in the monomial basis at a numeric tensor power.

    Entry (q, p) is the z^q coefficient of the operator applied to z^p.  No
    cell is stored: a term c z^a zbar^b of the symbol fills only the diagonal
    q - p = a - b, and each entry there is its Beta-integral pairing of
    f z^p against z^q divided by the Gram diagonal, formed from consecutive
    products, never raw factorials.  The Gram-weighted pairing, ``entry(q,
    p)`` times the Gram norm of z^q, is Hermitian for real symbols.
    """

    __slots__ = ("m", "symbol")

    def __init__(self, m: int, symbol: RationalSymbol):
        m = int(m)
        if m < 1:
            raise PreconditionError("tensor power must be at least 1")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "symbol", symbol)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("ToeplitzMatrix is immutable")

    def _shifts(self) -> set:
        """Diagonals q - p that the symbol's terms fill."""
        return {a - b for _, (a,), (b,) in
                (unpack(1, key) for key in self.symbol.num.num)}

    def _check_cell(self, q: int, p: int) -> None:
        if not (0 <= q <= self.m and 0 <= p <= self.m):
            raise PreconditionError(f"entry ({q}, {p}) lies outside the "
                                    f"matrix at tensor power {self.m}")

    def entry(self, q: int, p: int) -> ComplexRational:
        """The z^q coefficient of the operator applied to z^p."""
        self._check_cell(q, p)
        m, d, series = self.m, self.symbol.denom_power, self.symbol.num
        denom = math.prod(m + s for s in range(2, d + 2)) * series.den
        re = im = 0
        for key, (x, y) in series.num.items():
            _, (a,), (b,) = unpack(1, key)
            if a - b == q - p:
                weight = math.prod(range(q + 1, q + b + 1)) \
                    * math.prod(m - q + i for i in range(1, d - b + 1))
                re, im = re + x * weight, im + y * weight
        return ComplexRational(Fraction(re, denom), Fraction(im, denom))

    @property
    def entries(self) -> tuple:
        """Read-only dense view: ``entries[q][p]`` is ``entry(q, p)``."""
        size = self.m + 1
        rows = [[_ZERO] * size for _ in range(size)]
        for s in self._shifts():
            for p in range(max(0, -s), min(size, size - s)):
                rows[p + s][p] = self.entry(p + s, p)
        return tuple(map(tuple, rows))

    def composition_entry(self, other: "ToeplitzMatrix", p: int,
                          q: int) -> ComplexRational:
        """Entry (q, p) of the composed matrix, summed over the middle index."""
        if self.m != other.m:
            raise PreconditionError("tensor powers differ")
        self._check_cell(q, p)
        acc = _ZERO
        for s in other._shifts():
            r = p + s
            if 0 <= r <= self.m:
                acc = acc + self.entry(q, r) * other.entry(r, p)
        return acc


def cp1_toeplitz(m: int, f: RationalSymbol) -> ToeplitzMatrix:
    """Exact Toeplitz matrix of the symbol at tensor power m.

    Building it stores only m and f; entries are computed when asked for.
    """
    return ToeplitzMatrix(m, f)


def mobius_pullback(f: RationalSymbol, w) -> RationalSymbol:
    """Pull the symbol back under the isometry that moves w to the origin.

    The substitution z -> (z + w)/(1 - conj(w) z) preserves the class: the
    identity 1 + |T(z)|^2 = (1+|w|^2)(1+|z|^2)/|1 - conj(w) z|^2 clears all
    denominators back into (1+|z|^2) powers, so a term z^a zbar^b becomes
    (z + w)^a (zbar + conj(w))^b (1 - conj(w) z)^(d-a) (1 - w zbar)^(d-b)
    over (1+|w|^2)^d.
    """
    w = ComplexRational.coerce(w)
    if not w or not f.num:
        return f
    d = f.denom_power
    one, z = (0, (0,), (0,)), (0, (1,), (0,))
    up, down = [WickSeries.unit(1, 2 * d)], [WickSeries.unit(1, 2 * d)]
    for _ in range(d):
        up.append(up[-1] * WickSeries(1, 2 * d, {z: 1, one: w}))
        down.append(down[-1] * WickSeries(1, 2 * d, {one: 1, z: -w.conjugate()}))
    norm = (1 + (w * w.conjugate()).re) ** d
    parts = []
    for key, (x, y) in f.num.num.items():
        _, (a,), (b,) = unpack(1, key)
        term = up[a] * up[b].conjugate() * down[d - a] * down[d - b].conjugate()
        parts.append((term, (x * norm.denominator, y * norm.denominator)))
    total = linear_combination(parts, f.num.den * norm.numerator)
    return RationalSymbol({(a, b): total.coefficient(0, (a,), (b,))
                           for _, (a,), (b,) in (unpack(1, key) for key in total.num)}, d)


def composition_residual(f: RationalSymbol, g: RationalSymbol, ms, orders,
                         predicted) -> dict:
    """Residual decay of exact composed matrix entries against predictions.

    ``predicted`` maps (p, q) to the engine's h-series for the matrix entry
    of the composed operator — the pairing of T_f T_g z^p against z^q
    divided by the Gram norm of z^q.  For each m each exact entry is computed
    once, over the few middle indices that g's terms reach; for every order
    in ``orders`` the partial sum of the prediction through h^order is
    subtracted, and the residuals are fitted with a log-log slope.  The
    result maps order -> (p, q) -> fit.  Identically-zero residuals are
    reported with ``fitted = None`` and ``exact = True``.
    """
    ms = sorted(set(int(m) for m in ms))
    if not ms:
        raise PreconditionError("need at least one tensor power")
    orders = tuple(dict.fromkeys(int(n) for n in orders))
    if any(n < 0 for n in orders):
        raise PreconditionError("partial-sum orders must be non-negative")
    rows = {order: {} for order in orders}
    # each element's (k, coefficient of h^k), read once for every m
    element_powers = {key: [(k2 // 2, series.coefficient(k2))  # dim 0: the key is k2
                            for k2 in sorted(series.num) if k2 >= 0 and not k2 % 2]
                      for key, series in sorted(predicted.items())}
    for m in ms:
        mf = cp1_toeplitz(m, f)
        mg = mf if g == f else cp1_toeplitz(m, g)
        for (p, q), powers in element_powers.items():
            exact = mf.composition_entry(mg, p, q)
            for order in orders:
                partial = _ZERO
                for k, coeff in powers:
                    if k > order:
                        break
                    partial = partial + coeff * Fraction(1, m ** k)
                residual = exact - partial
                rows[order].setdefault((p, q), []).append(
                    (m, exact, partial,
                     abs(complex(residual))))
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
