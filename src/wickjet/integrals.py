"""Formal Gaussian integrals, inner products and Toeplitz symbols.

All integrals here are formal: the reference Gaussian measure is normalized
so that the moment of ``y^I yb^I`` is exactly ``I! h^|I|`` (mixed moments
vanish), which absorbs every 2*pi volume factor once and for all.  A weight
series w (real-analytic perturbation data of degree >= 3) deforms the
measure through the factor ``e^(w/h)``; expanding that factor reduces every
integral to finitely many moments because each ``w/h`` term has positive
degree.

``toeplitz_symbol`` solves ``e^(w/h) * O = f e^(w/h)`` (star product on the
left, pointwise product on the right) for the unique symbol O; composition
with the module action then gives projections and Toeplitz operators on the
holomorphic part.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import mul

from .errors import PreconditionError, SolveError, TruncationMismatch, DimensionMismatch
from .series import WickSeries, mi_factorial, power_terms
from .wick import classical_exp, fock_act, wick_star

__all__ = [
    "WeightSeries",
    "gaussian_moment",
    "formal_integral",
    "inner_product",
    "toeplitz_symbol",
    "toeplitz_apply",
    "projection",
]


class WeightSeries:
    """Weight data for the deformed Gaussian measure.

    The body is a series whose terms all have total degree >= 3 (h-dependent
    terms allowed).  Three derived flags describe how much structure the
    weight has:

    - ``is_real``: invariant under conjugation;
    - ``toeplitz_admissible``: every term contains at least one yb factor
      (required by the symbol solve);
    - ``refined``: the h^0 part has no terms with |I| = 1 or |J| = 1.

    The factors ``e^(+-w/h)`` every symbol solve needs are built once, on
    first use, by :meth:`exponentials`.
    """

    __slots__ = ("body", "is_real", "toeplitz_admissible", "refined",
                 "_exponentials")

    def __init__(self, body: WickSeries):
        min_deg = body.min_degree()
        if min_deg is not None and min_deg < 3:
            raise PreconditionError(
                f"weight terms must have degree >= 3, found {min_deg}")
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "is_real", body.conjugate() == body)
        object.__setattr__(self, "toeplitz_admissible",
                           all(any(J) for (_, _, J) in body.num))
        object.__setattr__(self, "refined",
                           all(sum(I) != 1 and sum(J) != 1
                               for (k2, I, J) in body.num if k2 == 0))
        object.__setattr__(self, "_exponentials", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("WeightSeries is immutable")

    @classmethod
    def zero(cls, dim: int, trunc: int) -> "WeightSeries":
        return cls(WickSeries.zero(dim, trunc))

    @property
    def dim(self) -> int:
        return self.body.dim

    @property
    def trunc(self) -> int:
        return self.body.trunc

    def __bool__(self) -> bool:
        return bool(self.body)

    def exponentials(self) -> tuple:
        """The pair ``(e^(w/h), e^(-w/h))``, computed on the first call."""
        if self._exponentials is None:
            object.__setattr__(self, "_exponentials", (
                classical_exp(self.body, divide_by_hbar=True),
                classical_exp(-self.body, divide_by_hbar=True)))
        return self._exponentials

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightSeries):
            return NotImplemented
        return self.body == other.body

    def __hash__(self) -> int:
        return hash(("WeightSeries", self.body))

    def __repr__(self) -> str:
        flags = []
        if self.is_real:
            flags.append("real")
        if self.toeplitz_admissible:
            flags.append("admissible")
        if self.refined:
            flags.append("refined")
        return f"WeightSeries({self.body!r}, flags={'|'.join(flags) or '-'})"


def gaussian_moment(I, J, k2: int = 0, *, trunc: int) -> WickSeries:
    """Moment of h^(k2/2) y^I yb^J against the reference Gaussian.

    Equals ``I! h^(k2/2 + |I|)`` when I == J and zero otherwise.
    """
    I = tuple(I)
    J = tuple(J)
    if I != J:
        return WickSeries.zero(0, trunc)
    return WickSeries.monomial(0, trunc, mi_factorial(I), k2 + 2 * sum(I))


def _moments(h: WickSeries) -> WickSeries:
    """The moments of h's terms, summed as integers over h's denominator."""
    sums: dict = {}
    for (k2, I, J), (a, b) in h.num.items():
        if I == J:
            key, weight = (k2 + 2 * sum(I), (), ()), mi_factorial(I)
            c, d = sums.get(key, (0, 0))
            sums[key] = (c + weight * a, d + weight * b)
    return h._build(sums, h.den, dim=0)


def _check_weight(h: WickSeries, w: WeightSeries) -> None:
    if h.dim != w.dim:
        raise DimensionMismatch(f"dim {h.dim} != weight dim {w.dim}")
    if h.trunc != w.trunc:
        raise TruncationMismatch(f"trunc {h.trunc} != weight trunc {w.trunc}")


def formal_integral(h: WickSeries, w: WeightSeries) -> WickSeries:
    """Integral of h against the weighted Gaussian, as a series in h (dim 0).

    Computed as ``sum_j (1/j!) moments(h * (w/h)^j)``; the sum is finite
    because every ``w/h`` term has degree >= 1, so it ends within
    ``trunc + |min_degree(h)| + 1`` terms.
    """
    _check_weight(h, w)
    out = WickSeries.zero(0, h.trunc)
    for j, term in enumerate(power_terms(h, w.body.hbar_shift(-2), mul)):
        out = out + _moments(term.scale(Fraction(1, factorial(j))))
    return out


def inner_product(f: WickSeries, g: WickSeries, w: WeightSeries) -> WickSeries:
    """Sesquilinear pairing: integral of f * conj(g) against the weight."""
    return formal_integral(f * g.conjugate(), w)


def toeplitz_symbol(f: WickSeries, w: WeightSeries) -> WickSeries:
    """The unique O with ``e^(w/h) (star) O = f e^(w/h)`` (pointwise right side).

    Solved by degree-raising corrections: the residual of the candidate is
    divided (pointwise) by the exponential factor and added back; each pass
    strictly raises the residual's minimum degree, so at truncation the loop
    ends after at most trunc+1 passes.  For an f without inverse h-powers
    the result is again of that form; inputs of non-negative minimum degree
    are accepted to support h-Laurent symbols.
    """
    _check_weight(f, w)
    if not w.toeplitz_admissible:
        raise PreconditionError(
            "toeplitz_symbol needs a weight with a yb factor in every term")
    min_deg = f.min_degree()
    if min_deg is None:
        return f
    if min_deg < 0:
        raise PreconditionError(
            f"toeplitz_symbol input must have min degree >= 0, found {min_deg}")
    if not w:
        return f
    exp_pos, exp_neg = w.exponentials()
    symbol = f
    residual = f * exp_pos - wick_star(exp_pos, f)
    last_degree = -1
    for _ in range(f.trunc + 2):
        if not residual:
            if f.is_plain() and not symbol.is_plain():
                raise SolveError("symbol left the plain algebra on plain input")
            return symbol
        degree = residual.min_degree()
        if degree <= last_degree:
            raise SolveError(
                f"toeplitz solve stalled at residual degree {degree}")
        last_degree = degree
        correction = exp_neg * residual
        symbol = symbol + correction
        residual = residual - wick_star(exp_pos, correction)
    raise SolveError("toeplitz solve exceeded its iteration budget")


def toeplitz_apply(f: WickSeries, s: WickSeries, w: WeightSeries) -> WickSeries:
    """Apply the Toeplitz operator of f to a holomorphic series."""
    return fock_act(toeplitz_symbol(f, w), s)


def projection(f: WickSeries, w: WeightSeries) -> WickSeries:
    """Orthogonal projection of f onto the holomorphic part for the weight.

    Characterized by ``<p, y^K> = <f, y^K>`` for every K; computed by
    applying the Toeplitz operator of f to the constant section.
    """
    return toeplitz_apply(f, WickSeries.unit(f.dim, f.trunc), w)
