"""Star product, the Fock module action and exponential/logarithm maps.

The product implemented here contracts holomorphic derivatives of the left
factor against anti-holomorphic derivatives of the right factor::

    f * g = sum over multi-indices a of
            (-h)^|a| / a! * (d_y^a f) (d_yb^a g)

It is graded for the degree ``k2 + |I| + |J|``, so truncation commutes with
the product whenever both factors have non-negative minimum degree.

The module action on holomorphic series realizes ``yb_j`` as ``h d/dy_j``
(multiply by the holomorphic part first, then differentiate).
"""

from __future__ import annotations

from itertools import product as _cartesian
from math import comb, factorial, lcm

from .errors import PreconditionError
from .series import WickSeries, bilinear_terms, exponential, linear_combination, power_terms

__all__ = [
    "wick_star",
    "fock_act",
    "classical_exp",
    "star_exp",
    "star_log",
    "star_inverse",
]


def _falling(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out


def wick_star(f: WickSeries, g: WickSeries) -> WickSeries:
    """The associative Wick product of two series (same dim and trunc)."""
    f._check_compatible(g)
    return WickSeries._of(f.dim, f.trunc, *bilinear_terms(f, g, ("I", "J", _contractions)))


def _contractions(I: tuple, J: tuple) -> tuple:
    """The star rule: the contractions of I of f against J of g.

    A contraction a <= min(I, J) has offset (a, a) and scalar
    (-1)^|a| prod comb(I_i, a_i) (J_i)_(a_i), the coefficient of
    h^|a| y^(I-a) yb^(J-a) in (-h)^|a| / a! d_y^a(y^I) d_yb^a(yb^J).
    """
    out = []
    for alpha in _cartesian(*[range(min(i, j) + 1) for i, j in zip(I, J)]):
        scalar = 1
        for i, j, a in zip(I, J, alpha):
            if a:
                scalar *= comb(i, a) * _falling(j, a)
        out.append(((alpha, alpha), -scalar if sum(alpha) % 2 else scalar))
    return tuple(out)


def fock_act(f: WickSeries, s: WickSeries) -> WickSeries:
    """Act on a holomorphic series: y^I yb^J |-> (h d_y)^J o (multiply y^I)."""
    f._check_compatible(s)
    if not s.is_holomorphic():
        raise PreconditionError("fock_act target must be holomorphic (J = 0)")
    return WickSeries._of(f.dim, f.trunc, *bilinear_terms(f, s, ("IJ", "IJ", _fock)))


def _fock(T: tuple, J: tuple) -> tuple:
    """The Fock rule on the summed exponents (T, J) = (I + P, J) of a pair.

    The scalar is prod T_i falling J_i, zero exactly when some T_i < J_i;
    the offset (J, J) leaves y^(T-J) and h^|J|.
    """
    scalar = 1
    for t, j in zip(T, J):
        if j:
            scalar *= _falling(t, j)
    return (((J, J), scalar),) if scalar else ()


def classical_exp(x: WickSeries) -> WickSeries:
    """Pointwise exponential series of x; needs min degree >= 1.

    e^(w/h) is ``classical_exp(w.hbar_shift(-2))`` for w of degree >= 3.
    One pass over the degree slices (``series.exponential``) forms no power.
    """
    return exponential(x)


def star_exp(x: WickSeries) -> WickSeries:
    """Exponential with respect to the star product; needs min degree >= 1.

    ``sum_j x^j / j!``: weights n!/j! over n!, for the n nonzero powers.  The
    degree recurrence of ``classical_exp`` does not carry over: x and its
    degree derivative do not star-commute.
    """
    powers = [WickSeries.unit(x.dim, x.trunc), *power_terms(x, wick_star)]
    top = factorial(len(powers) - 1)
    return linear_combination([(power, (top // factorial(j), 0))
                               for j, power in enumerate(powers)], top)


def log_series(a: WickSeries, product) -> WickSeries:
    """``log(1 + a) = sum_k (-1)^(k+1) a^k / k`` under ``product``, over lcm(1..n).

    Every term of a must have positive degree (see ``power_terms``).
    """
    powers = list(power_terms(a, product))
    den = lcm(*range(1, len(powers) + 1))
    return linear_combination([(power, ((-1) ** (k + 1) * den // k, 0))
                               for k, power in enumerate(powers, 1)], den) if powers else a


def _check_unital(u: WickSeries, what: str) -> WickSeries:
    """u - 1, after checking that the constant term of u is exactly 1."""
    if u.coefficient(0) != 1:
        raise PreconditionError(f"{what} needs constant term exactly 1")
    return u - WickSeries.unit(u.dim, u.trunc)


def star_log(u: WickSeries) -> WickSeries:
    """Star-logarithm: L with star_exp(L) = u, for u = 1 + (degree >= 1)."""
    return log_series(_check_unital(u, "star_log"), wick_star)


def star_inverse(u: WickSeries) -> WickSeries:
    """Star-inverse of u = 1 + a, a of degree >= 1: sum_k (-1)^k a^k.

    Covers in particular the classical exponentials e^(H/h) of cubic-and-up
    H, whose inverse equals star_exp(-star_log(u)); that identity is kept as
    an independent cross-check in the test suite.
    """
    a = _check_unital(u, "star_inverse")
    parts = [(power, ((-1) ** k, 0))
             for k, power in enumerate(power_terms(a, wick_star), 1)]
    return linear_combination([(WickSeries.unit(u.dim, u.trunc), (1, 0)), *parts])
