"""Star product, module actions and exponential/logarithm maps.

The product implemented here contracts holomorphic derivatives of the left
factor against anti-holomorphic derivatives of the right factor::

    f * g = sum over multi-indices a of
            (-h)^|a| / a! * (d_y^a f) (d_yb^a g)

It is graded for the degree ``k2 + |I| + |J|``, so truncation commutes with
the product whenever both factors have non-negative minimum degree.

The module action on holomorphic series realizes ``yb_j`` as ``h d/dy_j``
(multiply by the holomorphic part first, then differentiate); the conjugate
action realizes ``y_i`` as ``-h d/dyb_i`` (differentiate first, then multiply
by the anti-holomorphic part).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as _cartesian
from math import comb, factorial
from operator import add, mul, sub

from .errors import PreconditionError
from .series import WickSeries, bilinear_terms, power_terms

__all__ = [
    "wick_star",
    "fock_act",
    "anti_fock_act",
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
    ways: dict = {}  # contractions per (I_f, J_g); the same pair recurs often

    def expand(key_f, key_g):
        k2f, If, Jf = key_f
        k2g, Ig, Jg = key_g
        contractions = ways.get((If, Jg))
        if contractions is None:
            contractions = ways[If, Jg] = _contractions(If, Jg)
        k2 = k2f + k2g
        return [((k2 + t2, tuple(map(add, Ia, Ig)), tuple(map(add, Jf, Ja))),
                 scalar) for t2, Ia, Ja, scalar in contractions]

    return f._build(*bilinear_terms(f, g, expand))


def _contractions(I: tuple, J: tuple) -> list:
    """``(2|a|, I - a, J - a, scalar)`` for every multi-index a <= min(I, J).

    The scalar (-1)^|a| prod comb(I_i, a_i) (J_i)_(a_i) is the coefficient
    of h^|a| y^(I-a) yb^(J-a) in (-h)^|a| / a! d_y^a(y^I) d_yb^a(yb^J).
    """
    out = []
    for alpha in _cartesian(*[range(min(i, j) + 1) for i, j in zip(I, J)]):
        scalar = 1
        for i, j, a in zip(I, J, alpha):
            if a:
                scalar *= comb(i, a) * _falling(j, a)
        total = sum(alpha)
        out.append((2 * total, tuple(map(sub, I, alpha)),
                    tuple(map(sub, J, alpha)),
                    -scalar if total % 2 else scalar))
    return out


def _falling_product(top: tuple, lower: tuple) -> int:
    """prod (top_i)_(lower_i); zero exactly when some top_i < lower_i."""
    scalar = 1
    for t, j in zip(top, lower):
        if j:
            scalar *= _falling(t, j)
    return scalar


def fock_act(f: WickSeries, s: WickSeries) -> WickSeries:
    """Act on a holomorphic series: y^I yb^J |-> (h d_y)^J o (multiply y^I)."""
    f._check_compatible(s)
    if not s.is_holomorphic():
        raise PreconditionError("fock_act target must be holomorphic (J = 0)")
    zero = (0,) * f.dim

    def expand(key_f, key_s):
        k2, I, J = key_f
        k2s, P, _ = key_s
        top = tuple(map(add, I, P))
        scalar = _falling_product(top, J)
        if not scalar:
            return ()
        return [((k2 + k2s + 2 * sum(J), tuple(map(sub, top, J)), zero),
                 scalar)]

    return f._build(*bilinear_terms(f, s, expand))


def anti_fock_act(f: WickSeries, s: WickSeries) -> WickSeries:
    """Act on an anti-holomorphic series: y^I yb^J |-> (multiply yb^J) o (-h d_yb)^I."""
    f._check_compatible(s)
    if not s.is_antiholomorphic():
        raise PreconditionError("anti_fock_act target must be anti-holomorphic (I = 0)")
    zero = (0,) * f.dim

    def expand(key_f, key_s):
        k2, I, J = key_f
        k2s, _, Q = key_s
        scalar = _falling_product(Q, I)
        if not scalar:
            return ()
        order = sum(I)
        return [((k2 + k2s + 2 * order, zero, tuple(map(add, map(sub, Q, I), J))),
                 -scalar if order % 2 else scalar)]

    return f._build(*bilinear_terms(f, s, expand))


def classical_exp(h: WickSeries, divide_by_hbar: bool = False) -> WickSeries:
    """Pointwise exponential series of h (optionally of h/hbar).

    Every term of the exponent must have positive degree, so with
    ``divide_by_hbar`` every term of h must have degree >= 3.
    """
    return _exp_series(h.hbar_shift(-2) if divide_by_hbar else h, mul)


def star_exp(x: WickSeries) -> WickSeries:
    """Exponential with respect to the star product; needs min degree >= 1."""
    return _exp_series(x, wick_star)


def _exp_series(x: WickSeries, product) -> WickSeries:
    out = WickSeries.unit(x.dim, x.trunc)
    for j, power in enumerate(power_terms(x, x, product), 1):
        out = out + power.scale(Fraction(1, factorial(j)))
    return out


def _check_unital(u: WickSeries, what: str) -> WickSeries:
    """u - 1, after checking that the constant term of u is exactly 1."""
    if u.coefficient(0) != 1:
        raise PreconditionError(f"{what} needs constant term exactly 1")
    return u - WickSeries.unit(u.dim, u.trunc)


def star_log(u: WickSeries) -> WickSeries:
    """Star-logarithm: L with star_exp(L) = u, for u = 1 + (degree >= 1)."""
    a = _check_unital(u, "star_log")
    powers = power_terms(a, a, wick_star)
    out = next(powers, a)  # the first power is a itself
    for k, power in enumerate(powers, 2):
        out = out + power.scale(Fraction(1 if k % 2 else -1, k))
    return out


def star_inverse(u: WickSeries) -> WickSeries:
    """Star-inverse of u = 1 + (degree >= 1), via the star-geometric series.

    Covers in particular the classical exponentials e^(H/h) of cubic-and-up
    H, whose inverse equals star_exp(-star_log(u)); that identity is kept as
    an independent cross-check in the test suite.
    """
    minus_a = -_check_unital(u, "star_inverse")
    return sum(power_terms(minus_a, minus_a, wick_star),
               WickSeries.unit(u.dim, u.trunc))
