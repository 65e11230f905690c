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
from math import comb

from .errors import PreconditionError
from .series import WickSeries, accumulate, mi_add, mi_sub

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
    return WickSeries(f.dim, f.trunc, accumulate(_star_terms(f, g)),
                      f.lower_bound + g.lower_bound)


def _star_terms(f: WickSeries, g: WickSeries):
    trunc = f.trunc
    dim = f.dim
    for (k2f, If, Jf), cf in f.terms.items():
        deg_f = k2f + sum(If) + sum(Jf)
        for (k2g, Ig, Jg), cg in g.terms.items():
            if deg_f + k2g + sum(Ig) + sum(Jg) > trunc:
                continue
            base = cf * cg
            ranges = [range(min(If[i], Jg[i]) + 1) for i in range(dim)]
            for alpha in _cartesian(*ranges):
                scalar = 1
                for i in range(dim):
                    a = alpha[i]
                    if a:
                        scalar *= comb(If[i], a) * _falling(Jg[i], a)
                total_a = sum(alpha)
                if total_a % 2:
                    scalar = -scalar
                key = (k2f + k2g + 2 * total_a,
                       mi_add(mi_sub(If, alpha), Ig),
                       mi_add(Jf, mi_sub(Jg, alpha)))
                yield key, base * scalar


def fock_act(f: WickSeries, s: WickSeries) -> WickSeries:
    """Act on a holomorphic series: y^I yb^J |-> (h d_y)^J o (multiply y^I)."""
    f._check_compatible(s)
    if not s.is_holomorphic():
        raise PreconditionError("fock_act target must be holomorphic (J = 0)")
    return WickSeries(f.dim, f.trunc, accumulate(_fock_terms(f, s)),
                      f.lower_bound + s.lower_bound)


def _fock_terms(f: WickSeries, s: WickSeries):
    trunc = f.trunc
    zero = (0,) * f.dim
    for (k2, I, J), cf in f.terms.items():
        deg_f = k2 + sum(I) + sum(J)
        for (k2s, P, _), cs in s.terms.items():
            if deg_f + k2s + sum(P) > trunc:
                continue
            top = mi_add(I, P)
            if not all(top[i] >= J[i] for i in range(f.dim)):
                continue
            scalar = 1
            for i in range(f.dim):
                if J[i]:
                    scalar *= _falling(top[i], J[i])
            key = (k2 + k2s + 2 * sum(J), mi_sub(top, J), zero)
            yield key, (cf * cs) * scalar


def anti_fock_act(f: WickSeries, s: WickSeries) -> WickSeries:
    """Act on an anti-holomorphic series: y^I yb^J |-> (multiply yb^J) o (-h d_yb)^I."""
    f._check_compatible(s)
    if not s.is_antiholomorphic():
        raise PreconditionError("anti_fock_act target must be anti-holomorphic (I = 0)")
    return WickSeries(f.dim, f.trunc, accumulate(_anti_fock_terms(f, s)),
                      f.lower_bound + s.lower_bound)


def _anti_fock_terms(f: WickSeries, s: WickSeries):
    trunc = f.trunc
    zero = (0,) * f.dim
    for (k2, I, J), cf in f.terms.items():
        deg_f = k2 + sum(I) + sum(J)
        for (k2s, _, Q), cs in s.terms.items():
            if deg_f + k2s + sum(Q) > trunc:
                continue
            if not all(Q[i] >= I[i] for i in range(f.dim)):
                continue
            scalar = 1
            for i in range(f.dim):
                if I[i]:
                    scalar *= _falling(Q[i], I[i])
            if sum(I) % 2:
                scalar = -scalar
            key = (k2 + k2s + 2 * sum(I), zero, mi_add(mi_sub(Q, I), J))
            yield key, (cf * cs) * scalar


def classical_exp(h: WickSeries, divide_by_hbar: bool = False) -> WickSeries:
    """Pointwise exponential series of h (optionally of h/hbar).

    With ``divide_by_hbar`` every term of h must have degree >= 3 so that the
    summand degrees strictly increase; without it degree >= 1 suffices.
    """
    x = h.hbar_shift(-2) if divide_by_hbar else h
    floor = 3 if divide_by_hbar else 1
    min_deg = h.min_degree()
    if min_deg is not None and min_deg < floor:
        raise PreconditionError(
            f"classical_exp needs every term of degree >= {floor}, found {min_deg}")
    return _exp_series(x, star=False)


def star_exp(x: WickSeries) -> WickSeries:
    """Exponential with respect to the star product; needs min degree >= 1."""
    min_deg = x.min_degree()
    if min_deg is not None and min_deg < 1:
        raise PreconditionError(
            f"star_exp needs every term of degree >= 1, found {min_deg}")
    return _exp_series(x, star=True)


def _exp_series(x: WickSeries, star: bool) -> WickSeries:
    out = WickSeries.unit(x.dim, x.trunc) + x
    power = x
    j = 1
    while power:
        j += 1
        if j > x.trunc + 1:
            break
        power = wick_star(power, x) if star else power * x
        power = power.scale(Fraction(1, j))
        if power:
            out = out + power
    return out


def _check_unital(u: WickSeries, what: str) -> WickSeries:
    """Verify constant term 1 and everything else of degree >= 1; return u - 1."""
    zero = (0,) * u.dim
    if u.coefficient(0, zero, zero) != 1:
        raise PreconditionError(f"{what} needs constant term exactly 1")
    rest = u - WickSeries.unit(u.dim, u.trunc)
    min_deg = rest.min_degree()
    if min_deg is not None and min_deg < 1:
        raise PreconditionError(
            f"{what} needs all non-constant terms of degree >= 1, found {min_deg}")
    return rest


def star_log(u: WickSeries) -> WickSeries:
    """Star-logarithm: L with star_exp(L) = u, for u = 1 + (degree >= 1)."""
    a = _check_unital(u, "star_log")
    out = a
    power = a
    k = 1
    while power:
        k += 1
        if k > u.trunc + 1:
            break
        power = wick_star(power, a)
        if power:
            sign = 1 if k % 2 else -1
            out = out + power.scale(Fraction(sign, k))
    return out


def star_inverse(u: WickSeries) -> WickSeries:
    """Star-inverse of u = 1 + (degree >= 1), via the star-geometric series.

    Covers in particular the classical exponentials e^(H/h) of cubic-and-up
    H, whose inverse equals star_exp(-star_log(u)); that identity is kept as
    an independent cross-check in the test suite.
    """
    a = _check_unital(u, "star_inverse")
    out = WickSeries.unit(u.dim, u.trunc) - a
    power = a
    sign = -1
    for _ in range(u.trunc + 1):
        power = wick_star(power, a)
        if not power:
            break
        sign = -sign
        out = out + (power if sign > 0 else -power)
    return out
