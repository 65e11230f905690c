"""Formal Gaussian integrals, inner products and Toeplitz symbols.

All integrals here are formal: the reference Gaussian measure is normalized
so that the moment of ``y^I yb^I`` is exactly ``I! h^|I|`` (mixed moments
vanish), which absorbs every 2*pi volume factor once and for all.  A weight
series w (real-analytic perturbation data of degree >= 3) deforms the
measure through the factor ``e^(w/h)``, which the weight builds once; an
integral is one kernel pass pairing the integrand with that factor under the
moment rule, finite because both sides are truncated.

``toeplitz_symbol`` solves ``e^(w/h) * O = f e^(w/h)`` (star product on the
left, pointwise product on the right) for the unique symbol O; composition
with the module action then gives Toeplitz operators on the holomorphic
part.

Two parts of O need no full solve.  Write e = ``e^(w/h)`` = 1 + E.  The
weight is admissible, so every term of E has a yb factor, and both the
pointwise product ``f E`` and the star product ``E * O``, which contracts
only the left factor's y, keep it.  Hence:

- the holomorphic part of ``e * O = f e`` reads hol(O) = hol(f e) = hol(f)
  (``holomorphic_symbol``, no solve);
- a term of ``E * O`` without y has contracted every y of E and takes
  none from O, so anti(e * O) = anti(e * anti(O)), and anti(O) solves
  ``anti(e * A) = anti(f e)`` by the same loop with every residual
  projected onto its antiholomorphic terms (``antiholomorphic_symbol``).
"""

from __future__ import annotations

from .errors import PreconditionError, SolveError
from .series import WickSeries, bilinear_terms, linear_combination, mi_factorial
from .wick import classical_exp, wick_star

__all__ = [
    "WeightSeries",
    "formal_integral",
    "inner_product",
    "toeplitz_symbol",
    "holomorphic_symbol",
    "antiholomorphic_symbol",
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

    The factor ``e^(w/h)`` that every integral and symbol solve reads is
    built once, on first use, by :meth:`exponential`; ``e^(-w/h)`` is built
    separately, only if asked for.  Toeplitz symbols are remembered per
    weight, keyed by the input series, so they live as long as the weight.
    """

    __slots__ = ("body", "is_real", "toeplitz_admissible", "refined",
                 "_exponentials", "_symbols")

    def __init__(self, body: WickSeries):
        min_deg = body.min_degree()
        if min_deg is not None and min_deg < 3:
            raise PreconditionError(
                f"weight terms must have degree >= 3, found {min_deg}")
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "is_real", body.conjugate() == body)
        object.__setattr__(self, "toeplitz_admissible", not body.holomorphic_part())
        object.__setattr__(self, "refined", all(
            i != 1 and j != 1 for k2, i, j in body.bidegrees().values() if not k2))
        object.__setattr__(self, "_exponentials", {})
        object.__setattr__(self, "_symbols", {})

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("WeightSeries is immutable")

    @property
    def dim(self) -> int:
        return self.body.dim

    @property
    def trunc(self) -> int:
        return self.body.trunc

    def __bool__(self) -> bool:
        return bool(self.body)

    def exponential(self, sign: int = 1) -> WickSeries:
        """``e^(sign w/h)`` for sign +1 or -1, computed on the first call."""
        cache = self._exponentials
        if sign not in cache:
            cache[sign] = classical_exp(self.body.scale(sign).hbar_shift(-2))
        return cache[sign]

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


def _moment(I: tuple, J: tuple) -> tuple:
    """The moment rule on the summed exponents (I, J) of a pair.

    The product of two terms integrates to I! h^|I| if I == J: the offset
    (I, J) clears the exponents and keeps the degree k2 + 2|I|.
    """
    return (((I, J), mi_factorial(I)),) if I == J else ()


def _moments(h: WickSeries, e: WickSeries) -> WickSeries:
    """The Gaussian moments of the pointwise product h e, as a series in h (dim 0)."""
    return h._build(*bilinear_terms(h, e, ("IJ", "IJ", _moment))).constant_part()


def formal_integral(h: WickSeries, w: WeightSeries) -> WickSeries:
    """Integral of h against the weighted Gaussian, as a series in h (dim 0).

    The moments of ``h e^(w/h)``, summed in one kernel pass over the
    weight's cached ``e^(w/h)``.  Window: for plain h every kept coefficient
    is exact for the given weight; for h of least degree -a only those
    through ``trunc - a`` are, because the terms of ``e^(w/h)`` past
    ``trunc``, which h's negative part would bring down, are not kept.
    """
    h._check_compatible(w.body)
    return _moments(h, w.exponential())


def inner_product(f: WickSeries, g: WickSeries, w: WeightSeries) -> WickSeries:
    """Sesquilinear pairing: integral of f * conj(g) against the weight."""
    return formal_integral(f * g.conjugate(), w)


def toeplitz_symbol(f: WickSeries, w: WeightSeries) -> WickSeries:
    """The unique O with ``e^(w/h) (star) O = f e^(w/h)`` (pointwise right side).

    Solved by degree-raising corrections: the lowest-degree slice of the
    residual is added to the candidate.  Since ``e^(w/h)`` is 1 plus terms of
    positive degree and the star product is graded, ``e^(w/h) (star) r``
    equals r plus terms of higher degree for a homogeneous r, so each pass
    strictly raises the residual's minimum degree and at truncation the loop
    ends after at most trunc+1 passes.  For an f without inverse h-powers
    the result is again of that form; inputs of non-negative minimum degree
    are accepted to support h-Laurent symbols.  Solved symbols are kept on
    the weight, so a repeated input is solved once.
    """
    if not _needs_solve(f, w):
        return f
    symbol = w._symbols.get(f)
    if symbol is None:
        symbol = w._symbols[f] = _solve_symbol(f, w.exponential(), _whole)
    return symbol


def holomorphic_symbol(f: WickSeries, w: WeightSeries) -> WickSeries:
    """hol(``toeplitz_symbol(f, w)``) = hol(f), unsolved; same input checks."""
    _needs_solve(f, w)
    return f.holomorphic_part()


def antiholomorphic_symbol(g: WickSeries, w: WeightSeries) -> WickSeries:
    """anti(``toeplitz_symbol(g, w)``), solved on antiholomorphic series alone;
    same input checks and plain-algebra guard."""
    if not _needs_solve(g, w):
        return g.antiholomorphic_part()
    return _solve_symbol(g, w.exponential(), WickSeries.antiholomorphic_part)


def _needs_solve(f: WickSeries, w: WeightSeries) -> bool:
    """Check a symbol input; False when f is its own symbol (f or w zero)."""
    f._check_compatible(w.body)
    if not w.toeplitz_admissible:
        raise PreconditionError(
            "toeplitz_symbol needs a weight with a yb factor in every term")
    min_deg = f.min_degree()
    if min_deg is None:
        return False
    if min_deg < 0:
        raise PreconditionError(
            f"toeplitz_symbol input must have min degree >= 0, found {min_deg}")
    return bool(w)


def _whole(s: WickSeries) -> WickSeries:
    return s


def _solve_symbol(f: WickSeries, exp_pos: WickSeries, project) -> WickSeries:
    """``project`` of f's symbol, for a projection whose image of
    ``exp_pos * O`` and of ``O exp_pos`` reads only ``project(O)``: the
    identity or ``antiholomorphic_part``."""
    start = project(f)
    parts = [(start, (1, 0))]
    residual = project(start * exp_pos - wick_star(exp_pos, start))
    last_degree = -1
    for _ in range(f.trunc + 2):
        if not residual:
            symbol = linear_combination(parts)
            if f.is_plain() and not symbol.is_plain():
                raise SolveError("symbol left the plain algebra on plain input")
            return symbol
        degree = residual.min_degree()
        if degree <= last_degree:
            raise SolveError(
                f"toeplitz solve stalled at residual degree {degree}")
        last_degree = degree
        correction = residual.degree_slice(degree)
        parts.append((correction, (1, 0)))
        residual = residual - project(wick_star(exp_pos, correction))
    raise SolveError("toeplitz solve exceeded its iteration budget")
