"""Pointwise Berezin-Toeplitz evaluation and the model-space representation.

A :class:`BTContext` fixes the weight series of a marked point.  Function
jets are :class:`WickSeries` whose ``trunc`` is the jet order; they act
through their Toeplitz symbols: ``bt_star_eval`` multiplies two symbols in
the Wick algebra and collects the constant terms (the value of the deformed
product at the point), while ``rep_act`` applies a symbol to a holomorphic
model-space element.  A value reads only hol(S_f) = hol(f) and anti(S_g),
which is solved on antiholomorphic series: every term of e^(w/h) - 1 has a
yb factor that no product removes (see ``bt_star_eval``).
``vacuum_reduce`` constructs, for any nonzero model-space element, an
extended function whose action maps it to a pure power of h up to terms
beyond the requested degree — the constructive step behind irreducibility
of the representation.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DimensionMismatch,
    PreconditionError,
    SolveError,
    TruncationMismatch,
    Value,
)
from .integrals import (WeightSeries, antiholomorphic_symbol, holomorphic_symbol,
                        toeplitz_symbol)
from .jets import weight_series
from .series import WickSeries, mi_factorial, mi_zero, unpack
from .wick import fock_act, wick_star

__all__ = [
    "BTContext",
    "bt_star_eval",
    "rep_act",
    "vacuum_reduce",
]


class BTContext(Value):
    """Immutable evaluation context: a verified weight plus its window."""

    __slots__ = ("weight", "dim", "trunc")

    def __init__(self, weight: WeightSeries):
        if not (weight.is_real and weight.toeplitz_admissible and weight.refined):
            raise PreconditionError(
                "context weight must be real, admissible and refined")
        self._init(weight=weight, dim=weight.dim, trunc=weight.trunc)

    @classmethod
    def from_potential(cls, p, trunc: int) -> "BTContext":
        return cls(weight_series(p, trunc))


def _to_algebra(f: WickSeries, ctx: BTContext) -> WickSeries:
    """Move jets into the context window; data beyond it is irrelevant."""
    if f.dim != ctx.dim:
        raise DimensionMismatch(f"jets dim {f.dim} != context dim {ctx.dim}")
    if f.trunc < ctx.trunc:
        raise PreconditionError(
            f"jets supplied to order {f.trunc}, context needs {ctx.trunc}")
    return f.retruncate(ctx.trunc)


def _check_fock(alpha: WickSeries, ctx: BTContext) -> None:
    if alpha.dim != ctx.dim:
        raise DimensionMismatch(f"element dim {alpha.dim} != context dim {ctx.dim}")
    if alpha.trunc != ctx.trunc:
        raise TruncationMismatch(
            f"element trunc {alpha.trunc} != context trunc {ctx.trunc}")


def bt_star_eval(f: WickSeries, g: WickSeries, ctx: BTContext):
    """Value of the deformed product of f and g at the marked point.

    The constant terms, as a series in h alone (dim 0), of the Wick product
    S_f * S_g of the two Toeplitz symbols, of which only hol(S_f) and
    anti(S_g) can contract to a constant.  With e = e^(w/h) = 1 + E, every
    term of E has a yb factor (the weight is admissible), and ``f E`` and
    ``E * O`` keep it: the star product contracts only the left factor's y.
    So hol(S_f) = hol(f e) = hol(f), with no solve, and anti(e * O) reads
    only anti(O), so anti(S_g) solves anti(e * A) = anti(g e) on
    antiholomorphic series.  f is checked before g.
    """
    left = holomorphic_symbol(_to_algebra(f, ctx), ctx.weight)
    right = antiholomorphic_symbol(_to_algebra(g, ctx), ctx.weight)
    return wick_star(left, right).constant_part()


def rep_act(f: WickSeries, alpha: WickSeries, ctx: BTContext) -> WickSeries:
    """Act on a holomorphic model-space element through the Toeplitz symbol."""
    _check_fock(alpha, ctx)
    symbol = toeplitz_symbol(_to_algebra(f, ctx), ctx.weight)
    return fock_act(symbol, alpha)


def vacuum_reduce(a: WickSeries, ctx: BTContext, target: int):
    """Reduce a model-space element to a pure h-power below the target degree.

    Returns ``(f, l)``: extended function jets (a series that may carry
    inverse h-powers) and a half-integer l with
    ``rep_act(f, a, ctx) == h^l`` up to terms of degree beyond ``target``.
    The construction kills the leading term with a conjugate-monomial symbol
    and then repairs the remainder degree by degree with holomorphic
    corrections, composing them onto the symbol.
    """
    _check_fock(a, ctx)
    if not a:
        raise PreconditionError("cannot reduce the zero element")
    if not a.is_holomorphic():
        raise PreconditionError("expected a model-space element (holomorphic)")
    if not a.is_plain():
        raise PreconditionError("expected non-negative h-powers")
    if target > ctx.trunc:
        raise PreconditionError(
            f"target degree {target} beyond the truncation {ctx.trunc}")
    dim, trunc = ctx.dim, ctx.trunc
    zero = mi_zero(dim)

    lead = a.min_degree()
    k2_0, head = min(unpack(dim, key)[:2] for key in a.degree_slice(lead).num)
    coeff = a.coefficient(k2_0, head, zero)
    l2 = k2_0 + 2 * sum(head)
    if l2 > trunc:
        raise PreconditionError(
            "the leading term reduces past the truncation window")
    scale = 1 / (coeff * mi_factorial(head))
    start = WickSeries(dim, trunc, {(0, zero, head): scale})
    symbol = toeplitz_symbol(start, ctx.weight)
    vacuum = WickSeries(dim, trunc, {(l2, zero, zero): 1})
    value = fock_act(symbol, a)
    for _ in range(trunc + 2):
        residual = value - vacuum
        depth = residual.min_degree()
        if depth is None or depth > target:
            break
        correction = residual.degree_slice(depth)
        if not correction.is_holomorphic():
            raise SolveError("reduction residual left the model space")
        g = (-correction).hbar_shift(-l2)
        symbol = symbol + wick_star(g, symbol)
        value = value + g * value
    else:  # pragma: no cover - termination is forced by the degree argument
        raise SolveError("vacuum reduction failed to clear the target window")

    w = ctx.weight
    f = wick_star(w.exponential(), symbol) * w.exponential(-1)
    return f, Fraction(l2, 2)
