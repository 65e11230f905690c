"""Pointwise Berezin-Toeplitz evaluation and the model-space representation.

A :class:`BTContext` fixes the weight series of a marked point.  Function
jets are :class:`WickSeries` whose ``trunc`` is the jet order; they act
through their Toeplitz symbols: ``bt_star_eval`` multiplies two symbols in
the Wick algebra and collects the constant terms (the value of the deformed
product at the point), while ``rep_act`` applies a symbol to a holomorphic
model-space element.  ``vacuum_reduce`` constructs, for any nonzero
model-space element, an extended function whose action maps it to a pure
power of h up to terms beyond the requested degree — the constructive step
behind irreducibility of the representation.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DimensionMismatch,
    PreconditionError,
    SolveError,
    TruncationMismatch,
)
from .integrals import WeightSeries, toeplitz_symbol
from .jets import weight_series
from .series import WickSeries, mi_factorial, mi_zero
from .wick import fock_act, wick_star

__all__ = [
    "BTContext",
    "bt_star_eval",
    "bt_coefficient",
    "rep_act",
    "local_asymptotic_coeffs",
    "vacuum_reduce",
]


class BTContext:
    """Immutable evaluation context: a verified weight plus its window."""

    __slots__ = ("weight", "dim", "trunc")

    def __init__(self, weight: WeightSeries):
        if not (weight.is_real and weight.toeplitz_admissible and weight.refined):
            raise PreconditionError(
                "context weight must be real, admissible and refined")
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "dim", weight.dim)
        object.__setattr__(self, "trunc", weight.trunc)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("BTContext is immutable")

    @classmethod
    def flat(cls, dim: int, trunc: int) -> "BTContext":
        return cls(WeightSeries.zero(dim, trunc))

    @classmethod
    def from_potential(cls, p, trunc: int) -> "BTContext":
        return cls(weight_series(p, trunc))

    def __eq__(self, other):
        if not isinstance(other, BTContext):
            return NotImplemented
        return self.weight == other.weight

    def __hash__(self):
        return hash(self.weight)

    def __repr__(self):
        return f"BTContext(dim={self.dim}, trunc={self.trunc})"


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

    Multiplies the two Toeplitz symbols in the Wick algebra and returns the
    constant terms as a series in h alone (dim 0).
    """
    left = toeplitz_symbol(_to_algebra(f, ctx), ctx.weight)
    right = toeplitz_symbol(_to_algebra(g, ctx), ctx.weight)
    return wick_star(left, right).constant_part()


def bt_coefficient(f: WickSeries, g: WickSeries, ctx: BTContext, k: int):
    """The k-th h-coefficient of the deformed product at the point."""
    if k < 0 or 2 * k > ctx.trunc:
        raise PreconditionError(
            f"coefficient index {k} outside the window (trunc {ctx.trunc})")
    return bt_star_eval(f, g, ctx).coefficient(2 * k)


def rep_act(f: WickSeries, alpha: WickSeries, ctx: BTContext) -> WickSeries:
    """Act on a holomorphic model-space element through the Toeplitz symbol."""
    _check_fock(alpha, ctx)
    symbol = toeplitz_symbol(_to_algebra(f, ctx), ctx.weight)
    return fock_act(symbol, alpha)


def local_asymptotic_coeffs(f: WickSeries, s: WickSeries, ctx: BTContext,
                            r: int) -> dict:
    """Asymptotic coefficients a[(k, I)] of the action on holomorphic jets.

    Returns the coefficients of ``rep_act(f, J_s, ctx)`` indexed by the
    h-power k and the monomial I, restricted to ``2k + |I| <= r``.
    """
    if r > ctx.trunc:
        raise PreconditionError(f"order {r} exceeds the truncation {ctx.trunc}")
    section = _to_algebra(s, ctx)
    if not section.is_holomorphic():
        raise PreconditionError("the section jets must be holomorphic")
    acted = rep_act(f, section, ctx)
    out = {}
    for (k2, I, _), c in acted.terms.items():
        if k2 % 2 or k2 < 0:
            raise SolveError("asymptotic coefficients need plain integer h-powers")
        if k2 + sum(I) <= r:
            out[(k2 // 2, I)] = c
    return out


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
    k2_0, head = min((k2, I) for (k2, I, _) in a.num if k2 + sum(I) == lead)
    coeff = a.coefficient(k2_0, head, zero)
    l2 = k2_0 + 2 * sum(head)
    if l2 > trunc:
        raise PreconditionError(
            "the leading term reduces past the truncation window")
    scale = (coeff * mi_factorial(head)).inverse()
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

    exp_pos, exp_neg = ctx.weight.exponentials()
    return wick_star(exp_pos, symbol) * exp_neg, Fraction(l2, 2)
