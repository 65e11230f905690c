"""Randomized acceptance suites shared by the batch front-end and the tests.

Every suite returns a :class:`SuiteReport` carrying the number of checks
performed and the list of failure descriptions (empty on success).  All
randomness flows from an explicit integer seed, so runs reproduce exactly;
every comparison is exact rational equality except the convergence-rate
fits, which are floating-point by nature.  Each suite's sizes are fixed in
its body, so a suite is a function of its seed alone.

The CP^1 suites, ``peak_section_rows`` and ``engine_entry_series`` run the
engine on the Fubini-Study line at the truncation ``exact_truncation``
gives, inside the window where its h-series coefficients are exact.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .btrep import BTContext, bt_star_eval, rep_act, vacuum_reduce
from .coefficients import random_coefficient
from .cp1 import (
    FactorialRational,
    composition_residual,
    cp1_inner,
    fs_ratio_symbol,
    symbol_jets,
)
from .integrals import WeightSeries, inner_product, toeplitz_symbol
from .jets import (
    apply_normalization,
    flat_potential,
    fubini_study_potential,
    k_normalize,
    random_real_analytic_potential,
    weight_series,
)
from .series import WickSeries, mi_factorial, mi_zero
from .wick import classical_exp, fock_act, star_exp, star_inverse, star_log, wick_star

__all__ = [
    "SuiteReport",
    "SUITES",
    "exact_truncation",
    "wick_core_suite",
    "formal_integral_suite",
    "k_jet_suite",
    "peak_section_rows",
    "peak_section_suite",
    "single_operator_suite",
    "engine_entry_series",
    "composition_fits",
    "slope_bound",
    "decays",
    "composition_decay_suite",
    "flat_reduction_suite",
    "representation_suite",
]


class SuiteReport(NamedTuple):
    name: str
    cases: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


class _Checks:
    """A suite's check count and its "<label> failed at case <case>" failures."""

    def __init__(self):
        self.count = 0
        self.failures: list = []

    def __call__(self, ok: bool, label: str, case, **shown) -> None:
        """Count one check; a failure also prints each ``shown`` value."""
        self.count += 1
        if not ok:
            values = "".join(f", {name} {value}" for name, value in shown.items())
            self.failures.append(f"{label} failed at case {case}{values}")

    def report(self, name: str) -> SuiteReport:
        return SuiteReport(name, self.count, tuple(self.failures))


# ---------------------------------------------------------------------------
# random inputs (self-contained so the front-end needs no test scaffolding)


def _multi_index(rng: random.Random, dim: int, max_abs: int) -> tuple:
    index = [0] * dim
    for _ in range(rng.randint(0, max_abs)):
        index[rng.randrange(dim)] += 1
    return tuple(index)


def _series(rng: random.Random, dim: int, trunc: int, n_terms: int = 3,
            min_degree: int = 0) -> WickSeries:
    terms = {}
    for _ in range(n_terms):
        for _attempt in range(60):
            I = _multi_index(rng, dim, trunc)
            J = _multi_index(rng, dim, trunc)
            low = max(0, min_degree - sum(I) - sum(J))
            high = trunc - sum(I) - sum(J)
            if low % 2:
                low += 1
            if low > high:
                continue
            k2 = 2 * rng.randint(low // 2, high // 2)
            terms[(k2, I, J)] = random_coefficient(rng)
            break
    return WickSeries(dim, trunc, terms)


def _holomorphic(rng: random.Random, dim: int, trunc: int) -> WickSeries:
    terms = {}
    for _ in range(3):
        I = _multi_index(rng, dim, trunc)
        k2 = 2 * rng.randint(0, (trunc - sum(I)) // 2)
        terms[(k2, I, mi_zero(dim))] = random_coefficient(rng)
    return WickSeries(dim, trunc, terms)


def _jets(rng: random.Random, dim: int, order: int,
          real: bool = False) -> WickSeries:
    terms = {}
    for _ in range(3):
        for _attempt in range(40):
            I = _multi_index(rng, dim, 3)
            J = _multi_index(rng, dim, 3)
            if sum(I) + sum(J) > order:
                continue
            terms[(0, I, J)] = random_coefficient(rng)
            break
    body = WickSeries(dim, order, terms)
    if real:
        body = (body + body.conjugate()).scale(Fraction(1, 2))
    return body


def _weight(rng: random.Random, dim: int, trunc: int,
            refined: bool = False) -> WeightSeries:
    """Real weight body with terms of total degree 3..5, as geometry produces."""
    terms = {}
    for _ in range(3):
        for _attempt in range(80):
            I = _multi_index(rng, dim, 5)
            J = _multi_index(rng, dim, 5)
            if not any(I) or not any(J):
                continue
            if refined and (sum(I) == 1 or sum(J) == 1):
                continue
            k2 = rng.choice((0, 2))
            if not 3 <= k2 + sum(I) + sum(J) <= 5:
                continue
            terms[(k2, I, J)] = random_coefficient(rng)
            break
    body = WickSeries(dim, trunc, terms)
    return WeightSeries((body + body.conjugate()).scale(Fraction(1, 2)))


# ---------------------------------------------------------------------------
# 1. Wick-algebra core identities


def wick_core_suite(seed: int = 0) -> SuiteReport:
    """Associativity, grading, module action, conjugation, exp/log round-trips."""
    rng = random.Random(seed)
    check = _Checks()
    for i in range(200):
        dim = rng.randint(1, 2)
        trunc = rng.choice((6, 7, 8))
        f = _series(rng, dim, trunc)
        g = _series(rng, dim, trunc)
        k = _series(rng, dim, trunc)
        check(wick_star(wick_star(f, g), k) == wick_star(f, wick_star(g, k)),
              "associativity", i)

        a = _series(rng, dim, trunc, n_terms=1)
        b = _series(rng, dim, trunc, n_terms=1)
        if a and b:
            expected = a.min_degree() + b.min_degree()
            product = wick_star(a, b)
            if expected > trunc:
                graded = not product
            else:
                graded = bool(product) and \
                    product.degree_slice(expected) == product
            check(graded, "graded product", i)
        else:  # zero factors multiply to zero trivially
            check(not wick_star(a, b), "graded product", i)

        s = _holomorphic(rng, dim, trunc)
        check(fock_act(wick_star(f, g), s) == fock_act(f, fock_act(g, s)),
              "representation property", i)

        check(wick_star(f, g).conjugate()
              == wick_star(g.conjugate(), f.conjugate()),
              "conjugation anti-homomorphism", i)

        x = _series(rng, dim, min(trunc, 6), min_degree=1)
        u = star_exp(x)
        check(star_log(u) == x and star_exp(star_log(u)) == u,
              "exp/log round-trip", i)

    return check.report("wick-core")


# ---------------------------------------------------------------------------
# 2. formal integrals and Toeplitz symbols


def formal_integral_suite(seed: int = 0) -> SuiteReport:
    rng = random.Random(seed)
    check = _Checks()
    for i in range(30):
        dim = rng.randint(1, 2)
        trunc = rng.choice((7, 8))
        refined = bool(i % 2)
        w = _weight(rng, dim, trunc, refined=refined)
        f = _series(rng, dim, trunc)
        g = _series(rng, dim, trunc)

        check(inner_product(f, g, w) == inner_product(g, f, w).conjugate(),
              "Hermitian pairing", i)

        shifted = _series(rng, dim, trunc, min_degree=rng.randint(0, 3))
        out = inner_product(shifted, WickSeries.unit(dim, trunc), w)
        check(not (out and shifted)
              or out.min_degree() >= shifted.min_degree(),
              "filtration preservation", i)

        I = _multi_index(rng, dim, 3)
        J = _multi_index(rng, dim, 3)
        yI = WickSeries.monomial(dim, trunc, 1, 0, I, mi_zero(dim))
        yJ = WickSeries.monomial(dim, trunc, 1, 0, J, mi_zero(dim))
        pairing = inner_product(yI, yJ, w)
        normalized = pairing.hbar_shift(-(sum(I) + sum(J)))
        check(all(I == J and k2 == 0 and (a, b) == (mi_factorial(I) * normalized.den, 0)
                  for k2, (a, b) in normalized.num.items() if k2 <= 0),  # dim 0: key is k2
              "orthonormal modulo h", i)

        if I != J:
            floor = 2 * max(sum(I), sum(J))
            if refined:
                leading = all(k2 > floor for k2 in pairing.num)
            else:
                leading = all(k2 >= floor for k2 in pairing.num)
            check(leading, "leading-term bound", i)

        symbol = toeplitz_symbol(f, w)
        exp_pos = classical_exp(w.body.hbar_shift(-2))
        check(wick_star(exp_pos, symbol) == f * exp_pos,
              "symbol defining identity", i)
        correction = symbol - f
        check(not (correction and f)
              or correction.min_degree() > f.min_degree(),
              "symbol leading term", i)
        check(symbol == wick_star(star_inverse(exp_pos), f * exp_pos),
              "symbol route equivalence", i)

        s1 = _holomorphic(rng, dim, trunc)
        s2 = _holomorphic(rng, dim, trunc)
        check(inner_product(fock_act(symbol, s1), s2, w)
              == inner_product(s1, fock_act(toeplitz_symbol(f.conjugate(), w), s2), w),
              "adjoint law", i)

    return check.report("formal-integral")


# ---------------------------------------------------------------------------
# 3. jet normalization


def k_jet_suite(seed: int = 0) -> SuiteReport:
    check = _Checks()
    for i in range(50):
        dim = 1 + i % 2
        raw = random_real_analytic_potential(seed * 1009 + i, dim, 6)
        normalized, coords, frame = k_normalize(raw)
        check(normalized.normalized, "normal form flag", i)
        check(apply_normalization(raw, coords, frame) == normalized,
              "round-trip substitution", i)
        again, coords2, frame2 = k_normalize(normalized)
        identity = tuple(
            WickSeries.monomial(dim, 6, 1, 0,
                                tuple(1 if k == j else 0 for k in range(dim)),
                                mi_zero(dim))
            for j in range(dim))
        check(again == normalized and coords2 == identity and not frame2,
              "idempotence", i)
        psi = normalized.psi
        check(not (psi.holomorphic_part() or psi.antiholomorphic_part()),
              "volume-log vanishing", i)
        w = weight_series(normalized, 6)
        check(w.is_real and w.toeplitz_admissible and w.refined,
              "weight flags", i)

    return check.report("k-jet")


# ---------------------------------------------------------------------------
# 4. projective-line peak sections


def _ymono(trunc: int, p: int) -> WickSeries:
    return WickSeries.monomial(1, trunc, 1, 0, (p,), (0,))


def exact_truncation(order: int, reach: int) -> int:
    """Truncation at which the CP^1 engine's h-series are exact through ``order``.

    At truncation D on the Fubini-Study line, against a reference at
    truncation 26: the raw Gram norm <y^p, y^p> is exact through
    h^(D/2 - 1), and no further at p = 0 (D = 6, 8, 10); a Gram-normalized
    composed entry <S S y^p, y^q> / <y^q, y^q> is exact through
    h^(D/2 - max(p, q)), and no further for (0, 0) through (3, 3) at
    D = 6..12; off-diagonal composed entries are identically zero.  So the
    Gram norms (``reach`` 0) are exact through ``order``, and composed
    entries with max(p, q) <= ``reach`` through ``order`` + 1.
    """
    return 2 * (order + reach) + 2


def _fubini_study_line(order: int, reach: int) -> tuple:
    """``(trunc, weight, solve)`` at ``exact_truncation``; ``solve()`` returns
    the Toeplitz symbol of |z|^2 / (1 + |z|^2), built only when called."""
    trunc = exact_truncation(order, reach)
    w = weight_series(fubini_study_potential(1, trunc), trunc)
    return trunc, w, lambda: toeplitz_symbol(
        symbol_jets(fs_ratio_symbol(), trunc), w)


def _check_orders(check, label: str, case, engine, closed, max_order: int):
    """One check per order k <= ``max_order`` of two h-series' h^k coefficients."""
    for k in range(max_order + 1):
        e, c = engine.coefficient(2 * k), closed.coefficient(2 * k)
        check(e == c, label, case, order=k, engine=e, closed=c)


def peak_section_rows(max_p: int, max_order: int) -> list:
    """Per-exponent engine/closed-form pairs for the diagonal Gram norms.

    Returns ``(p, engine, closed, match)`` tuples where both series are even,
    non-negative h-series through ``max_order``, so ``match``, their equality,
    is exact equality of every coefficient in that window.
    """
    trunc, w, _ = _fubini_study_line(max_order, 0)
    rows = []
    for p in range(max_p + 1):
        engine = inner_product(_ymono(trunc, p), _ymono(trunc, p), w)
        engine = engine.retruncate(2 * max_order)
        closed = cp1_inner(p, p).expand_at_infinity(max_order)
        rows.append((p, engine, closed, engine == closed))
    return rows


def peak_section_suite(seed: int = 0) -> SuiteReport:
    del seed  # deterministic
    check = _Checks()
    for p, engine, closed, _ in peak_section_rows(3, 4):
        _check_orders(check, "diagonal norm", f"p={p}", engine, closed, 4)
    return check.report("cp1-peak-section")


# ---------------------------------------------------------------------------
# 5. single-operator matrix elements


def single_operator_suite(seed: int = 0) -> SuiteReport:
    del seed  # deterministic
    max_order = 3
    trunc, w, solve = _fubini_study_line(max_order, 0)
    symbol = solve()
    check = _Checks()
    for p in range(3):
        acted = fock_act(symbol, _ymono(trunc, p))
        for q in range(3):
            engine = inner_product(acted, _ymono(trunc, q), w)
            # T y^p = (p + 1)/(m + 2) y^p at every tensor power m
            closed = (FactorialRational(p + 1, (), (2,))
                      * cp1_inner(p, q)).expand_at_infinity(max_order)
            _check_orders(check, "matrix element", (p, q), engine, closed,
                          max_order)
    return check.report("cp1-single-operator")


# ---------------------------------------------------------------------------
# 6. composition decay rates


def engine_entry_series(elements, max_order: int) -> dict:
    """Formal-engine h-series of composed-operator matrix entries.

    For each requested (p, q) the engine pairs the twice-applied standard
    symbol against the monomial basis and divides by the Gram norm, which is
    exactly the quantity the closed-form matrices tabulate per tensor power.
    At ``exact_truncation(max_order, largest exponent)`` every entry is
    exact through ``max_order`` with one order to spare.
    """
    reach = max((max(p, q) for p, q in elements), default=0)
    trunc, w, solve = _fubini_study_line(max_order, reach)
    symbol = solve()
    out = {}
    for p, q in elements:
        pairing = inner_product(
            fock_act(symbol, fock_act(symbol, _ymono(trunc, p))),
            _ymono(trunc, q), w)
        gram = inner_product(_ymono(trunc, q), _ymono(trunc, q), w)
        out[(p, q)] = pairing * gram.reciprocal()
    return out


def composition_fits(orders, ms, elements) -> dict:
    """Residual fits per partial-sum order: {order: {(p, q): fit}}."""
    predicted = engine_entry_series(tuple(elements), max([0, *orders]))
    f = fs_ratio_symbol()
    return composition_residual(f, f, ms, orders, predicted)


def slope_bound(order: int) -> float:
    """Largest log-log slope of an order-``order`` residual, with 0.3 of slack."""
    return -(order + 1) + 0.3


def decays(fit: dict, order: int) -> bool:
    """Whether an order-``order`` residual fit is exact or within the slope bound."""
    return fit["exact"] or (fit["fitted"] is not None
                            and fit["fitted"] <= slope_bound(order))


def composition_decay_suite(seed: int = 0) -> SuiteReport:
    del seed  # deterministic
    fits = composition_fits((0, 1, 2), (32, 64, 128, 256, 512),
                            ((0, 0), (1, 1)))
    check = _Checks()
    for order, per_element in fits.items():
        for (p, q), fit in per_element.items():
            check(decays(fit, order), "residual decay", (p, q), order=order,
                  slope=fit["fitted"], bound=slope_bound(order))
    return check.report("cp1-composition")


# ---------------------------------------------------------------------------
# 7. flat reduction


def flat_reduction_suite(seed: int = 0) -> SuiteReport:
    rng = random.Random(seed)
    check = _Checks()
    trunc = 6
    contexts = {dim: BTContext.from_potential(flat_potential(dim, trunc), trunc)
                for dim in (1, 2)}
    for i in range(100):
        dim = 1 + i % 2
        f = _jets(rng, dim, trunc)
        g = _jets(rng, dim, trunc)
        direct = wick_star(f, g)
        check(bt_star_eval(f, g, contexts[dim]) == direct.constant_part(),
              "flat evaluation", i)
    return check.report("flat-reduction")


# ---------------------------------------------------------------------------
# 8. self-adjointness and vacuum reduction


def _random_fock(rng: random.Random, dim: int, trunc: int) -> WickSeries:
    """Nonzero model-space element whose leading term stays reducible."""
    terms = {(2 * rng.randint(0, 1), _multi_index(rng, dim, 1),
              mi_zero(dim)): random_coefficient(rng)}
    for _ in range(2):
        I = _multi_index(rng, dim, trunc)
        k2 = 2 * rng.randint(0, (trunc - sum(I)) // 2)
        terms[(k2, I, mi_zero(dim))] = random_coefficient(rng)
    return WickSeries(dim, trunc, terms)


def representation_suite(seed: int = 0) -> SuiteReport:
    rng = random.Random(seed)
    check = _Checks()
    trunc = 8
    quartic = WickSeries.monomial(1, trunc, Fraction(1, 5), 0, (2,), (2,))
    contexts = [BTContext.from_potential(p, trunc) for p in (
        flat_potential(1, trunc), flat_potential(2, trunc),
        fubini_study_potential(1, trunc))] + [BTContext(WeightSeries(quartic))]

    for i in range(50):
        ctx = contexts[i % len(contexts)]
        f = _jets(rng, ctx.dim, trunc, real=True)
        alpha = _holomorphic(rng, ctx.dim, trunc)
        beta = _holomorphic(rng, ctx.dim, trunc)
        lhs = inner_product(rep_act(f, alpha, ctx), beta, ctx.weight)
        rhs = inner_product(alpha, rep_act(f, beta, ctx), ctx.weight)
        check(lhs == rhs, "self-adjointness", i)

    for i in range(50):
        ctx = contexts[i % len(contexts)]
        a = _random_fock(rng, ctx.dim, trunc)
        target = rng.randint(trunc - 2, trunc)
        reducer, level = vacuum_reduce(a, ctx, target)
        value = rep_act(reducer, a, ctx)
        vacuum = WickSeries(ctx.dim, trunc, {
            (int(2 * level), mi_zero(ctx.dim), mi_zero(ctx.dim)): 1})
        depth = (value - vacuum).min_degree()
        check(depth is None or depth > target, "vacuum residual", i,
              degree=depth, target=target)

    return check.report("representation")


# ---------------------------------------------------------------------------
# registry


SUITES: dict = {
    "wick-core": wick_core_suite,
    "formal-integral": formal_integral_suite,
    "k-jet": k_jet_suite,
    "cp1-peak-section": peak_section_suite,
    "cp1-single-operator": single_operator_suite,
    "cp1-composition": composition_decay_suite,
    "flat-reduction": flat_reduction_suite,
    "representation": representation_suite,
}
