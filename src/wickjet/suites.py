"""Randomized acceptance suites shared by the batch front-end and the tests.

Every suite returns a :class:`SuiteReport` carrying the number of checks
performed and the list of failure descriptions (empty on success).  All
randomness flows from an explicit integer seed, so runs reproduce exactly;
every comparison is exact rational equality except the convergence-rate
fits, which are floating-point by nature.

The closed-form suites pin their truncations so that the compared orders
sit strictly inside the exact window of the formal engine: an h-series
coefficient at order k is certified only when the truncation is at least
2k + 2, because jets beyond the truncation would otherwise start leaking
into the top coefficients.
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
from .integrals import WeightSeries, inner_product, toeplitz_apply, toeplitz_symbol
from .jets import (
    apply_normalization,
    fubini_study_potential,
    k_normalize,
    random_real_analytic_potential,
    weight_series,
)
from .series import WickSeries, mi_factorial, mi_zero, total_degree
from .wick import classical_exp, fock_act, star_exp, star_inverse, star_log, wick_star

__all__ = [
    "SuiteReport",
    "SUITES",
    "run_suite",
    "run_suites",
    "wick_core_suite",
    "formal_integral_suite",
    "k_jet_suite",
    "peak_section_rows",
    "peak_section_suite",
    "single_operator_suite",
    "ENGINE_TRUNC",
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
    """A suite's check count and its "<label> failed at case <i>" failures."""

    def __init__(self):
        self.count = 0
        self.failures: list = []

    def __call__(self, ok: bool, label: str, case: int) -> None:
        self.count += 1
        if not ok:
            self.failures.append(f"{label} failed at case {case}")

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


def _monomial(rng: random.Random, dim: int, trunc: int) -> WickSeries:
    return _series(rng, dim, trunc, n_terms=1)


def _holomorphic(rng: random.Random, dim: int, trunc: int,
                 n_terms: int = 3) -> WickSeries:
    terms = {}
    for _ in range(n_terms):
        I = _multi_index(rng, dim, trunc)
        k2 = 2 * rng.randint(0, (trunc - sum(I)) // 2)
        terms[(k2, I, mi_zero(dim))] = random_coefficient(rng)
    return WickSeries(dim, trunc, terms)


def _jets(rng: random.Random, dim: int, order: int, n_terms: int = 3,
          real: bool = False) -> WickSeries:
    terms = {}
    for _ in range(n_terms):
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


def _weight(rng: random.Random, dim: int, trunc: int, n_terms: int = 3,
            refined: bool = False) -> WeightSeries:
    """Real weight body with terms of total degree 3..5, as geometry produces."""
    terms = {}
    for _ in range(n_terms):
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


def _ymono(trunc: int, p: int) -> WickSeries:
    return WickSeries.monomial(1, trunc, 1, 0, (p,), (0,))


# ---------------------------------------------------------------------------
# 1. Wick-algebra core identities


def wick_core_suite(seed: int = 0, cases: int = 200) -> SuiteReport:
    """Associativity, grading, module action, conjugation, exp/log round-trips."""
    rng = random.Random(seed)
    check = _Checks()
    for i in range(cases):
        dim = rng.randint(1, 2)
        trunc = rng.choice((6, 7, 8))
        f = _series(rng, dim, trunc)
        g = _series(rng, dim, trunc)
        k = _series(rng, dim, trunc)
        check(wick_star(wick_star(f, g), k) == wick_star(f, wick_star(g, k)),
              "associativity", i)

        a = _monomial(rng, dim, trunc)
        b = _monomial(rng, dim, trunc)
        if a and b:
            expected = a.min_degree() + b.min_degree()
            product = wick_star(a, b)
            if expected > trunc:
                graded = not product
            else:
                graded = bool(product) and all(
                    total_degree(*key) == expected for key in product.num)
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


def formal_integral_suite(seed: int = 0, cases: int = 30) -> SuiteReport:
    rng = random.Random(seed)
    check = _Checks()
    for i in range(cases):
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
        check(all(I == J and k2 == 0 and c == mi_factorial(I)
                  for (k2, _, _), c in normalized.terms.items() if k2 <= 0),
              "orthonormal modulo h", i)

        if I != J:
            floor = 2 * max(sum(I), sum(J))
            if refined:
                leading = all(k2 > floor for k2, _, _ in pairing.num)
            else:
                leading = all(k2 >= floor for k2, _, _ in pairing.num)
            check(leading, "leading-term bound", i)

        symbol = toeplitz_symbol(f, w)
        exp_pos = classical_exp(w.body, divide_by_hbar=True)
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
        check(inner_product(toeplitz_apply(f, s1, w), s2, w)
              == inner_product(s1, toeplitz_apply(f.conjugate(), s2, w), w),
              "adjoint law", i)

    return check.report("formal-integral")


# ---------------------------------------------------------------------------
# 3. jet normalization


def k_jet_suite(seed: int = 0, cases: int = 50) -> SuiteReport:
    check = _Checks()
    for i in range(cases):
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
        check(all(any(I) and any(J) for (_, I, J) in normalized.psi.num),
              "volume-log vanishing", i)
        w = weight_series(normalized, 6)
        check(w.is_real and w.toeplitz_admissible and w.refined,
              "weight flags", i)

    return check.report("k-jet")


# ---------------------------------------------------------------------------
# 4. projective-line peak sections


def peak_section_rows(max_p: int = 3, max_order: int = 4) -> list:
    """Per-exponent engine/closed-form pairs for the diagonal Gram norms.

    Returns ``(p, engine, closed, match)`` tuples where both series are
    h-series through ``max_order`` and ``match`` is exact equality of every
    coefficient in that window.
    """
    trunc = 2 * max_order + 2
    w = weight_series(fubini_study_potential(1, trunc), trunc)
    rows = []
    for p in range(max_p + 1):
        engine = inner_product(_ymono(trunc, p), _ymono(trunc, p), w)
        engine = engine.retruncate(2 * max_order)
        closed = cp1_inner(p, p).expand_at_infinity(max_order)
        match = all(engine.coefficient(2 * k) == closed.coefficient(2 * k)
                    for k in range(max_order + 1))
        rows.append((p, engine, closed, match))
    return rows


def peak_section_suite(seed: int = 0, max_p: int = 3,
                       max_order: int = 4) -> SuiteReport:
    del seed  # deterministic
    failures = tuple(
        f"diagonal norm mismatch at p={p}: engine {engine}, closed {closed}"
        for p, engine, closed, match in peak_section_rows(max_p, max_order)
        if not match)
    return SuiteReport("cp1-peak-section",
                       (max_p + 1) * (max_order + 1), failures)


# ---------------------------------------------------------------------------
# 5. single-operator matrix elements


def single_operator_suite(seed: int = 0, max_pq: int = 2,
                          max_order: int = 3) -> SuiteReport:
    del seed  # deterministic
    trunc = 2 * max_order + 2
    w = weight_series(fubini_study_potential(1, trunc), trunc)
    symbol = toeplitz_symbol(symbol_jets(fs_ratio_symbol(), trunc), w)
    failures: list = []
    cases = 0
    for p in range(max_pq + 1):
        acted = fock_act(symbol, _ymono(trunc, p))
        for q in range(max_pq + 1):
            engine = inner_product(acted, _ymono(trunc, q), w)
            if p == q:
                closed = (FactorialRational(p + 1, (), (2,))
                          * cp1_inner(q, q)).expand_at_infinity(max_order)
            else:
                closed = FactorialRational(0).expand_at_infinity(max_order)
            for k in range(max_order + 1):
                cases += 1
                if engine.coefficient(2 * k) != closed.coefficient(2 * k):
                    failures.append(
                        f"matrix element ({p}, {q}) differs at order {k}: "
                        f"engine {engine.coefficient(2 * k)}, "
                        f"closed {closed.coefficient(2 * k)}")
    return SuiteReport("cp1-single-operator", cases, tuple(failures))


# ---------------------------------------------------------------------------
# 6. composition decay rates


# Truncation of the composition predictions.  It holds the Gram norm
# p! h^p of z^p, and the prediction's terms, only through h^(trunc/2).
ENGINE_TRUNC = 10


def engine_entry_series(elements, trunc: int = ENGINE_TRUNC) -> dict:
    """Formal-engine h-series of composed-operator matrix entries.

    For each requested (p, q) the engine pairs the twice-applied standard
    symbol against the monomial basis and divides by the Gram norm, which is
    exactly the quantity the closed-form matrices tabulate per tensor power.
    """
    w = weight_series(fubini_study_potential(1, trunc), trunc)
    symbol = toeplitz_symbol(symbol_jets(fs_ratio_symbol(), trunc), w)
    out = {}
    for p, q in elements:
        pairing = inner_product(
            fock_act(symbol, fock_act(symbol, _ymono(trunc, p))),
            _ymono(trunc, q), w)
        gram = inner_product(_ymono(trunc, q), _ymono(trunc, q), w)
        out[(p, q)] = pairing * gram.reciprocal()
    return out


def composition_fits(orders=(0, 1, 2), ms=(32, 64, 128, 256, 512),
                     elements=((0, 0), (1, 1))) -> dict:
    """Residual fits per partial-sum order: {order: {(p, q): fit}}."""
    predicted = engine_entry_series(tuple(elements))
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
    orders = (0, 1, 2)
    fits = composition_fits(orders=orders)
    failures: list = []
    cases = 0
    for order, per_element in fits.items():
        for (p, q), fit in per_element.items():
            cases += 1
            if not decays(fit, order):
                failures.append(
                    f"order-{order} residual at element ({p}, {q}) decays "
                    f"with slope {fit['fitted']}, bound {slope_bound(order)}")
    return SuiteReport("cp1-composition", cases, tuple(failures))


# ---------------------------------------------------------------------------
# 7. flat reduction


def flat_reduction_suite(seed: int = 0, cases: int = 100) -> SuiteReport:
    rng = random.Random(seed)
    failures: list = []
    trunc = 6
    contexts = {dim: BTContext.flat(dim, trunc) for dim in (1, 2)}
    for i in range(cases):
        dim = 1 + i % 2
        f = _jets(rng, dim, trunc)
        g = _jets(rng, dim, trunc)
        direct = wick_star(f, g)
        if bt_star_eval(f, g, contexts[dim]) != direct.constant_part():
            failures.append(f"flat evaluation differs from the plain star "
                            f"product at case {i}")
    return SuiteReport("flat-reduction", cases, tuple(failures))


# ---------------------------------------------------------------------------
# 8. self-adjointness and vacuum reduction


def _representation_contexts(trunc: int) -> list:
    quartic = WeightSeries(
        WickSeries.monomial(1, trunc, Fraction(1, 5), 0, (2,), (2,)))
    return [
        BTContext.flat(1, trunc),
        BTContext.flat(2, trunc),
        BTContext.from_potential(fubini_study_potential(1, trunc), trunc),
        BTContext(quartic),
    ]


def _random_fock(rng: random.Random, dim: int, trunc: int) -> WickSeries:
    """Nonzero model-space element whose leading term stays reducible."""
    terms = {(2 * rng.randint(0, 1), _multi_index(rng, dim, 1),
              mi_zero(dim)): random_coefficient(rng)}
    for _ in range(2):
        I = _multi_index(rng, dim, trunc)
        k2 = 2 * rng.randint(0, (trunc - sum(I)) // 2)
        terms[(k2, I, mi_zero(dim))] = random_coefficient(rng)
    return WickSeries(dim, trunc, terms)


def representation_suite(seed: int = 0, cases: int = 50) -> SuiteReport:
    rng = random.Random(seed)
    failures: list = []
    checks = 0
    trunc = 8
    contexts = _representation_contexts(trunc)

    for i in range(cases):
        ctx = contexts[i % len(contexts)]
        f = _jets(rng, ctx.dim, trunc, real=True)
        alpha = _holomorphic(rng, ctx.dim, trunc)
        beta = _holomorphic(rng, ctx.dim, trunc)
        lhs = inner_product(rep_act(f, alpha, ctx), beta, ctx.weight)
        rhs = inner_product(alpha, rep_act(f, beta, ctx), ctx.weight)
        checks += 1
        if lhs != rhs:
            failures.append(f"self-adjointness failed at case {i}")

    for i in range(cases):
        ctx = contexts[i % len(contexts)]
        a = _random_fock(rng, ctx.dim, trunc)
        target = rng.randint(trunc - 2, trunc)
        reducer, level = vacuum_reduce(a, ctx, target)
        value = rep_act(reducer, a, ctx)
        vacuum = WickSeries(ctx.dim, trunc, {
            (int(2 * level), mi_zero(ctx.dim), mi_zero(ctx.dim)): 1})
        residual = value - vacuum
        depth = residual.min_degree()
        checks += 1
        if depth is not None and depth <= target:
            failures.append(f"vacuum residual of degree {depth} at case {i} "
                            f"missed the target {target}")

    return SuiteReport("representation", checks, tuple(failures))


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


def run_suite(name: str, seed: int = 0) -> SuiteReport:
    return SUITES[name](seed=seed)


def run_suites(names=None, seed: int = 0) -> list:
    if names is None:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise KeyError(f"unknown suite names: {', '.join(unknown)}")
    return [run_suite(name, seed=seed) for name in names]
