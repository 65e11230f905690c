"""The Gaussian-integer kernel against plain ComplexRational references.

Products and actions run through ``series.bilinear_terms``, on integer
numerators over one common denominator (``series.integer_rows`` /
``series.rational_terms``); the references in ``support`` visit every pair
of terms in ComplexRational arithmetic.  The inputs stress what the integer
layout could get wrong: pairwise-coprime denominators up to 97 (so the
common denominator is large), purely imaginary and complex coefficients,
odd and negative h-powers under a negative lower bound, sums that cancel
exactly, and terms whose degrees sum to exactly the truncation.
"""

import random
from fractions import Fraction

import pytest

from wickjet.coefficients import ComplexRational
from wickjet.series import WickSeries, integer_rows, mi_add, rational_terms
from wickjet.wick import anti_fock_act, fock_act, wick_star

from support import (
    random_multi_index,
    reference_anti_fock_act,
    reference_fock_act,
    reference_product,
    reference_star,
)

PRIMES = [p for p in range(2, 98) if all(p % q for q in range(2, p))]
KINDS = ("real", "imaginary", "complex")


def _coefficient(rng, kind, den_re, den_im):
    def part(den):
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 97), den)
    if kind == "real":
        return ComplexRational(part(den_re))
    if kind == "imaginary":
        return ComplexRational(0, part(den_im))
    return ComplexRational(part(den_re), part(den_im))


def coprime_series(rng, dim, trunc, n_terms, side=None):
    """Random terms with odd or negative k2; no prime divides two denominators.

    ``side`` "holomorphic" or "anti" zeroes J or I.  The lower bound is the
    least degree present (negative when a term has negative degree).
    """
    primes = rng.sample(PRIMES, 2 * n_terms)
    zero = (0,) * dim
    terms = {}
    for t in range(n_terms):
        I = zero if side == "anti" else random_multi_index(rng, dim, 3)
        J = zero if side == "holomorphic" else random_multi_index(rng, dim, 3)
        k2 = rng.randint(-3, max(-3, trunc - sum(I) - sum(J)))
        terms[(k2, I, J)] = _coefficient(rng, rng.choice(KINDS),
                                         primes[2 * t], primes[2 * t + 1])
    low = min(k2 + sum(I) + sum(J) for k2, I, J in terms)
    return WickSeries(dim, trunc, terms, lower_bound=min(low, 0))


OPERATIONS = [
    ("product", lambda f, g: f * g, reference_product, None),
    ("star", wick_star, reference_star, None),
    ("fock", fock_act, reference_fock_act, "holomorphic"),
    ("anti-fock", anti_fock_act, reference_anti_fock_act, "anti"),
]


def _assert_same(got, want):
    assert got == want
    assert got.lower_bound == want.lower_bound
    assert all(got.terms.values())


@pytest.mark.parametrize("name, op, reference, side", OPERATIONS,
                         ids=[o[0] for o in OPERATIONS])
def test_kernel_matches_reference_on_coprime_denominators(name, op, reference,
                                                          side):
    rng = random.Random(f"kernel-{name}")
    odd = negative = 0
    for _ in range(40):
        dim = rng.randint(1, 3)
        trunc = rng.randint(2, 7)
        f = coprime_series(rng, dim, trunc, rng.randint(1, 6))
        g = coprime_series(rng, dim, trunc, rng.randint(1, 6), side)
        odd += any(k2 % 2 for k2, _, _ in f.terms)
        negative += f.lower_bound < 0
        _assert_same(op(f, g), reference(f, g))
    assert odd and negative


def test_integer_rows_and_rational_terms_round_trip():
    rng = random.Random(97)
    for _ in range(20):
        f = coprime_series(rng, 2, 6, 8)
        D, rows = integer_rows(f)
        dens = {c.re.denominator for c in f.terms.values()} \
            | {c.im.denominator for c in f.terms.values()}
        expected = 1
        for den in dens:
            expected *= den  # pairwise coprime: the lcm is the product
        assert D == expected
        assert [r[0] for r in rows] == sorted(r[0] for r in rows)
        assert all(isinstance(a, int) and isinstance(b, int)
                   for _, _, a, b in rows)
        sums = {key: [a, b] for _, key, a, b in rows}
        assert rational_terms(sums, D) == f.terms
    assert integer_rows(WickSeries.zero(1, 4)) == (1, [])
    assert rational_terms({(0, (0,), (0,)): [0, 0], (2, (0,), (0,)): [0, 6]},
                          4) == {(2, (0,), (0,)): ComplexRational(0, Fraction(3, 2))}


def test_designed_cancellations_leave_no_zero_terms():
    """Two pairs land on one key with opposite coefficients and cancel exactly."""
    rng = random.Random(5)

    def pair(dim):
        return random_multi_index(rng, dim, 2), random_multi_index(rng, dim, 2)

    def plus(x, y):
        return tuple(map(mi_add, x, y))

    for _ in range(30):
        dim = rng.randint(1, 2)
        a, b, c = pair(dim), pair(dim), pair(dim)
        if not any(map(any, b)):
            continue
        # u + p = v + q with u = a + b, p = c, v = a, q = b + c; b != 0
        u, p, v, q = plus(a, b), c, a, plus(b, c)
        primes = rng.sample(PRIMES, 6)
        cu, cp, cv = (_coefficient(rng, "complex", primes[2 * i],
                                   primes[2 * i + 1]) for i in range(3))
        f = WickSeries(dim, 12, {(0,) + u: cu, (0,) + v: cv})
        g = WickSeries(dim, 12, {(0,) + p: cp, (0,) + q: -(cu * cp) / cv})
        product = f * g
        assert (0,) + plus(u, p) not in product.terms
        _assert_same(product, reference_product(f, g))
        _assert_same(wick_star(f, g), reference_star(f, g))


def test_exact_cancellation_inside_each_operation():
    one = WickSeries.unit(1, 6)
    y = WickSeries.monomial(1, 6, ComplexRational(0, Fraction(1, 3)), 0, (1,), (0,))
    yb = WickSeries.monomial(1, 6, Fraction(3, 7), 0, (0,), (1,))
    h = WickSeries.monomial(1, 6, ComplexRational(0, Fraction(1, 7)), 2, (0,), (0,))
    cases = [
        # (i/3 y)(3/7 yb) contracts to -i/7 h, cancelled by 1 * (i/7 h)
        (wick_star, reference_star, y + one, yb + h),
        # (3/7 yb) . (i/3 y) = i/7 h, cancelled by -(i/7 h) . 1
        (fock_act, reference_fock_act, yb - h, y + one),
        # (i/3 y) . (3/7 yb) = -i/7 h, cancelled by (i/7 h) . 1
        (anti_fock_act, reference_anti_fock_act, y + h, yb + one),
    ]
    for op, reference, f, g in cases:
        got = op(f, g)
        assert (2, (0,), (0,)) not in got.terms
        _assert_same(got, reference(f, g))


@pytest.mark.parametrize("trunc", [3, 6, 9])
def test_terms_exactly_at_the_truncation_are_kept(trunc):
    c = ComplexRational(Fraction(1, 3), Fraction(-2, 5))
    y = WickSeries.monomial(1, trunc, c, 0, (1,), (0,))
    yb = WickSeries.monomial(1, trunc, c, 0, (0,), (1,))
    top_y = WickSeries.monomial(1, trunc, Fraction(2, 7), 0, (trunc - 1,), (0,))
    top_yb = WickSeries.monomial(1, trunc, Fraction(2, 7), 0, (0,), (trunc - 1,))
    # y times this lands one degree past the truncation and is cut
    past_yb = WickSeries.monomial(1, trunc, 1, 0, (0,), (trunc,))
    n = trunc - 1
    cases = [
        (y * top_yb, reference_product(y, top_yb),
         {(0, (1,), (n,)): c * Fraction(2, 7)}),
        (wick_star(y, top_yb), reference_star(y, top_yb),
         {(0, (1,), (n,)): c * Fraction(2, 7),
          (2, (0,), (n - 1,)): c * Fraction(-2 * n, 7)}),
        (fock_act(yb, top_y), reference_fock_act(yb, top_y),
         {(2, (n - 1,), (0,)): c * Fraction(2 * n, 7)}),
        (anti_fock_act(y, top_yb), reference_anti_fock_act(y, top_yb),
         {(2, (0,), (n - 1,)): c * Fraction(-2 * n, 7)}),
    ]
    for got, want, terms in cases:
        _assert_same(got, want)
        assert got.terms == terms
        assert all(total == trunc for total in
                   (k2 + sum(I) + sum(J) for k2, I, J in got.terms))
    assert not y * past_yb and not wick_star(y, past_yb)
