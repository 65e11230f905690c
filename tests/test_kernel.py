"""The Gaussian-integer kernel against plain ComplexRational references.

Products, actions and the moment rule of formal integrals run through
``series.bilinear_terms``, on the integer numerators over one common
denominator that every series stores; the
references in ``support`` visit every pair of terms in ComplexRational
arithmetic.  The inputs stress what the integer
layout could get wrong: pairwise-coprime denominators up to 97 (so the
common denominator is large), purely imaginary and complex coefficients,
odd and negative h-powers (negative degrees included), sums that cancel
exactly, and terms whose degrees sum to exactly the truncation.
"""

import random
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest

from wickjet.coefficients import ComplexRational
from wickjet.integrals import _moments
from wickjet.series import (EXPONENT_LIMIT, WickSeries, accumulate, linear_combination,
                            pack, total_degree, unpack)
from wickjet.wick import fock_act, wick_star

from support import (
    mi_add,
    random_multi_index,
    reference_fock_act,
    reference_moment,
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

    ``side`` "holomorphic" zeroes J.
    """
    primes = rng.sample(PRIMES, 2 * n_terms)
    zero = (0,) * dim
    terms = {}
    for t in range(n_terms):
        I = zero if not dim else random_multi_index(rng, dim, 3)
        J = zero if side == "holomorphic" or not dim else random_multi_index(rng, dim, 3)
        k2 = rng.randint(-3, max(-3, trunc - sum(I) - sum(J)))
        terms[(k2, I, J)] = _coefficient(rng, rng.choice(KINDS),
                                         primes[2 * t], primes[2 * t + 1])
    return WickSeries(dim, trunc, terms)


OPERATIONS = [
    ("product", lambda f, g: f * g, reference_product, None),
    ("star", wick_star, reference_star, None),
    ("fock", fock_act, reference_fock_act, "holomorphic"),
    ("moment", _moments, reference_moment, None),
]


def _assert_canonical(s):
    """The stored layout is canonical: equal values can only be stored one way.

    Kernel output is stored without a per-term key check, so this is where
    a faulty expansion rule's wrapped field or out-of-range exponent shows:
    every key unpacks to exponents below the limit and packs back to itself.
    """
    keys = [unpack(s.dim, key) for key in s.num]
    assert all(len(I) == len(J) == s.dim and min(I + J, default=0) >= 0
               and max(I + J, default=0) < EXPONENT_LIMIT for _, I, J in keys)
    assert [pack(s.dim, *key) for key in keys] == list(s.num)
    assert s.den > 0
    assert gcd(s.den, *(x for pair in s.num.values() for x in pair)) == 1
    assert all(a or b for a, b in s.num.values())
    assert all(k2 + sum(I) + sum(J) <= s.trunc for k2, I, J in keys)


def _assert_same(got, want):
    _assert_canonical(got)
    assert got == want
    assert all(got.terms.values())


@pytest.mark.parametrize("name, op, reference, side", OPERATIONS,
                         ids=[o[0] for o in OPERATIONS])
def test_kernel_matches_reference_on_coprime_denominators(name, op, reference,
                                                          side):
    rng = random.Random(f"kernel-{name}")
    odd = negative = produced = 0
    for _ in range(40):
        dim = rng.randint(1, 3)
        trunc = rng.randint(2, 7)
        f = coprime_series(rng, dim, trunc, rng.randint(1, 6))
        g = coprime_series(rng, dim, trunc, rng.randint(1, 6), side)
        odd += any(k2 % 2 for k2, _, _ in f.terms)
        negative += f.min_degree() < 0
        got = op(f, g)
        produced += bool(got)
        _assert_same(got, reference(f, g))
    assert odd and negative and produced


def _expected(pairs, trunc):
    """ComplexRational sums by key, zeros and terms past ``trunc`` dropped."""
    return {key: c for key, c in accumulate(pairs).items()
            if c and total_degree(*key) <= trunc}


SCALAR = ComplexRational(Fraction(6, 35), Fraction(-10, 77))

LINEAR = [
    ("add", lambda f, g: f + g,
     lambda f, g: chain(f.terms.items(), g.terms.items())),
    ("sub", lambda f, g: f - g,
     lambda f, g: chain(f.terms.items(), ((k, -c) for k, c in g.terms.items()))),
    ("neg", lambda f, g: -f, lambda f, g: ((k, -c) for k, c in f.terms.items())),
    ("scale", lambda f, g: f.scale(SCALAR),
     lambda f, g: ((k, c * SCALAR) for k, c in f.terms.items())),
    ("scale-by-denominator", lambda f, g: f.scale(f.den),
     lambda f, g: ((k, c * f.den) for k, c in f.terms.items())),
    ("conjugate", lambda f, g: f.conjugate(),
     lambda f, g: (((k2, J, I), c.conjugate())
                   for (k2, I, J), c in f.terms.items())),
    ("hbar-shift", lambda f, g: f.hbar_shift(3),
     lambda f, g: (((k2 + 3, I, J), c) for (k2, I, J), c in f.terms.items())),
    ("retruncate", lambda f, g: f.retruncate(f.trunc - 1),
     lambda f, g: f.terms.items()),
    ("degree-slice", lambda f, g: f.degree_slice(2),
     lambda f, g: ((k, c) for k, c in f.terms.items()
                   if total_degree(*k) == 2)),
    ("holomorphic-part", lambda f, g: f.holomorphic_part(),
     lambda f, g: ((k, c) for k, c in f.terms.items() if not any(k[2]))),
    ("antiholomorphic-part", lambda f, g: f.antiholomorphic_part(),
     lambda f, g: ((k, c) for k, c in f.terms.items() if not any(k[1]))),
]


def test_every_operation_keeps_the_canonical_form():
    rng = random.Random(97)
    for _ in range(25):
        dim = rng.randint(0, 2)
        trunc = rng.randint(3, 7)
        f = coprime_series(rng, dim, trunc, rng.randint(1, 8))
        g = coprime_series(rng, dim, trunc, rng.randint(1, 8))
        _assert_canonical(f)
        for name, op, pairs in LINEAR:
            got = op(f, g)
            _assert_canonical(got)
            assert got.terms == _expected(pairs(f, g), got.trunc), name
        for name, op, reference, side in OPERATIONS:
            s = coprime_series(rng, dim, trunc, rng.randint(1, 8), side)
            got = op(f, s)
            _assert_canonical(got)
            assert got.terms == reference(f, s).terms, name
        # equal values reached along different paths are stored identically
        zero = WickSeries.zero(dim, trunc)
        for left, right in [((f + g) - g, f), (f - f, zero), (-(-f), f),
                            (f.scale(SCALAR).scale(1 / SCALAR), f),
                            (f.conjugate().conjugate(), f), (f * g, g * f),
                            (f.hbar_shift(-3).hbar_shift(3), f),
                            (WickSeries(dim, trunc, f.terms), f)]:
            assert left == right
            assert hash(left) == hash(right)
            assert (left.den, left.num) == (right.den, right.num)


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
    ]
    for got, want, terms in cases:
        _assert_same(got, want)
        assert got.terms == terms
        assert all(total == trunc for total in
                   (k2 + sum(I) + sum(J) for k2, I, J in got.terms))
    assert not y * past_yb and not wick_star(y, past_yb)


def _repeated_sum(parts, den):
    """``sum (a + bi) / den * s`` by ``scale`` and repeated ``+``."""
    total = WickSeries.zero(parts[0][0].dim, parts[0][0].trunc)
    for s, (a, b) in parts:
        total = total + s.scale(ComplexRational(Fraction(a, den), Fraction(b, den)))
    return total


def _assert_weighted_sum(parts, den):
    """``linear_combination`` equals the sum in ComplexRational arithmetic,
    and the sum by repeated ``+``, which also runs through it, in two-part steps."""
    got = linear_combination(parts, den)
    _assert_canonical(got)
    assert got.terms == _expected(
        ((key, c * ComplexRational(Fraction(a, den), Fraction(b, den)))
         for s, (a, b) in parts for key, c in s.terms.items()), got.trunc)
    assert got == _repeated_sum(parts, den)
    return got


def test_linear_combination_matches_repeated_addition():
    rng = random.Random("linear-combination")
    shapes = set()
    for case in range(80):
        dim, trunc = case % 4, rng.randint(2, 7)
        parts = [(coprime_series(rng, dim, trunc, rng.randint(1, 6)),
                  (rng.randint(-4, 4), rng.randint(-4, 4)))
                 for _ in range(rng.choice([1, 2, 3, 5]))]
        den = rng.choice([1, 2, 15, 77])
        _assert_weighted_sum(parts, den)
        keys = [unpack(dim, key) for s, _ in parts for key in s.num]
        shapes |= {("dim", dim), ("single", len(parts) == 1), ("den", den > 1),
                   ("odd k2", any(k2 % 2 for k2, _, _ in keys)),
                   ("negative k2", any(k2 < 0 for k2, _, _ in keys)),
                   ("zero", any(c == (0, 0) for _, c in parts)),
                   ("negative", any(min(c) < 0 for _, c in parts)),
                   ("mixed dens", len({s.den for s, _ in parts}) > 1)}
    assert {("dim", d) for d in range(4)} | {
        (name, True) for name in ("single", "den", "odd k2", "negative k2", "zero",
                                  "negative", "mixed dens")} <= shapes


def test_linear_combination_cancels_to_zero_and_keeps_single_parts():
    rng = random.Random(3)
    for dim in range(4):
        f = coprime_series(rng, dim, 6, 5)
        g = coprime_series(rng, dim, 6, 4)
        third = f.scale(Fraction(1, 3))
        for parts, den in [([(f, (2, -1)), (f, (-2, 1))], 1),
                           ([(f, (1, 0)), (g, (5, 3)), (third, (-3, 0)), (g, (-5, -3))], 7),
                           ([(f, (0, 0))], 1)]:
            got = _assert_weighted_sum(parts, den)
            assert not got and got == WickSeries.zero(dim, 6)
        for pair, den in [((1, 0), 1), ((-3, 2), 1), ((6, 0), 4), ((0, -1), 9)]:
            _assert_weighted_sum([(f, pair)], den)
        assert linear_combination([(f, (1, 0))]) == f
