import random
from fractions import Fraction

import pytest

from wickjet.coefficients import ComplexRational
from wickjet.errors import PreconditionError
from wickjet.series import WickSeries, total_degree
from wickjet.wick import (
    anti_fock_act,
    classical_exp,
    fock_act,
    star_exp,
    star_inverse,
    star_log,
    wick_star,
)

from support import (
    oracle_fock_act,
    oracle_star,
    random_holomorphic,
    random_monomial,
    random_series,
    random_weight_body,
)


def mono(dim, trunc, coeff, k2, I, J):
    return WickSeries.monomial(dim, trunc, coeff, k2, I, J)


# ---------------------------------------------------------------------------
# frozen values


def test_star_basic_contractions():
    y = mono(1, 4, 1, 0, (1,), (0,))
    yb = mono(1, 4, 1, 0, (0,), (1,))
    p = wick_star(y, yb)
    assert p == WickSeries(1, 4, {(0, (1,), (1,)): 1, (2, (0,), (0,)): -1})
    # reversed order: the contraction pairs d_y(left) with d_yb(right)
    assert wick_star(yb, y) == WickSeries(1, 4, {(0, (1,), (1,)): 1})


def test_star_double_contraction():
    y2 = mono(1, 6, 1, 0, (2,), (0,))
    yb2 = mono(1, 6, 1, 0, (0,), (2,))
    p = wick_star(y2, yb2)
    expected = WickSeries(1, 6, {
        (0, (2,), (2,)): 1,
        (2, (1,), (1,)): -4,
        (4, (0,), (0,)): 2,
    })
    assert p == expected


def test_star_unit_and_scalars():
    rng = random.Random(3)
    one = WickSeries.unit(2, 6)
    for _ in range(10):
        f = random_series(rng, 2, 6)
        assert wick_star(one, f) == f
        assert wick_star(f, one) == f


def test_star_matches_symbolic_oracle():
    rng = random.Random(17)
    for case in range(24):
        dim = 1 if case % 3 else 2
        trunc = rng.choice([4, 5, 6])
        f = random_series(rng, dim, trunc, n_terms=4)
        g = random_series(rng, dim, trunc, n_terms=4)
        assert wick_star(f, g) == oracle_star(f, g), f"case {case}"


def test_star_hbar_shift_equivariance():
    # covers inverse powers of h and sqrt(h) bookkeeping beyond the oracle
    rng = random.Random(29)
    for _ in range(20):
        f = random_series(rng, 1, 6, n_terms=3)
        g = random_series(rng, 1, 6, n_terms=3)
        base = wick_star(f, g)
        a, b = rng.choice([(1, 0), (2, 3), (0, 1), (3, 1)])
        assert wick_star(f.hbar_shift(a), g.hbar_shift(b)) == base.hbar_shift(a + b)
        assert wick_star(f.hbar_shift(-2), g).hbar_shift(2) == base


def test_star_graded_on_monomials():
    rng = random.Random(41)
    for _ in range(500):
        dim = rng.randint(1, 3)
        trunc = rng.randint(2, 10)
        f = random_monomial(rng, dim, trunc)
        g = random_monomial(rng, dim, trunc)
        if not (f and g):
            continue
        df = f.min_degree()
        dg = g.min_degree()
        p = wick_star(f, g)
        if df + dg > trunc:
            assert not p
        else:
            assert p, (f.terms, g.terms)
            assert all(total_degree(*key) == df + dg for key in p.terms)


def test_star_associative_random():
    rng = random.Random(59)
    for _ in range(60):
        dim = rng.randint(1, 2)
        trunc = rng.choice([5, 6, 7])
        f = random_series(rng, dim, trunc, n_terms=3)
        g = random_series(rng, dim, trunc, n_terms=3)
        k = random_series(rng, dim, trunc, n_terms=3)
        assert wick_star(wick_star(f, g), k) == wick_star(f, wick_star(g, k))


def test_star_bilinear():
    rng = random.Random(71)
    for _ in range(20):
        f = random_series(rng, 2, 6)
        g = random_series(rng, 2, 6)
        k = random_series(rng, 2, 6)
        c = ComplexRational(Fraction(2, 3), Fraction(-1, 2))
        assert wick_star(f + g, k) == wick_star(f, k) + wick_star(g, k)
        assert wick_star(f.scale(c), g) == wick_star(f, g).scale(c)


def test_conjugation_is_star_antihomomorphism():
    rng = random.Random(83)
    for _ in range(60):
        dim = rng.randint(1, 2)
        f = random_series(rng, dim, 6)
        g = random_series(rng, dim, 6)
        assert wick_star(f, g).conjugate() == wick_star(g.conjugate(), f.conjugate())


# ---------------------------------------------------------------------------
# module actions


def test_fock_act_basic():
    one = WickSeries.unit(1, 4)
    y = mono(1, 4, 1, 0, (1,), (0,))
    yb = mono(1, 4, 1, 0, (0,), (1,))
    yyb = mono(1, 4, 1, 0, (1,), (1,))
    # yb acts as h d/dy: on 1 it vanishes, on y it gives h
    assert not fock_act(yb, one)
    assert fock_act(yb, y) == mono(1, 4, 1, 2, (0,), (0,))
    # multiply first, then differentiate: (y yb) . 1 = h d/dy (y) = h
    assert fock_act(yyb, one) == mono(1, 4, 1, 2, (0,), (0,))


def test_fock_act_is_left_module_action():
    rng = random.Random(97)
    for _ in range(60):
        dim = rng.randint(1, 2)
        trunc = rng.choice([5, 6])
        f = random_series(rng, dim, trunc, n_terms=3)
        g = random_series(rng, dim, trunc, n_terms=3)
        s = random_holomorphic(rng, dim, trunc)
        lhs = fock_act(wick_star(f, g), s)
        rhs = fock_act(f, fock_act(g, s))
        assert lhs == rhs


def test_fock_act_matches_symbolic_oracle():
    rng = random.Random(101)
    for _ in range(15):
        dim = rng.randint(1, 2)
        f = random_series(rng, dim, 6, n_terms=4)
        s = random_holomorphic(rng, dim, 6)
        assert fock_act(f, s) == oracle_fock_act(f, s)


def test_fock_act_rejects_nonholomorphic_target():
    f = WickSeries.unit(1, 4)
    bad = mono(1, 4, 1, 0, (0,), (1,))
    with pytest.raises(PreconditionError):
        fock_act(f, bad)


def test_anti_fock_act_basic():
    one = WickSeries.unit(1, 4)
    y = mono(1, 4, 1, 0, (1,), (0,))
    yb = mono(1, 4, 1, 0, (0,), (1,))
    # y acts as -h d/dyb: on 1 it vanishes, on yb it gives -h
    assert not anti_fock_act(y, one)
    assert anti_fock_act(y, yb) == mono(1, 4, -1, 2, (0,), (0,))
    # differentiate first, then multiply: (y yb) . 1 = yb * (-h d/dyb 1) = 0
    yyb = mono(1, 4, 1, 0, (1,), (1,))
    assert not anti_fock_act(yyb, one)


def test_cancelling_contributions_leave_no_zero_terms():
    one = WickSeries.unit(1, 4)
    y = mono(1, 4, 1, 0, (1,), (0,))
    yb = mono(1, 4, 1, 0, (0,), (1,))
    h = mono(1, 4, 1, 2, (0,), (0,))
    # y * yb = y yb - h and yb * y = y yb: the y yb terms cancel
    star = wick_star(y + yb, y - yb)
    assert star.terms == {(0, (2,), (0,)): 1, (2, (0,), (0,)): 1,
                          (0, (0,), (2,)): -1}
    # (y yb - h) . (1 + y) = (h + 2 h y) - (h + h y)
    fock = fock_act(y * yb - h, one + y)
    assert fock.terms == {(2, (1,), (0,)): 1}
    # (y yb + h) . (1 + yb) = -h yb + (h + h yb)
    anti = anti_fock_act(y * yb + h, one + yb)
    assert anti.terms == {(2, (0,), (0,)): 1}
    for series in (star, fock, anti):
        assert all(series.terms.values())


def test_anti_fock_act_is_left_module_action():
    rng = random.Random(103)
    for _ in range(60):
        dim = rng.randint(1, 2)
        trunc = rng.choice([5, 6])
        f = random_series(rng, dim, trunc, n_terms=3)
        g = random_series(rng, dim, trunc, n_terms=3)
        s = random_holomorphic(rng, dim, trunc).conjugate()
        assert anti_fock_act(wick_star(f, g), s) == anti_fock_act(f, anti_fock_act(g, s))


# ---------------------------------------------------------------------------
# exponentials, logarithms, inverses


def test_classical_exp_cubic_example():
    h = mono(1, 3, 1, 0, (2,), (1,))  # single degree-3 generator
    u = classical_exp(h, divide_by_hbar=True).retruncate(2)
    expected = WickSeries(1, 2, {
        (0, (0,), (0,)): 1,
        (-2, (2,), (1,)): 1,
        (-4, (4,), (2,)): Fraction(1, 2),
    })
    assert u == expected


def test_classical_exp_quartic_keeps_degree_four_term():
    # deg(h^2 / hbar^2) = 2*(-2) + 8 = 4, inside trunc 4
    c = Fraction(1, 3)
    h = mono(1, 4, c, 0, (2,), (2,))
    u = classical_exp(h, divide_by_hbar=True)
    expected = WickSeries(1, 4, {
        (0, (0,), (0,)): 1,
        (-2, (2,), (2,)): c,
        (-4, (4,), (4,)): c * c / 2,
    })
    assert u == expected


def test_classical_exp_degree_guard():
    with pytest.raises(PreconditionError):
        classical_exp(mono(1, 4, 1, 0, (1,), (1,)), divide_by_hbar=True)
    with pytest.raises(PreconditionError):
        classical_exp(WickSeries.unit(1, 4))


def test_star_log_of_central_series():
    u = WickSeries(1, 6, {(0, (0,), (0,)): 1, (2, (0,), (0,)): 1})  # 1 + h
    log = star_log(u)
    assert log == WickSeries(1, 6, {
        (2, (0,), (0,)): 1,
        (4, (0,), (0,)): Fraction(-1, 2),
        (6, (0,), (0,)): Fraction(1, 3),
    })


def test_star_exp_log_round_trips():
    rng = random.Random(107)
    for _ in range(25):
        dim = rng.randint(1, 2)
        trunc = rng.choice([5, 6])
        x = random_series(rng, dim, trunc, n_terms=3, min_degree=1)
        u = star_exp(x)
        assert star_log(u) == x
        assert star_exp(star_log(u)) == u


def test_classical_exp_star_machinery_round_trip():
    rng = random.Random(109)
    for _ in range(15):
        trunc = rng.choice([5, 6])
        h = random_weight_body(rng, 1, trunc, n_terms=3, max_degree=5)
        if not h:
            continue
        u = classical_exp(h, divide_by_hbar=True)
        assert star_exp(star_log(u)) == u


def test_star_inverse_two_routes():
    rng = random.Random(113)
    one1 = WickSeries.unit(1, 6)
    one2 = WickSeries.unit(2, 6)
    for _ in range(15):
        dim = rng.randint(1, 2)
        h = random_weight_body(rng, dim, 6, n_terms=3, max_degree=5)
        if not h:
            continue
        u = classical_exp(h, divide_by_hbar=True)
        v = star_inverse(u)
        one = one1 if dim == 1 else one2
        assert wick_star(u, v) == one
        assert wick_star(v, u) == one
        # independent route through the star-logarithm
        assert v == star_exp(-star_log(u))


def test_star_log_preconditions():
    with pytest.raises(PreconditionError):
        star_log(WickSeries.zero(1, 4))
    with pytest.raises(PreconditionError):
        star_log(WickSeries.monomial(1, 4, 2))  # constant 2, not 1


def test_fock_closure_for_admissible_exponentials():
    # no purely holomorphic terms in h => e^(h/hbar) preserves plain series
    rng = random.Random(127)
    for _ in range(40):
        dim = rng.randint(1, 2)
        trunc = rng.choice([5, 6])
        terms = {}
        for _k in range(3):
            f = random_series(rng, dim, trunc, n_terms=1, min_degree=3)
            for (k2, I, J), c in f.terms.items():
                if any(J):
                    terms[(k2, I, J)] = c
        h = WickSeries(dim, trunc, terms)
        if not h:
            continue
        u = classical_exp(h, divide_by_hbar=True)
        s = random_holomorphic(rng, dim, trunc)
        out = fock_act(u, s)
        assert all(k2 >= 0 for (k2, _, _) in out.terms), (h.terms, out.terms)
