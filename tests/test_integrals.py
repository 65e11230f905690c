import random
from fractions import Fraction

import mpmath as mp
import pytest

from wickjet import integrals
from wickjet.coefficients import ComplexRational
from wickjet.errors import PreconditionError, TruncationMismatch
from wickjet.integrals import (
    WeightSeries,
    formal_integral,
    inner_product,
    toeplitz_symbol,
)
from wickjet.jets import fubini_study_potential, weight_series
from wickjet.series import WickSeries, mi_factorial
from wickjet.wick import classical_exp, fock_act, star_inverse, wick_star

from support import (
    gaussian_moment,
    hseries,
    iter_multi_indices,
    random_holomorphic,
    random_series,
    random_weight_body,
    reference_formal_integral,
)


def ymono(trunc, p, dim=1):
    index = (p,) + (0,) * (dim - 1)
    return WickSeries.monomial(dim, trunc, 1, 0, index, (0,) * dim)


# ---------------------------------------------------------------------------
# weights


def test_weight_flags():
    body = WickSeries(1, 8, {
        (0, (2,), (2,)): Fraction(1, 4),
        (2, (1,), (1,)): -2,
    })
    w = WeightSeries(body)
    assert w.is_real and w.toeplitz_admissible and w.refined
    lopsided = WeightSeries(WickSeries(1, 8, {(0, (2,), (1,)): 1}))
    assert not lopsided.is_real
    assert lopsided.toeplitz_admissible
    assert not lopsided.refined
    holo = WeightSeries(WickSeries(1, 8, {(0, (3,), (0,)): 1}))
    assert not holo.toeplitz_admissible
    assert WeightSeries(WickSeries.zero(2, 6)).toeplitz_admissible


def test_weight_degree_guard():
    with pytest.raises(PreconditionError):
        WeightSeries(WickSeries(1, 8, {(0, (1,), (1,)): 1}))


def test_weight_exponentials_are_built_once():
    """Each sign of e^(+-w/h) is built on its first call and then reused."""
    rng = random.Random(19)
    for dim in (1, 2):
        w = WeightSeries(random_weight_body(rng, dim, 7))
        for sign in (1, -1):
            exp = w.exponential(sign)
            assert w.exponential(sign) is exp
            assert exp == classical_exp(w.body.scale(sign).hbar_shift(-2))
        assert w.exponential() is w.exponential(1)
        assert w.exponential(1) != w.exponential(-1)


# ---------------------------------------------------------------------------
# moments and integrals


def test_gaussian_moment_values():
    m = gaussian_moment((2,), (2,), trunc=8)
    assert m == hseries(8, {4: 2})
    assert not gaussian_moment((2,), (1,), trunc=8)
    shifted = gaussian_moment((1, 1), (1, 1), 2, trunc=10)
    assert shifted == hseries(10, {2 + 4: 1})
    assert gaussian_moment((3,), (3,), trunc=12).coefficient(6) == 6


def test_gaussian_moment_matches_quadrature():
    # radial check of the reference normalization at h = 1:
    # moment(y^p yb^p) = p! = integral of t^p e^(-t) dt
    for p in range(5):
        exact = gaussian_moment((p,), (p,), trunc=2 * p).coefficient(2 * p)
        numeric = mp.quad(lambda t, p=p: t**p * mp.e**(-t), [0, mp.inf])
        assert abs(float(exact.re) - float(numeric)) < 1e-12


def test_formal_integral_zero_weight_is_plain_moments():
    rng = random.Random(5)
    w = WeightSeries(WickSeries.zero(2, 8))
    for _ in range(10):
        f = random_series(rng, 2, 8)
        expected = hseries(8)
        for (k2, I, J), c in f.terms.items():
            expected = expected + gaussian_moment(I, J, k2, trunc=8) * c
        assert formal_integral(f, w) == expected


def test_formal_integral_with_inverse_hbar_powers():
    """Integrating h^-1 f shifts the series down one h-power, within the window."""
    rng = random.Random(23)
    for _ in range(20):
        dim = rng.randint(1, 2)
        trunc = rng.randint(5, 8)
        w = WeightSeries(random_weight_body(rng, dim, trunc))
        f = random_series(rng, dim, trunc)
        shifted = formal_integral(f.hbar_shift(-2), w)
        assert shifted.retruncate(trunc - 2) == \
            formal_integral(f, w).hbar_shift(-2).retruncate(trunc - 2)


def _weights(rng):
    """Random and Fubini-Study weights at dims 1 and 2."""
    for dim in (1, 2):
        for trunc in (5, 8):
            yield WeightSeries(random_weight_body(rng, dim, trunc))
            yield weight_series(fubini_study_potential(dim, trunc), trunc)


def test_formal_integral_matches_the_power_route_on_plain_h():
    rng = random.Random(31)
    for w in _weights(rng):
        for _ in range(3):
            f = random_series(rng, w.dim, w.trunc)
            assert formal_integral(f, w) == reference_formal_integral(f, w)


def test_formal_integral_matches_the_power_route_within_the_laurent_window():
    """For h of least degree -a the two routes agree through trunc - a."""
    rng = random.Random(37)
    for w in _weights(rng):
        f = random_series(rng, w.dim, w.trunc, min_degree=rng.randint(0, 2))
        for shift in (-1, -2, -4, -6):
            h = f.hbar_shift(shift)
            window = w.trunc + min(0, h.min_degree())
            if window >= 0:
                assert formal_integral(h, w).retruncate(window) == \
                    reference_formal_integral(h, w).retruncate(window)


def test_formal_integral_reads_the_cached_exponential(monkeypatch):
    """Integrals and symbol solves build e^(w/h) once and never e^(-w/h);
    once it is built, an integral makes no series product and no exponential."""
    rng = random.Random(41)
    w = WeightSeries(random_weight_body(rng, 2, 7))
    f = random_series(rng, 2, 7)
    expected = reference_formal_integral(f, w)
    exponents = []

    def recorded(x):
        exponents.append(x)
        return classical_exp(x)
    monkeypatch.setattr(integrals, "classical_exp", recorded)
    toeplitz_symbol(random_series(rng, 2, 7, min_degree=1), w)
    formal_integral(f, w)
    assert exponents == [w.body.hbar_shift(-2)]
    calls = []
    for owner, name in [(WickSeries, "__mul__"), (integrals, "classical_exp")]:
        def counted(*args, _original=getattr(owner, name), _name=name):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(owner, name, counted)
    assert formal_integral(f, w) == expected
    assert calls == []


def test_inner_product_quartic_weight_example():
    c = Fraction(1, 5)
    w = WeightSeries(WickSeries.monomial(1, 6, c, 0, (2,), (2,)))
    y = ymono(6, 1)
    series = inner_product(y, y, w)
    assert series.coefficient(2) == 1
    assert series.coefficient(4) == 6 * c
    assert series.coefficient(6) == 60 * c * c


def test_inner_product_matches_laplace_quadrature():
    # same data as above with c < 0 so the honest integral converges:
    # (1/h) int_0^inf t e^((-t + c t^2)/h) dt  ~  h + 6c h^2 + 60c^2 h^3
    mp.mp.dps = 30
    c = -0.25
    series = lambda h: h + 6 * c * h**2 + 60 * c * c * h**3
    remainders = []
    for h in (0.1, 0.05):
        integral = mp.quad(lambda t: t * mp.e**((-t + c * t * t) / h), [0, mp.inf]) / h
        remainders.append(abs(float(integral) - series(h)))
    ratio = remainders[0] / remainders[1]
    assert 6 < ratio < 40  # fourth-order remainder halves ~16x per h halving


def test_formal_integral_filtration():
    rng = random.Random(11)
    for _ in range(20):
        dim = rng.randint(1, 2)
        w = WeightSeries(random_weight_body(rng, dim, 8))
        f = random_series(rng, dim, 8, min_degree=rng.randint(0, 3))
        out = formal_integral(f, w)
        if out and f:
            assert out.min_degree() >= f.min_degree()


def test_inner_product_hermitian_and_sesquilinear():
    rng = random.Random(19)
    for _ in range(30):
        dim = rng.randint(1, 2)
        w = WeightSeries(random_weight_body(rng, dim, 7))
        assert w.is_real
        f = random_series(rng, dim, 7)
        g = random_series(rng, dim, 7)
        k = random_series(rng, dim, 7)
        assert inner_product(f, g, w) == inner_product(g, f, w).conjugate()
        assert inner_product(f + k, g, w) == inner_product(f, g, w) + inner_product(k, g, w)
        c = ComplexRational(Fraction(1, 2), Fraction(3, 4))
        assert inner_product(f, g.scale(c), w) == inner_product(f, g, w) * c.conjugate()


def test_orthonormal_mod_h():
    # <y^I, y^J> normalized by sqrt(I! J! h^(|I|+|J|)) is delta_IJ + degree>=1;
    # the rational content: after shifting k2 by -(|I|+|J|), the only k2 <= 0
    # coefficient is I! at k2 = 0 when I == J.
    rng = random.Random(23)
    for dim, max_abs in ((1, 4), (2, 2)):
        for wcase in range(3):
            w = WeightSeries(random_weight_body(rng, dim, 10, n_terms=3))
            for I in iter_multi_indices(dim, max_abs):
                for J in iter_multi_indices(dim, max_abs):
                    yI = WickSeries.monomial(dim, 10, 1, 0, I, (0,) * dim)
                    yJ = WickSeries.monomial(dim, 10, 1, 0, J, (0,) * dim)
                    series = inner_product(yI, yJ, w).hbar_shift(-(sum(I) + sum(J)))
                    for (k2, _, _), coeff in series.terms.items():
                        if k2 <= 0:
                            assert I == J and k2 == 0 and coeff == mi_factorial(I)


def test_leading_term_bounds():
    rng = random.Random(31)
    for case in range(6):
        dim = 1 if case % 2 else 2
        refined = case >= 2
        body = random_weight_body(rng, dim, 10, n_terms=3, refined=refined)
        w = WeightSeries(body)
        if refined:
            assert w.refined
        max_abs = 4 if dim == 1 else 2
        for I in iter_multi_indices(dim, max_abs):
            for J in iter_multi_indices(dim, max_abs):
                if I == J:
                    continue
                yI = WickSeries.monomial(dim, 10, 1, 0, I, (0,) * dim)
                yJ = WickSeries.monomial(dim, 10, 1, 0, J, (0,) * dim)
                series = inner_product(yI, yJ, w)
                floor = 2 * max(sum(I), sum(J))
                for k2, _, _ in series.terms:
                    if refined:
                        assert k2 > floor, (I, J, k2, body.terms)
                    else:
                        assert k2 >= floor, (I, J, k2, body.terms)


# ---------------------------------------------------------------------------
# Toeplitz symbols


def test_symbol_of_holomorphic_is_itself():
    rng = random.Random(37)
    for _ in range(10):
        dim = rng.randint(1, 2)
        w = WeightSeries(random_weight_body(rng, dim, 8))
        f = random_holomorphic(rng, dim, 8)
        assert toeplitz_symbol(f, w) == f


def test_symbol_defining_identity_and_leading_term():
    rng = random.Random(43)
    for _ in range(12):
        dim = rng.randint(1, 2)
        w = WeightSeries(random_weight_body(rng, dim, 8))
        f = random_series(rng, dim, 8, n_terms=3)
        if not f:
            continue
        symbol = toeplitz_symbol(f, w)
        exp_pos = classical_exp(w.body.hbar_shift(-2))
        assert wick_star(exp_pos, symbol) == f * exp_pos
        correction = symbol - f
        if correction:
            assert correction.min_degree() > f.min_degree()
        assert symbol.is_plain()


def test_symbol_route_equivalence():
    # independent route: O_f = inverse(e^(w/h)) star (f e^(w/h))
    rng = random.Random(47)
    for _ in range(10):
        dim = rng.randint(1, 2)
        w = WeightSeries(random_weight_body(rng, dim, 7))
        f = random_series(rng, dim, 7, n_terms=3)
        exp_pos = classical_exp(w.body.hbar_shift(-2))
        other = wick_star(star_inverse(exp_pos), f * exp_pos)
        assert toeplitz_symbol(f, w) == other


def _count_products(monkeypatch) -> list:
    """Record every wick_star call made from within ``integrals``."""
    calls = []

    def counted(f, g):
        calls.append((f, g))
        return wick_star(f, g)
    monkeypatch.setattr(integrals, "wick_star", counted)
    return calls


def _fubini_study_weights():
    for dim in (1, 2):
        for trunc in (10, 11, 12):
            yield weight_series(fubini_study_potential(dim, trunc), trunc)


def test_leading_slice_solve_matches_the_inverse_route(monkeypatch):
    """Plain and h-Laurent inputs (odd k2, positive least degree) on
    Fubini-Study weights: the solve equals star_inverse(e^(w/h)) * (f e^(w/h))
    and takes at most trunc + 1 correction passes."""
    rng = random.Random(59)
    products = _count_products(monkeypatch)
    for w in _fubini_study_weights():
        exp_pos = w.exponential()
        inverse = star_inverse(exp_pos)
        one = (1,) + (0,) * (w.dim - 1)
        root = WickSeries.monomial(w.dim, w.trunc, Fraction(2, 3), -1, one, one)
        laurent = [random_series(rng, w.dim, w.trunc, n_terms=3, min_degree=2)
                   .hbar_shift(-1) + root,
                   random_series(rng, w.dim, w.trunc, n_terms=3, min_degree=4,
                                 even_k2_only=False).hbar_shift(-3) + root]
        for f in [random_series(rng, w.dim, w.trunc, n_terms=3)] + laurent:
            products.clear()
            symbol = toeplitz_symbol(f, w)
            assert symbol == wick_star(inverse, f * exp_pos)
            assert len(products) - 1 <= w.trunc + 1
        assert all(f.min_degree() == 1 and not f.is_plain() for f in laurent)


def test_symbols_are_remembered_per_weight(monkeypatch):
    """A repeated input is not solved again, and never across weights."""
    rng = random.Random(67)
    body = random_weight_body(rng, 2, 7)
    w, other = WeightSeries(body), WeightSeries(body.scale(2))
    f = random_series(rng, 2, 7, n_terms=3, min_degree=1)
    symbol = toeplitz_symbol(f, w)
    products = _count_products(monkeypatch)
    assert toeplitz_symbol(WickSeries(2, 7, f.terms), w) is symbol
    assert products == []
    assert toeplitz_symbol(f, other) != symbol
    assert products
    assert toeplitz_symbol(f, WeightSeries(body)) == symbol


def test_symbol_quartic_weight_frozen_example():
    c = Fraction(1, 3)
    w = WeightSeries(WickSeries.monomial(1, 8, c, 0, (2,), (2,)))
    yb = WickSeries.monomial(1, 8, 1, 0, (0,), (1,))
    symbol = toeplitz_symbol(yb, w)
    assert symbol.coefficient(0, (0,), (1,)) == 1
    assert symbol.coefficient(0, (1,), (2,)) == 2 * c
    rest = symbol - WickSeries(1, 8, {(0, (0,), (1,)): 1, (0, (1,), (2,)): 2 * c})
    assert rest.min_degree() is None or rest.min_degree() >= 5


def test_symbol_requires_admissible_weight():
    holo_weight = WeightSeries(WickSeries(1, 6, {(0, (3,), (0,)): 1}))
    f = ymono(6, 1)
    with pytest.raises(PreconditionError):
        toeplitz_symbol(f, holo_weight)


def test_toeplitz_apply_charge_vanishing():
    c = Fraction(2, 7)
    w = WeightSeries(WickSeries.monomial(1, 8, c, 0, (2,), (2,)))
    yb = WickSeries.monomial(1, 8, 1, 0, (0,), (1,))
    assert not fock_act(toeplitz_symbol(yb, w), WickSeries.unit(1, 8))


def test_adjoint_for_real_weights():
    rng = random.Random(53)
    for _ in range(10):
        dim = rng.randint(1, 2)
        w = WeightSeries(random_weight_body(rng, dim, 7))
        f = random_series(rng, dim, 7, n_terms=3)
        s1 = random_holomorphic(rng, dim, 7)
        s2 = random_holomorphic(rng, dim, 7)
        lhs = inner_product(fock_act(toeplitz_symbol(f, w), s1), s2, w)
        rhs = inner_product(s1, fock_act(toeplitz_symbol(f.conjugate(), w), s2), w)
        assert lhs == rhs


def test_projection_frozen_examples():
    """Projection onto the holomorphic part: the Toeplitz operator on 1."""
    w0 = WeightSeries(WickSeries.zero(1, 6))
    unit = WickSeries.unit(1, 6)
    yyb = WickSeries.monomial(1, 6, 1, 0, (1,), (1,))
    assert fock_act(toeplitz_symbol(yyb, w0), unit) == \
        WickSeries.monomial(1, 6, 1, 2, (0,), (0,))
    yb = WickSeries.monomial(1, 6, 1, 0, (0,), (1,))
    assert not fock_act(toeplitz_symbol(yb, w0), unit)


def test_projection_defining_property():
    rng = random.Random(61)
    for _ in range(8):
        dim = rng.randint(1, 2)
        w = WeightSeries(random_weight_body(rng, dim, 8))
        f = random_series(rng, dim, 8, n_terms=3)
        p = fock_act(toeplitz_symbol(f, w), WickSeries.unit(dim, 8))
        assert p.is_holomorphic()
        for K in iter_multi_indices(dim, 3):
            yK = WickSeries.monomial(dim, 8, 1, 0, K, (0,) * dim)
            assert inner_product(p, yK, w) == inner_product(f, yK, w), K


def test_trunc_mismatch_rejected():
    w = WeightSeries(WickSeries.zero(1, 6))
    with pytest.raises(TruncationMismatch):
        formal_integral(WickSeries.unit(1, 5), w)
