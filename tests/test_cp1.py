import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from support import dense_cp1_toeplitz, dense_matmul, hermitized, hseries
from wickjet import suites
from wickjet.coefficients import ComplexRational
from wickjet.cp1 import (
    FactorialRational,
    RationalSymbol,
    ToeplitzMatrix,
    _fit,
    composition_residual,
    cp1_gram,
    cp1_inner,
    cp1_toeplitz,
    fs_ratio_symbol,
    mobius_pullback,
    peak_section,
    symbol_jets,
)
from wickjet.errors import PreconditionError
from wickjet.integrals import inner_product, toeplitz_symbol
from wickjet.jets import fubini_study_potential, weight_series
from wickjet.series import WickSeries
from wickjet.wick import fock_act


def hermitian_test_symbol():
    """Real symbol with off-diagonal angular terms and complex coefficients."""
    return RationalSymbol({
        (1, 1): 2,
        (1, 0): ComplexRational(1, 1),
        (0, 1): ComplexRational(1, -1),
    }, 1)


# ---------------------------------------------------------------------------
# exact rational functions of the tensor power


def test_factorial_rational_cancellation_and_arithmetic():
    x = FactorialRational(Fraction(3, 2), (0, 1), (1, 2))
    assert x.num_shifts == (0,) and x.den_shifts == (2,)
    y = FactorialRational(2, (2,), ())
    assert (x * y).num_shifts == (0,) and (x * y).den_shifts == ()
    assert (x * y).scalar == 3
    quot = x / y
    assert quot.den_shifts == (2, 2) and quot.scalar == Fraction(3, 4)
    zero = FactorialRational(0, (5,), (7,))
    assert not zero and zero.num_shifts == () and zero.den_shifts == ()
    assert x * Fraction(2, 3) == FactorialRational(1, (0,), (2,))


def test_factorial_rational_evaluate():
    x = cp1_inner(2, 2)  # 2m / ((m-1) m (m+1))
    assert x.evaluate(5) == Fraction(1, 12)
    assert cp1_inner(0, 0).evaluate(9) == Fraction(9, 10)
    with pytest.raises(PreconditionError):
        cp1_inner(3, 3).evaluate(2)  # pole: no cubic sections at m = 2


def test_expand_at_infinity_frozen_series():
    assert cp1_inner(0, 0).expand_at_infinity(4) == \
        hseries(8, {0: 1, 2: -1, 4: 1, 6: -1, 8: 1})
    assert cp1_inner(1, 1).expand_at_infinity(4) == \
        hseries(8, {2: 1, 4: -1, 6: 1, 8: -1})
    # 2/(m^2 - 1) has only even orders
    assert cp1_inner(2, 2).expand_at_infinity(4) == \
        hseries(8, {4: 2, 8: 2})
    constant = FactorialRational(Fraction(5, 7))
    assert constant.expand_at_infinity(3) == \
        hseries(6, {0: Fraction(5, 7)})
    # a net positive power of m sits at a negative h-power
    pure_m = FactorialRational(1, (0,), ())
    assert pure_m.expand_at_infinity(2) == hseries(4, {-2: 1})


def test_expansion_truncation_against_evaluation():
    # partial sums converge to the exact value at rate h^(order+1)
    x = cp1_inner(1, 1)
    series = x.expand_at_infinity(5)
    m = 40
    partial = sum((series.coefficient(2 * k).re / m ** k for k in range(6)),
                  Fraction(0))
    exact = x.evaluate(m).re
    assert abs(exact - partial) < Fraction(2, m ** 6)


# ---------------------------------------------------------------------------
# inner products against quadrature


def test_cp1_inner_off_diagonal_vanishes():
    assert not cp1_inner(0, 1)
    assert not cp1_inner(3, 1)
    with pytest.raises(PreconditionError):
        cp1_inner(-1, 0)


def test_cp1_inner_matches_quadrature():
    mp.mp.dps = 30
    for m in (1, 2, 5, 9, 20):
        for p in range(0, min(3, m) + 1):
            exact = cp1_inner(p, p).evaluate(m).re
            quad = m * mp.quad(lambda t: t ** p * (1 + t) ** (-m - 2),
                               [0, mp.inf])
            assert abs(float(exact) - float(quad)) <= 1e-12 * float(quad)


def test_cp1_gram_numeric_edges():
    assert cp1_gram(4, 2) == Fraction(4 * 2 * 2, 120)
    assert cp1_gram(3, 5) == 0  # beyond the section space
    with pytest.raises(PreconditionError):
        cp1_gram(0, 0)


# ---------------------------------------------------------------------------
# peak sections


def test_peak_section_vectors():
    vec = peak_section(5, 2)
    assert vec == (0, 0, 1, 0, 0, 0)
    assert peak_section(3, 0) == (1, 0, 0, 0)
    with pytest.raises(PreconditionError):
        peak_section(3, 4)
    with pytest.raises(PreconditionError):
        peak_section(3, -1)


def test_peak_section_norm_is_the_gram_diagonal():
    for m, p in ((6, 0), (6, 3), (12, 5)):
        norm = cp1_gram(m, p)
        assert norm == cp1_inner(p, p).evaluate(m).re
        # leading behavior p!/m^p
        lead = cp1_inner(p, p).expand_at_infinity(p)
        assert lead.coefficient(2 * p) == math.factorial(p)


# ---------------------------------------------------------------------------
# Toeplitz matrices


def test_toeplitz_constant_symbol_is_identity():
    T = cp1_toeplitz(6, RationalSymbol.constant(1))
    assert T == ToeplitzMatrix(6, {0: (1,) * 7})
    assert T.entry(3, 3) == 1 and not T.entry(3, 2)


def test_toeplitz_fs_ratio_diagonal():
    m = 7
    T = cp1_toeplitz(m, fs_ratio_symbol())
    for p in range(m + 1):
        for q in range(m + 1):
            expected = Fraction(p + 1, m + 2) if p == q else 0
            assert T.entries[q][p] == expected
    closed = FactorialRational(1, (), (2,))  # 1/(m+2)
    assert T.entries[0][0] == closed.evaluate(m)


def test_toeplitz_pairing_is_hermitian_for_real_symbols():
    m = 6
    f = hermitian_test_symbol()
    assert f.is_real()
    T = cp1_toeplitz(m, f)
    for p in range(m + 1):
        for q in range(m + 1):
            assert T.pairing(p, q) == T.pairing(q, p).conjugate()


def test_toeplitz_apply_and_compose():
    m = 5
    T = cp1_toeplitz(m, fs_ratio_symbol())
    # the image of the peak section z^2 is column 2 of the matrix
    image = [row[2] for row in T.entries]
    assert image[2] == Fraction(3, m + 2)
    assert all(not image[i] for i in range(m + 1) if i != 2)
    for p in range(m + 1):
        assert T.composition_entry(T, p, p) == Fraction(p + 1, m + 2) ** 2
    assert T.composition_entry(T, 0, 0) * cp1_gram(m, 0) == \
        Fraction(m, (m + 2) ** 2 * (m + 1))


def test_toeplitz_norm_bounded_by_symbol_sup():
    m = 12
    for f in (fs_ratio_symbol(), hermitian_test_symbol()):
        T = cp1_toeplitz(m, f)
        eigs = np.linalg.eigvalsh(hermitized(T))
        sup = 0.0
        for r in np.linspace(0.0, 60.0, 241):
            for theta in np.linspace(0.0, 2 * np.pi, 32, endpoint=False):
                val = f.evaluate(complex(r * np.cos(theta), r * np.sin(theta)))
                assert abs(val.imag) < 1e-9  # real symbols stay real
                sup = max(sup, abs(val.real))
        assert np.max(np.abs(eigs)) <= sup + 1e-9


def test_toeplitz_matrix_validation():
    with pytest.raises(PreconditionError):
        ToeplitzMatrix(0, {0: (1,)})
    with pytest.raises(PreconditionError):
        ToeplitzMatrix(3, {0: (1, 1, 1)})  # band shorter than m + 1
    with pytest.raises(PreconditionError):
        ToeplitzMatrix(3, {4: (0, 0, 0, 0)})  # diagonal beyond the matrix
    with pytest.raises(PreconditionError):
        ToeplitzMatrix(3, {1: (0, 0, 0, 1)})  # cell (4, 3) does not exist
    assert ToeplitzMatrix(3, {0: (1,) * 4, 2: (0,) * 4}).bands == \
        {0: (1,) * 4}  # all-zero bands are dropped
    with pytest.raises(PreconditionError):
        cp1_toeplitz(3, fs_ratio_symbol()).entry(4, 0)


def _oracle_symbols():
    w = ComplexRational(Fraction(1, 3), Fraction(-2, 5))
    skew = RationalSymbol({
        (2, 0): ComplexRational(Fraction(1, 2), 3),
        (0, 1): ComplexRational(0, Fraction(-2, 7)),
        (1, 2): Fraction(5, 3),
        (0, 0): -1,
    }, 2)
    return [fs_ratio_symbol(), hermitian_test_symbol(), skew,
            mobius_pullback(fs_ratio_symbol(), w),
            mobius_pullback(skew, w)]


@pytest.mark.parametrize("m", [1, 2, 5, 9])
def test_toeplitz_matches_dense_oracle(m):
    for f in _oracle_symbols():
        assert [list(row) for row in cp1_toeplitz(m, f).entries] == \
            dense_cp1_toeplitz(m, f)


def test_mobius_pullback_fills_every_diagonal():
    m = 4
    w = ComplexRational(Fraction(1, 3), Fraction(-2, 5))
    T = cp1_toeplitz(m, mobius_pullback(fs_ratio_symbol(), w))
    assert sorted(T.bands) == [-1, 0, 1]
    T = cp1_toeplitz(m, mobius_pullback(_oracle_symbols()[2], w))
    assert sorted(T.bands) == [-2, -1, 0, 1, 2]


@pytest.mark.parametrize("m", [2, 5, 8])
def test_banded_products_match_dense_products(m):
    symbols = _oracle_symbols()
    for f, g in zip(symbols, symbols[1:] + symbols[:1]):
        tf, tg = cp1_toeplitz(m, f), cp1_toeplitz(m, g)
        product = dense_matmul(dense_cp1_toeplitz(m, f), dense_cp1_toeplitz(m, g))
        for q in range(m + 1):
            for p in range(m + 1):
                assert tf.composition_entry(tg, p, q) == product[q][p]


def test_composition_fits_build_one_matrix_per_tensor_power(monkeypatch):
    calls = []

    def counted(m, f):
        calls.append(m)
        return cp1_toeplitz(m, f)

    monkeypatch.setattr("wickjet.cp1.cp1_toeplitz", counted)
    ms = (16, 32, 64)
    fits = suites.composition_fits(orders=(0, 1, 2), ms=ms)
    assert sorted(calls) == list(ms)
    assert list(fits) == [0, 1, 2]


def test_fit_recovers_exact_power_law_slopes():
    for k in range(1, 5):
        for ms in ((32, 64, 128, 256, 512, 1024), (4096, 8192, 16384)):
            fit = _fit([(m, None, None, 3.7 * m ** -k) for m in ms])
            assert not fit["exact"]
            assert abs(fit["fitted"] + k) <= 1e-12
    assert _fit([(m, None, None, 0.0) for m in (32, 64)]) == {
        "rows": [(32, None, None, 0.0), (64, None, None, 0.0)],
        "fitted": None, "exact": True}
    single = _fit([(32, None, None, 0.0), (64, None, None, 1e-3)])
    assert single["fitted"] is None and not single["exact"]


def test_fit_agrees_with_numpy_polyfit():
    fits = suites.composition_fits(orders=(0, 1, 2, 3, 4),
                                   elements=((0, 0), (1, 1), (2, 2)))
    compared = 0
    for per_element in fits.values():
        for fit in per_element.values():
            nonzero = [(m, r) for m, _, _, r in fit["rows"] if r > 0.0]
            if len(nonzero) < 2:
                continue
            expected = np.polyfit(np.log([m for m, _ in nonzero]),
                                  np.log([r for _, r in nonzero]), 1)[0]
            assert fit["fitted"] == pytest.approx(expected, rel=1e-12)
            compared += 1
    assert compared == 15


# ---------------------------------------------------------------------------
# isometry pullbacks


def test_mobius_identity_cases():
    f = fs_ratio_symbol()
    assert mobius_pullback(f, 0) == f
    one = RationalSymbol.constant(1)
    w = ComplexRational(Fraction(1, 2), Fraction(1, 3))
    assert mobius_pullback(one, w) == one


def test_mobius_moves_the_base_point():
    f = fs_ratio_symbol()
    w = ComplexRational(Fraction(1, 3), Fraction(-2, 5))
    pulled = mobius_pullback(f, w)
    t = (w * w.conjugate()).re
    assert pulled.num[(0, 0)] == Fraction(t, 1 + t)
    assert pulled.is_real()
    assert pulled.denom_power == f.denom_power


def test_mobius_round_trip_is_exact():
    w = ComplexRational(Fraction(2, 7), Fraction(1, 4))
    for f in (fs_ratio_symbol(), hermitian_test_symbol()):
        pulled = mobius_pullback(f, w)
        assert mobius_pullback(pulled, -w) == f


def test_mobius_preserves_toeplitz_spectrum():
    m = 8
    w = ComplexRational(Fraction(1, 3), Fraction(-2, 5))
    for f in (fs_ratio_symbol(), hermitian_test_symbol()):
        base = np.sort(np.linalg.eigvalsh(hermitized(cp1_toeplitz(m, f))))
        moved = np.sort(np.linalg.eigvalsh(
            hermitized(cp1_toeplitz(m, mobius_pullback(f, w)))))
        assert np.allclose(base, moved, atol=1e-9)


# ---------------------------------------------------------------------------
# jets bridge


def test_symbol_jets_frozen():
    assert symbol_jets(fs_ratio_symbol(), 6) == WickSeries(1, 6, {
        (0, (1,), (1,)): 1,
        (0, (2,), (2,)): -1,
        (0, (3,), (3,)): 1,
    })
    assert symbol_jets(RationalSymbol.constant(Fraction(2, 3)), 4) == \
        WickSeries.monomial(1, 4, Fraction(2, 3))
    height = RationalSymbol({(1, 0): 1}, 1)  # z/(1+|z|^2)
    assert symbol_jets(height, 4) == WickSeries(1, 4, {
        (0, (1,), (0,)): 1,
        (0, (2,), (1,)): -1,
    })


def test_symbol_validation():
    with pytest.raises(PreconditionError):
        RationalSymbol({(2, 0): 1}, 1)  # unbounded after pullback
    with pytest.raises(PreconditionError):
        RationalSymbol({(0, 0): 1}, -1)
    with pytest.raises(PreconditionError):
        RationalSymbol({(-1, 0): 1}, 2)
    assert not RationalSymbol({(1, 1): 0}, 1).num  # zero terms dropped


# ---------------------------------------------------------------------------
# composition residuals


def test_composition_residual_constant_symbols_are_exact():
    one = RationalSymbol.constant(1)
    predicted = {(0, 0): hseries(8, {0: 1}),
                 (1, 1): hseries(8, {0: 1})}
    out = composition_residual(one, one, [4, 8, 16], (2,), predicted)[2]
    assert out[(0, 0)]["exact"] and out[(0, 0)]["fitted"] is None
    assert out[(1, 1)]["exact"]
    for m, exact, partial, residual in out[(1, 1)]["rows"]:
        assert exact == partial and residual == 0.0


def test_composition_residual_detects_decay_orders():
    # self-contained check of the fitting machinery: predictions taken from
    # the closed-form entry 1/(m+2)^2 = h^2 - 4 h^3 + 12 h^4 - ...
    f = fs_ratio_symbol()
    closed = hseries(8, {4: 1, 6: -4, 8: 12})
    ms = [16, 32, 64, 128]
    out = composition_residual(f, f, ms, (0, 1, 2, 4), {(0, 0): closed})
    assert list(out) == [0, 1, 2, 4]
    for order, bound in ((0, -0.7), (1, -1.7), (2, -2.7)):
        fit = out[order][(0, 0)]
        assert not fit["exact"]
        assert fit["fitted"] <= bound
    # a fourth-order partial sum flips the sign structure but still decays
    assert out[4][(0, 0)]["fitted"] <= -4.7


def test_composition_residual_of_two_symbols():
    f, g = fs_ratio_symbol(), RationalSymbol.constant(2)
    ms = [4, 8, 16]
    out = composition_residual(f, g, ms, (0, 1), {(1, 1): hseries(4, {})})
    for order in (0, 1):
        assert [row[1] for row in out[order][(1, 1)]["rows"]] == \
            [Fraction(4, m + 2) for m in ms]


def test_composition_residual_against_engine_predictions():
    trunc = 8
    fs = fubini_study_potential(1, trunc)
    w = weight_series(fs, trunc)
    f = fs_ratio_symbol()
    symbol = toeplitz_symbol(symbol_jets(f, trunc), w)

    def ymono(p):
        return WickSeries.monomial(1, trunc, 1, 0, (p,), (0,))

    predicted = {}
    for p, q in ((0, 0), (1, 1), (0, 1)):
        pairing = inner_product(fock_act(symbol, fock_act(symbol, ymono(p))),
                                ymono(q), w)
        gram = inner_product(ymono(q), ymono(q), w)
        predicted[(p, q)] = pairing * gram.reciprocal()
    out = composition_residual(f, f, [16, 32, 64, 128], (1,), predicted)[1]
    assert out[(0, 1)]["exact"]
    assert out[(0, 0)]["fitted"] <= -1.7
    assert out[(1, 1)]["fitted"] <= -1.7


def test_composition_residual_requires_tensor_powers():
    with pytest.raises(PreconditionError):
        composition_residual(fs_ratio_symbol(), fs_ratio_symbol(), [], (1,),
                             {})
    with pytest.raises(PreconditionError):
        composition_residual(fs_ratio_symbol(), fs_ratio_symbol(), [4], (-1,),
                             {})
