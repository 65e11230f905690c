import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import sympy as sp

from support import (
    constant_symbol,
    cp1_gram,
    dense_cp1_toeplitz,
    dense_matmul,
    evaluate_factorial,
    evaluate_symbol,
    hermitized,
    hseries,
    reference_mobius_pullback,
)
from wickjet import suites
from wickjet.coefficients import ComplexRational
from wickjet.cp1 import (
    FactorialRational,
    RationalSymbol,
    ToeplitzMatrix,
    _fit,
    composition_residual,
    cp1_inner,
    cp1_toeplitz,
    fs_ratio_symbol,
    mobius_pullback,
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
    zero = FactorialRational(0, (5,), (7,))
    assert not zero and zero.num_shifts == () and zero.den_shifts == ()
    assert x * Fraction(2, 3) == FactorialRational(1, (0,), (2,))


def test_factorial_rational_evaluate():
    x = cp1_inner(2, 2)  # 2m / ((m-1) m (m+1))
    assert evaluate_factorial(x, 5) == Fraction(1, 12)
    assert evaluate_factorial(cp1_inner(0, 0), 9) == Fraction(9, 10)
    with pytest.raises(PreconditionError):
        evaluate_factorial(cp1_inner(3, 3), 2)  # pole: no cubic sections at m = 2


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
    exact = evaluate_factorial(x, m).re
    assert abs(exact - partial) < Fraction(2, m ** 6)


def _random_factorial_data(rng, case: int) -> tuple:
    """Shifts, scalar and order of one seeded case; ``case`` cycles the
    sign of the net power of m, the kind of scalar and the order."""
    den = [rng.randrange(-3, 4) for _ in range(rng.randrange(4))]
    num = [rng.randrange(-3, 4) for _ in range(max(0, len(den) + case % 3 - 1))]
    if case % 4 == 0 and den:  # a shift on both sides cancels
        num.append(rng.choice(den))
        den.append(rng.randrange(-3, 4))
    def part():
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
    scalar = (part(), ComplexRational(part(), rng.randrange(1, 8) * rng.choice((-1, 1))),
              0)[case // 3 % 3]
    return num, den, scalar, case % 7


def test_expansion_matches_sympy_series_in_one_over_m():
    m, h = sp.symbols("m h")
    rng = random.Random(20260828)
    nets, repeated, cancelled, scalars = set(), 0, 0, set()
    for case in range(210):
        num, den, scalar, order = _random_factorial_data(rng, case)
        c = ComplexRational.coerce(scalar)
        ratio = sp.Mul(*(m + a for a in num)) / sp.Mul(*(m + b for b in den))
        reference = sp.series(sp.cancel(ratio.subs(m, 1 / h)), h, 0, order + 1)
        coeffs = sp.expand((sp.Rational(c.re.numerator, c.re.denominator)
                            + sp.I * sp.Rational(c.im.numerator, c.im.denominator))
                           * reference.removeO())
        expected = {}
        for k in range(-len(num), order + 1):
            coeff = coeffs.coeff(h, k)
            re, im = (Fraction(int(sp.numer(x)), int(sp.denom(x)))
                      for x in (sp.re(coeff), sp.im(coeff)))
            if re or im:
                expected[2 * k] = ComplexRational(re, im)
        assert FactorialRational(scalar, num, den).expand_at_infinity(order) \
            == hseries(2 * order, expected), (scalar, num, den, order)
        nets.add((len(num) > len(den)) - (len(num) < len(den)))
        repeated += len(set(num)) < len(num) or len(set(den)) < len(den)
        cancelled += bool(set(num) & set(den))
        scalars.add(type(scalar))
    assert nets == {-1, 0, 1} and repeated > 20 and cancelled > 20
    assert scalars == {Fraction, ComplexRational, int}


def test_the_oracle_forms_no_engine_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle called the engine kernel")
    monkeypatch.setattr("wickjet.series.bilinear_terms", refuse)
    for p in range(6):
        for k in range(7):
            lead = math.factorial(p) if p <= k else 0
            assert cp1_inner(p, p).expand_at_infinity(k).coefficient(2 * p) == lead
    for p in range(3):
        for q in range(3):
            closed = FactorialRational(p + 1, (), (2,)) * cp1_inner(p, q)
            assert bool(closed.expand_at_infinity(3)) == (p == q)


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
            exact = evaluate_factorial(cp1_inner(p, p), m).re
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


def test_peak_section_norm_is_the_gram_diagonal():
    for m, p in ((6, 0), (6, 3), (12, 5)):
        norm = cp1_gram(m, p)
        assert norm == evaluate_factorial(cp1_inner(p, p), m).re
        # leading behavior p!/m^p
        lead = cp1_inner(p, p).expand_at_infinity(p)
        assert lead.coefficient(2 * p) == math.factorial(p)


# ---------------------------------------------------------------------------
# Toeplitz matrices


def test_toeplitz_constant_symbol_is_identity():
    T = cp1_toeplitz(6, constant_symbol(1))
    assert T.entries == tuple(tuple(int(p == q) for p in range(7))
                              for q in range(7))
    assert T.entry(3, 3) == 1 and not T.entry(3, 2)


def test_toeplitz_fs_ratio_diagonal():
    m = 7
    T = cp1_toeplitz(m, fs_ratio_symbol())
    for p in range(m + 1):
        for q in range(m + 1):
            expected = Fraction(p + 1, m + 2) if p == q else 0
            assert T.entries[q][p] == expected
    closed = FactorialRational(1, (), (2,))  # 1/(m+2)
    assert T.entries[0][0] == evaluate_factorial(closed, m)


def test_toeplitz_pairing_is_hermitian_for_real_symbols():
    m = 6
    f = hermitian_test_symbol()
    assert f.num.conjugate() == f.num
    T = cp1_toeplitz(m, f)
    for p in range(m + 1):
        for q in range(m + 1):
            assert T.entry(q, p) * cp1_gram(m, q) == \
                (T.entry(p, q) * cp1_gram(m, p)).conjugate()


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
                val = evaluate_symbol(f, complex(r * np.cos(theta), r * np.sin(theta)))
                assert abs(val.imag) < 1e-9  # real symbols stay real
                sup = max(sup, abs(val.real))
        assert np.max(np.abs(eigs)) <= sup + 1e-9


def test_toeplitz_matrix_validation():
    with pytest.raises(PreconditionError):
        ToeplitzMatrix(0, fs_ratio_symbol())
    with pytest.raises(PreconditionError):
        cp1_toeplitz(3, fs_ratio_symbol()).entry(4, 0)


@pytest.mark.parametrize("build, refused, accepted, expected", [
    (lambda m: ToeplitzMatrix(m, fs_ratio_symbol()).m, 4.7, 4, 4),
    (lambda s: FactorialRational(1, (s,)).num_shifts, 1.5, 1, (1,)),
    (lambda a: RationalSymbol({(a, 1): 1}, 2).num, 1.9, 1,
     WickSeries(1, 4, {(0, (1,), (1,)): 1})),
    (lambda d: RationalSymbol({(1, 1): 1}, d).denom_power, Fraction(2), 2, 2),
    (lambda m: composition_residual(fs_ratio_symbol(), fs_ratio_symbol(), [m], [0], {}),
     32.9, 32, {0: {}}),
    (lambda n: composition_residual(fs_ratio_symbol(), fs_ratio_symbol(), [32], [n], {}),
     0.5, 0, {0: {}}),
    (lambda n: composition_residual(fs_ratio_symbol(), fs_ratio_symbol(), [32], [n], {}),
     Fraction(1, 2), 0, {0: {}}),
], ids=["tensor-power", "shift", "symbol-exponent", "denominator-power", "fit-power",
        "fit-order", "fit-order-fraction"])
def test_the_oracle_refuses_non_integers(build, refused, accepted, expected):
    """A float or a Fraction is refused, never truncated to an integer."""
    with pytest.raises(TypeError):
        build(refused)
    assert build(accepted) == expected


def test_toeplitz_entries_far_past_any_dense_size():
    m = 10 ** 9  # a stored diagonal alone would hold 10^9 cells
    T = cp1_toeplitz(m, fs_ratio_symbol())
    for p in (0, 1, 7, m):
        assert T.entry(p, p) == Fraction(p + 1, m + 2)
        assert T.composition_entry(T, p, p) == Fraction(p + 1, m + 2) ** 2
    H = cp1_toeplitz(m, hermitian_test_symbol())
    for p in range(4):
        for q in range(4):
            assert H.entry(q, p) * cp1_gram(m, q) == \
                (H.entry(p, q) * cp1_gram(m, p)).conjugate()


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
    for f, filled in ((fs_ratio_symbol(), [-1, 0, 1]),
                      (_oracle_symbols()[2], [-2, -1, 0, 1, 2])):
        rows = cp1_toeplitz(m, mobius_pullback(f, w)).entries
        assert sorted({q - p for q, row in enumerate(rows)
                       for p, c in enumerate(row) if c}) == filled


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
    fits = suites.composition_fits(orders=(0, 1, 2), ms=ms,
                                   elements=((0, 0), (1, 1)))
    assert sorted(calls) == list(ms)
    assert list(fits) == [0, 1, 2]


def fs_line_series(trunc, elements):
    """Gram norms {p: <y^p, y^p>} and Gram-normalized composed entries
    {(p, q): <S S y^p, y^q> / <y^q, y^q>} on the Fubini-Study line at ``trunc``."""
    w = weight_series(fubini_study_potential(1, trunc), trunc)
    symbol = toeplitz_symbol(symbol_jets(fs_ratio_symbol(), trunc), w)

    def ymono(p):
        return WickSeries.monomial(1, trunc, 1, 0, (p,), (0,))

    grams = {p: inner_product(ymono(p), ymono(p), w)
             for p in {p for e in elements for p in e}}
    entries = {(p, q): inner_product(
        fock_act(symbol, fock_act(symbol, ymono(p))), ymono(q), w)
        * grams[q].reciprocal() for p, q in elements}
    return grams, entries


def agree_through(a, b, order):
    return all(a.coefficient(2 * k) == b.coefficient(2 * k)
               for k in range(order + 1))


@pytest.mark.parametrize("elements", [
    ((0, 0), (1, 1), (0, 1), (3, 3), (1, 3)),
    ((5, 5), (2, 4)),
])
def test_engine_entries_are_exact_through_the_requested_order(elements):
    _, reference = fs_line_series(24, elements)
    for max_order in range(6):
        predicted = suites.engine_entry_series(elements, max_order)
        assert list(predicted) == list(elements)
        for key, series in predicted.items():
            assert agree_through(series, reference[key], max_order), \
                (key, max_order)


def test_exact_truncation_is_exact_and_tight():
    # Gram norms: exact through the order at the rule's truncation, and the
    # p = 0 norm is wrong at its top order one step below it (checked at
    # truncations 6, 8 and 10; at 4 it is exact one order further).
    for max_order in range(6):
        trunc = suites.exact_truncation(max_order, 0)
        assert trunc == 2 * max_order + 2
        grams, _ = fs_line_series(trunc + 8, ((0, 1), (2, 3)))
        for p, engine, _, match in suites.peak_section_rows(3, max_order):
            assert match and agree_through(engine, grams[p], max_order)
        if max_order >= 3:
            below, _ = fs_line_series(trunc - 2, ((0, 0),))
            assert agree_through(below[0], grams[0], max_order - 1)
            assert below[0].coefficient(2 * max_order) \
                != grams[0].coefficient(2 * max_order)

    # Composed entries: exact through the order with one to spare, off the
    # diagonal identically zero, and (3, 3) wrong one order past D/2 - 3.
    elements = ((0, 0), (3, 3), (0, 1), (2, 4))
    for max_order in range(2):
        trunc = suites.exact_truncation(max_order, 4)
        assert trunc == 2 * max_order + 10
        _, reference = fs_line_series(trunc + 8, elements)
        predicted = suites.engine_entry_series(elements, max_order)
        for key, series in predicted.items():
            assert agree_through(series, reference[key], max_order + 1), key
        assert not predicted[(0, 1)] and not predicted[(2, 4)]
        top = trunc // 2 - 3
        assert agree_through(predicted[(3, 3)], reference[(3, 3)], top)
        assert predicted[(3, 3)].coefficient(2 * top + 2) \
            != reference[(3, 3)].coefficient(2 * top + 2)


@pytest.mark.parametrize("delta", [1, Fraction(-3, 5), ComplexRational(0, 2)])
def test_peak_rows_compare_exactly_the_window(monkeypatch, delta):
    # an engine row off at h^max_order fails, one off just past it passes
    real_inner_product = suites.inner_product
    for max_order in range(5):
        for past in (0, 1):
            def off_at_p1(f, g, w):
                out = real_inner_product(f, g, w)
                if f == WickSeries.monomial(1, f.trunc, 1, 0, (1,), (0,)):
                    out = out + WickSeries.monomial(0, out.trunc, delta,
                                                    2 * (max_order + past))
                return out
            monkeypatch.setattr(suites, "inner_product", off_at_p1)
            matches = {p: match for p, _, _, match
                       in suites.peak_section_rows(3, max_order)}
            assert matches == {p: bool(past) or p != 1 for p in range(4)}, \
                (max_order, past)


def test_cp1_suite_failures_name_the_case_and_both_values(monkeypatch):
    def doubled_at_one(p, q):
        return cp1_inner(p, q) * FactorialRational(2) if p == 1 else cp1_inner(p, q)
    monkeypatch.setattr(suites, "cp1_inner", doubled_at_one)
    peak = suites.peak_section_suite(seed=0)
    assert peak.cases == 20 and peak.failures == tuple(
        f"diagonal norm failed at case p=1, order {k}, engine {c}, closed {2 * c}"
        for k, c in ((1, 1), (2, -1), (3, 1), (4, -1)))
    single = suites.single_operator_suite(seed=0)
    assert single.cases == 36 and single.failures == (
        "matrix element failed at case (1, 1), order 2, engine 2, closed 4",
        "matrix element failed at case (1, 1), order 3, engine -6, closed -12")


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
                                   ms=(32, 64, 128, 256, 512),
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
    one = constant_symbol(1)
    w = ComplexRational(Fraction(1, 2), Fraction(1, 3))
    assert mobius_pullback(one, w) == one


def test_mobius_moves_the_base_point():
    f = fs_ratio_symbol()
    w = ComplexRational(Fraction(1, 3), Fraction(-2, 5))
    pulled = mobius_pullback(f, w)
    t = (w * w.conjugate()).re
    assert pulled.num.coefficient(0) == Fraction(t, 1 + t)
    assert pulled.num.conjugate() == pulled.num
    assert pulled.denom_power == f.denom_power


def test_mobius_round_trip_is_exact():
    w = ComplexRational(Fraction(2, 7), Fraction(1, 4))
    for f in (fs_ratio_symbol(), hermitian_test_symbol()):
        pulled = mobius_pullback(f, w)
        assert mobius_pullback(pulled, -w) == f


def test_mobius_pullback_matches_dict_expansion():
    cubic = RationalSymbol({
        (3, 1): ComplexRational(2, -1),
        (0, 3): Fraction(1, 4),
        (2, 2): -3,
        (1, 0): ComplexRational(0, 1),
    }, 3)
    symbols = _oracle_symbols() + [cubic, constant_symbol(Fraction(-5, 2))]
    for w in (Fraction(2, 3), ComplexRational(0, Fraction(-1, 2)),
              ComplexRational(Fraction(1, 3), Fraction(3, 4))):
        for f in symbols:
            pulled = mobius_pullback(f, w)
            assert pulled.denom_power == f.denom_power
            assert {(I[0], J[0]): c for (_, I, J), c in pulled.num.terms.items()} \
                == reference_mobius_pullback(f, w)


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
    assert symbol_jets(constant_symbol(Fraction(2, 3)), 4) == \
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
    one = constant_symbol(1)
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
    f, g = fs_ratio_symbol(), constant_symbol(2)
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
