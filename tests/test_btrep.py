import random
from fractions import Fraction

import pytest

from wickjet.btrep import (
    BTContext,
    bt_coefficient,
    bt_star_eval,
    local_asymptotic_coeffs,
    rep_act,
    vacuum_reduce,
)
from wickjet.coefficients import ComplexRational
from wickjet.errors import (
    DimensionMismatch,
    PreconditionError,
    TruncationMismatch,
)
from wickjet.integrals import WeightSeries, inner_product, toeplitz_symbol
from wickjet.jets import (
    fubini_study_potential,
    k_normalize,
    random_real_analytic_potential,
)
from wickjet.series import WickSeries, mi_zero
from wickjet.wick import wick_star

from support import hseries, random_coefficient, random_multi_index


TRUNC = 6


def z_jets(order=TRUNC):
    return WickSeries(1, order, {(0, (1,), (0,)): 1})


def zbar_jets(order=TRUNC):
    return WickSeries(1, order, {(0, (0,), (1,)): 1})


def ymono(trunc, p, dim=1, k2=0):
    index = (p,) + (0,) * (dim - 1)
    return WickSeries.monomial(dim, trunc, 1, k2, index, (0,) * dim)


def random_function_jets(rng, dim, order, n_terms=4, real=False):
    terms = {}
    for _ in range(n_terms):
        I = random_multi_index(rng, dim, order)
        J = random_multi_index(rng, dim, order - sum(I))
        key = (0, I, J)
        prev = terms.get(key)
        c = random_coefficient(rng)
        terms[key] = c if prev is None else prev + c
    series = WickSeries(dim, order, {k: v for k, v in terms.items() if v})
    if real:
        series = (series + series.conjugate()).scale(Fraction(1, 2))
    return series


def random_fock(rng, dim, trunc, n_terms=3):
    """Random plain holomorphic element with a guaranteed low-degree term."""
    terms = {(0, random_multi_index(rng, dim, 1), mi_zero(dim)):
             random_coefficient(rng)}
    for _ in range(n_terms):
        I = random_multi_index(rng, dim, trunc)
        k2 = 2 * rng.randint(0, max(0, (trunc - sum(I)) // 2))
        key = (k2, I, mi_zero(dim))
        prev = terms.get(key)
        c = random_coefficient(rng)
        terms[key] = c if prev is None else prev + c
    series = WickSeries(dim, trunc, {k: v for k, v in terms.items() if v})
    if not series:
        return WickSeries.unit(dim, trunc)
    return series


def flat_ctx(dim=1, trunc=TRUNC):
    return BTContext.flat(dim, trunc)


def fs_ctx(trunc=TRUNC):
    return BTContext.from_potential(fubini_study_potential(1, trunc), trunc)


def quartic_ctx(trunc=TRUNC):
    body = WickSeries(1, trunc, {(0, (2,), (2,)): Fraction(1, 5)})
    return BTContext(WeightSeries(body))


def random_ctx(seed, dim=2, trunc=TRUNC):
    raw = random_real_analytic_potential(seed, dim, trunc)
    normalized, _, _ = k_normalize(raw)
    return BTContext.from_potential(normalized, trunc)


# ---------------------------------------------------------------------------
# context construction


def test_context_basic():
    ctx = flat_ctx()
    assert ctx.dim == 1 and ctx.trunc == TRUNC
    assert ctx == BTContext.flat(1, TRUNC)
    assert ctx != fs_ctx()
    with pytest.raises(AttributeError):
        ctx.trunc = 4


def test_context_rejects_bad_weights():
    lopsided = WickSeries(1, TRUNC, {(0, (2,), (1,)): 1})
    with pytest.raises(PreconditionError):
        BTContext(WeightSeries(lopsided))
    linear = WickSeries(1, TRUNC, {(0, (2,), (1,)): 1, (0, (1,), (2,)): 1})
    with pytest.raises(PreconditionError):
        BTContext(WeightSeries(linear))


def test_context_from_potential_matches_weight_series():
    from wickjet.jets import weight_series

    fs = fubini_study_potential(1, TRUNC)
    ctx = BTContext.from_potential(fs, TRUNC)
    assert ctx.weight == weight_series(fs, TRUNC)


# ---------------------------------------------------------------------------
# pointwise products: frozen examples


def test_flat_zbar_star_z_vanishes():
    ctx = flat_ctx()
    assert bt_star_eval(zbar_jets(), z_jets(), ctx) == hseries(TRUNC, {})


def test_flat_z_star_zbar_is_minus_h():
    ctx = flat_ctx()
    assert bt_star_eval(z_jets(), zbar_jets(), ctx) == hseries(TRUNC, {2: -1})


def test_constant_right_factor_scales_the_value():
    rng = random.Random(7)
    for ctx in (flat_ctx(), fs_ctx(), quartic_ctx()):
        f = random_function_jets(rng, 1, TRUNC)
        c = random_coefficient(rng)
        g = WickSeries.monomial(1, TRUNC, c)
        value = f.coefficient(0, (0,), (0,)) * c
        expected = hseries(TRUNC, {0: value})
        assert bt_star_eval(f, g, ctx) == expected


def test_unit_factor_gives_exact_value_series():
    rng = random.Random(11)
    one = WickSeries.unit(1, TRUNC)
    for ctx in (flat_ctx(), fs_ctx(), quartic_ctx()):
        for _ in range(4):
            g = random_function_jets(rng, 1, TRUNC)
            g0 = g.coefficient(0, (0,), (0,))
            expected = hseries(TRUNC, {0: g0})
            assert bt_star_eval(one, g, ctx) == expected
            assert bt_star_eval(g, one, ctx) == expected
    two = random_ctx(3)
    one2 = WickSeries.unit(2, TRUNC)
    g = random_function_jets(rng, 2, TRUNC)
    g0 = g.coefficient(0, (0, 0), (0, 0))
    assert bt_star_eval(one2, g, two) == hseries(TRUNC, {0: g0})
    assert bt_star_eval(g, one2, two) == hseries(TRUNC, {0: g0})


def test_bt_coefficient_window_and_values():
    ctx = flat_ctx()
    assert bt_coefficient(z_jets(), zbar_jets(), ctx, 1) == ComplexRational(-1)
    assert not bt_coefficient(z_jets(), zbar_jets(), ctx, 0)
    with pytest.raises(PreconditionError):
        bt_coefficient(z_jets(), zbar_jets(), ctx, TRUNC // 2 + 1)
    with pytest.raises(PreconditionError):
        bt_coefficient(z_jets(), zbar_jets(), ctx, -1)


def test_zeroth_coefficient_is_the_pointwise_product():
    rng = random.Random(23)
    for ctx in (fs_ctx(), quartic_ctx()):
        for _ in range(4):
            f = random_function_jets(rng, 1, TRUNC)
            g = random_function_jets(rng, 1, TRUNC)
            f0 = f.coefficient(0, (0,), (0,))
            g0 = g.coefficient(0, (0,), (0,))
            assert bt_coefficient(f, g, ctx, 0) == f0 * g0


# ---------------------------------------------------------------------------
# structural invariants


def test_pointwise_associativity_through_symbols():
    rng = random.Random(31)
    for ctx in (fs_ctx(), quartic_ctx(), random_ctx(5)):
        for _ in range(3):
            symbols = [
                toeplitz_symbol(
                    random_function_jets(rng, ctx.dim, ctx.trunc), ctx.weight)
                for _ in range(3)
            ]
            a, b, c = symbols
            left = wick_star(wick_star(a, b), c)
            right = wick_star(a, wick_star(b, c))
            assert left == right


def test_holomorphic_right_factor_multiplies_pointwise():
    rng = random.Random(37)
    for ctx in (fs_ctx(), quartic_ctx(), random_ctx(9)):
        for _ in range(4):
            g = random_function_jets(rng, ctx.dim, ctx.trunc)
            jf = random_function_jets(
                rng, ctx.dim, ctx.trunc).holomorphic_part()
            symbol_g = toeplitz_symbol(g, ctx.weight)
            assert wick_star(symbol_g, jf) == symbol_g * jf
            # a holomorphic function is its own symbol, so the deformed
            # product against it reduces to pointwise multiplication
            assert toeplitz_symbol(jf, ctx.weight) == jf


def test_flat_reduction_matches_plain_wick_star():
    rng = random.Random(41)
    for dim in (1, 2):
        ctx = flat_ctx(dim)
        for _ in range(10):
            f = random_function_jets(rng, dim, TRUNC)
            g = random_function_jets(rng, dim, TRUNC)
            expected = wick_star(f, g).constant_part()
            assert bt_star_eval(f, g, ctx) == expected


def test_locality_ignores_beyond_order_jets():
    rng = random.Random(43)
    ctx = fs_ctx()
    base = random_function_jets(rng, 1, TRUNC)
    padded = dict(base.terms)
    padded[(0, (4,), (3,))] = ComplexRational(Fraction(9, 7))
    padded[(2, (3,), (3,))] = ComplexRational(0, Fraction(-5, 3))
    wide = WickSeries(1, TRUNC + 2, padded)
    narrow = base.retruncate(TRUNC + 2)
    g = random_function_jets(rng, 1, TRUNC)
    assert bt_star_eval(wide, g, ctx) == bt_star_eval(narrow, g, ctx)
    alpha = ymono(TRUNC, 2)
    assert rep_act(wide, alpha, ctx) == rep_act(narrow, alpha, ctx)


def test_self_adjointness_for_real_jets():
    rng = random.Random(47)
    for ctx in (fs_ctx(), quartic_ctx()):
        for _ in range(4):
            f = random_function_jets(rng, 1, TRUNC, real=True)
            s1 = random_fock(rng, 1, TRUNC)
            s2 = random_fock(rng, 1, TRUNC)
            lhs = inner_product(rep_act(f, s1, ctx), s2, ctx.weight)
            rhs = inner_product(s1, rep_act(f, s2, ctx), ctx.weight)
            assert lhs == rhs


# ---------------------------------------------------------------------------
# representation action


def test_rep_act_flat_examples():
    ctx = flat_ctx()
    assert rep_act(zbar_jets(), ymono(TRUNC, 1), ctx) == \
        WickSeries.monomial(1, TRUNC, 1, 2, (0,), (0,))
    # holomorphic jets act by plain multiplication
    alpha = ymono(TRUNC, 2)
    assert rep_act(z_jets(), alpha, ctx) == ymono(TRUNC, 3)


def test_rep_act_holomorphic_is_multiplication_everywhere():
    rng = random.Random(53)
    for ctx in (fs_ctx(), random_ctx(13)):
        holo = random_function_jets(rng, ctx.dim, ctx.trunc).holomorphic_part()
        alpha = random_fock(rng, ctx.dim, ctx.trunc)
        assert rep_act(holo, alpha, ctx) == holo * alpha


def test_rep_act_validates_inputs():
    ctx = fs_ctx()
    with pytest.raises(PreconditionError):
        rep_act(zbar_jets(order=4), ymono(TRUNC, 1), ctx)
    with pytest.raises(DimensionMismatch):
        rep_act(WickSeries(2, TRUNC, {(0, (0, 1), (0, 0)): 1}),
                ymono(TRUNC, 1), ctx)
    with pytest.raises(TruncationMismatch):
        rep_act(zbar_jets(), ymono(TRUNC + 2, 1), ctx)
    with pytest.raises(PreconditionError):
        rep_act(zbar_jets(), ymono(TRUNC, 1) + ymono(TRUNC, 0).conjugate() * 0
                + WickSeries.monomial(1, TRUNC, 1, 0, (0,), (1,)), ctx)


# ---------------------------------------------------------------------------
# local asymptotic coefficients


def test_asymptotics_flat_lowering():
    ctx = flat_ctx()
    coeffs = local_asymptotic_coeffs(zbar_jets(), z_jets(), ctx, TRUNC)
    assert coeffs == {(1, (0,)): ComplexRational(1)}


def test_asymptotics_constant_section():
    ctx = fs_ctx()
    one = WickSeries.unit(1, TRUNC)
    coeffs = local_asymptotic_coeffs(one, one, ctx, TRUNC)
    assert coeffs == {(0, (0,)): ComplexRational(1)}


def test_asymptotics_fs_lowering_is_exact():
    # the Fubini-Study corrections cancel on the linear section, matching
    # the closed-form Gram ratio 1/m whose expansion is exactly h
    ctx = fs_ctx()
    coeffs = local_asymptotic_coeffs(zbar_jets(), z_jets(), ctx, TRUNC)
    assert coeffs == {(1, (0,)): ComplexRational(1)}


def test_asymptotics_corrections_start_at_degree_four():
    ctx = fs_ctx()
    quad = WickSeries(1, TRUNC, {(0, (2,), (0,)): 1})
    coeffs = local_asymptotic_coeffs(zbar_jets(), quad, ctx, TRUNC)
    assert coeffs[(1, (1,))] == ComplexRational(2)
    others = {key for key in coeffs if key != (1, (1,))}
    assert others, "curvature corrections should appear"
    assert all(2 * k + sum(I) >= 4 for (k, I) in others)
    assert coeffs[(2, (1,))] == ComplexRational(2)

    quartic = quartic_ctx()
    frozen = local_asymptotic_coeffs(zbar_jets(), z_jets(), quartic, TRUNC)
    assert frozen == {
        (1, (0,)): ComplexRational(1),
        (2, (0,)): ComplexRational(Fraction(4, 5)),
        (3, (0,)): ComplexRational(Fraction(8, 5)),
    }


def test_asymptotics_windows_and_preconditions():
    ctx = fs_ctx()
    with pytest.raises(PreconditionError):
        local_asymptotic_coeffs(zbar_jets(), z_jets(), ctx, TRUNC + 1)
    with pytest.raises(PreconditionError):
        local_asymptotic_coeffs(zbar_jets(), zbar_jets(), ctx, TRUNC)
    shallow = local_asymptotic_coeffs(zbar_jets(), z_jets(), ctx, 2)
    assert set(shallow) == {(1, (0,))}


# ---------------------------------------------------------------------------
# vacuum reduction


def test_vacuum_reduce_unit_element():
    for ctx in (flat_ctx(), fs_ctx(), quartic_ctx()):
        f, level = vacuum_reduce(WickSeries.unit(1, TRUNC), ctx, TRUNC)
        assert f == WickSeries.unit(1, TRUNC)
        assert level == 0


def test_vacuum_reduce_flat_lowering():
    ctx = flat_ctx()
    f, level = vacuum_reduce(ymono(TRUNC, 1), ctx, TRUNC)
    assert f == zbar_jets()
    assert level == 1
    assert rep_act(f, ymono(TRUNC, 1), ctx) == \
        WickSeries.monomial(1, TRUNC, 1, 2, (0,), (0,))


def test_vacuum_reduce_half_integer_level():
    ctx = flat_ctx()
    a = ymono(TRUNC, 1, k2=1)  # sqrt(h) times the linear generator
    f, level = vacuum_reduce(a, ctx, TRUNC)
    assert level == Fraction(3, 2)
    assert f == zbar_jets()


def test_vacuum_reduce_telescopes_flat_polynomial():
    ctx = flat_ctx()
    a = ymono(TRUNC, 1) + ymono(TRUNC, 2)
    f, level = vacuum_reduce(a, ctx, TRUNC)
    assert level == 1
    acted = rep_act(f, a, ctx)
    assert acted == WickSeries.monomial(1, TRUNC, 1, 2, (0,), (0,))


def test_vacuum_reduce_random_inputs():
    rng = random.Random(61)
    contexts = [flat_ctx(), fs_ctx(), quartic_ctx(), random_ctx(17),
                flat_ctx(dim=2)]
    for case in range(15):
        ctx = contexts[case % len(contexts)]
        a = random_fock(rng, ctx.dim, ctx.trunc)
        f, level = vacuum_reduce(a, ctx, ctx.trunc)
        lead = a.min_degree()
        k2_0, head = min((k2, I) for (k2, I, _) in a.terms
                         if k2 + sum(I) == lead)
        assert level == Fraction(k2_0 + 2 * sum(head), 2)
        acted = rep_act(f, a, ctx)
        vacuum = WickSeries.monomial(ctx.dim, ctx.trunc, 1,
                                     k2_0 + 2 * sum(head),
                                     mi_zero(ctx.dim), mi_zero(ctx.dim))
        assert acted == vacuum


def test_vacuum_reduce_partial_target_leaves_high_residual():
    ctx = quartic_ctx()
    a = ymono(TRUNC, 2)
    target = 4
    f, level = vacuum_reduce(a, ctx, target)
    assert level == 2
    residual = rep_act(f, a, ctx) - \
        WickSeries.monomial(1, TRUNC, 1, 4, (0,), (0,))
    depth = residual.min_degree()
    assert depth is None or depth > target


def test_vacuum_reduce_preconditions():
    ctx = fs_ctx()
    with pytest.raises(PreconditionError):
        vacuum_reduce(WickSeries(1, TRUNC, {}), ctx, TRUNC)
    with pytest.raises(PreconditionError):
        vacuum_reduce(WickSeries.monomial(1, TRUNC, 1, 0, (0,), (1,)),
                      ctx, TRUNC)
    with pytest.raises(PreconditionError):
        vacuum_reduce(ymono(TRUNC, 1).hbar_shift(-2), ctx, TRUNC)
    with pytest.raises(PreconditionError):
        vacuum_reduce(ymono(TRUNC, 1), ctx, TRUNC + 1)
    with pytest.raises(PreconditionError):
        vacuum_reduce(ymono(TRUNC, TRUNC), ctx, TRUNC)  # leading term too deep


def test_equal_series_behave_equally():
    """A series is its terms: a detour through h^-1 and back changes nothing."""
    trunc = 8
    down = WickSeries.monomial(1, trunc, 1, -2)
    up = WickSeries.monomial(1, trunc, 1, 2)
    for ctx in (flat_ctx(trunc=trunc), fs_ctx(trunc), quartic_ctx(trunc)):
        for a in (ymono(trunc, 1), ymono(trunc, 1) + ymono(trunc, 2, k2=2)):
            detour = a * down * up
            assert detour == a and hash(detour) == hash(a)
            assert detour.is_plain() and a.is_plain()
            assert vacuum_reduce(detour, ctx, 6) == vacuum_reduce(a, ctx, 6)
            # toeplitz_symbol checks a plain input's symbol for plainness
            f = a.conjugate() * a
            symbol = toeplitz_symbol(f * down * up, ctx.weight)
            assert symbol == toeplitz_symbol(f, ctx.weight) and symbol.is_plain()
