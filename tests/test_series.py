import random
from fractions import Fraction

import pytest

from wickjet.coefficients import ComplexRational
from operator import mul

from wickjet.errors import (
    DegreeWindowError,
    DimensionMismatch,
    PreconditionError,
    TruncationMismatch,
)
from wickjet.series import WickSeries, mi_factorial, power_terms, total_degree

from support import hseries, iter_multi_indices, random_series


def test_total_degree_rule():
    assert total_degree(0, (1,), (1,)) == 2
    assert total_degree(2, (0,), (0,)) == 2
    # an inverse power of h compensated by generators: degree 2*(-1) + 3
    assert total_degree(-2, (3,), (0,)) == 1
    assert total_degree(1, (0, 1), (2, 0)) == 4  # odd k2 = sqrt(h) bookkeeping


def test_constructor_canonicalizes():
    s = WickSeries(1, 4, {
        (0, (1,), (1,)): 1,
        (0, (2,), (0,)): 0,          # dropped: zero coefficient
        (2, (2,), (1,)): Fraction(5),  # dropped: degree 5 > trunc 4
    })
    assert len(s) == 1
    assert s.coefficient(0, (1,), (1,)) == 1
    assert s.coefficient(2, (2,), (1,)) == 0


def test_constructor_rejects_window_violation():
    records = [{"k2": -2, "I": [0], "J": [0], "re": "1"}]
    with pytest.raises(DegreeWindowError):
        WickSeries.from_records(1, 4, records)
    # fine with an extended window; the constructor itself has none
    s = WickSeries.from_records(1, 4, records, lower_bound=-2)
    assert s == WickSeries(1, 4, {(-2, (0,), (0,)): 1})
    assert s.min_degree() == -2
    assert not s.is_plain()


def test_constructor_rejects_bad_indices():
    with pytest.raises(DimensionMismatch):
        WickSeries(2, 4, {(0, (1,), (0, 0)): 1})
    with pytest.raises(ValueError):
        WickSeries(1, 4, {(0, (-1,), (0,)): 1})


BAD_INPUTS = {
    # name: (error, WickSeries(...) terms, monomial arguments, one record)
    "index-wrong-length": (DimensionMismatch, {(0, (1,), (0, 0)): 1},
                           (1, 0, (1,), (0, 0)),
                           {"k2": 0, "I": [1], "J": [0, 0], "re": "1"}),
    "negative-index": (ValueError, {(0, (-1,), (0,)): 1}, (1, 0, (-1,), (0,)),
                       {"k2": 0, "I": [-1], "J": [0], "re": "1"}),
    # only records carry a degree window: the constructors (None) take h^-1
    "below-lower-bound": (DegreeWindowError, None, None,
                          {"k2": -2, "I": [0], "J": [0], "re": "1"}),
    "non-rational": ((TypeError, ValueError), {(0, (1,), (0,)): 0.5}, (0.5,),
                     {"k2": 0, "I": [1], "J": [0], "re": 0.5}),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_public_constructors_validate_their_input(case):
    error, terms, monomial_args, record = BAD_INPUTS[case]
    dim = len(record["J"])
    if terms is not None:
        with pytest.raises(error):
            WickSeries(dim, 4, terms)
        with pytest.raises(error):
            WickSeries.monomial(dim, 4, *monomial_args)
    with pytest.raises(error):
        WickSeries.from_records(dim, 4, [record])


def test_terms_is_a_read_only_view():
    key = (0, (1,), (1,))
    s = WickSeries(1, 4, {key: Fraction(1, 2), (2, (0,), (0,)): ComplexRational(0, 3)})
    view = s.terms
    with pytest.raises(TypeError):
        view[key] = 1
    with pytest.raises(TypeError):
        view[(0, (0,), (0,))] = 1
    with pytest.raises(TypeError):
        del view[key]
    assert s.terms is view
    assert view == {key: Fraction(1, 2), (2, (0,), (0,)): ComplexRational(0, 3)}
    # the readers the benchmark tracer relies on
    assert len(view) == 2 and sorted(view) == [key, (2, (0,), (0,))]
    assert frozenset(view.items()) == frozenset(dict(view).items())
    assert s.coefficient(*key) == Fraction(1, 2)


def test_every_exported_name_exists():
    """Each module's ``__all__`` names only what the module defines."""
    import importlib
    import pkgutil

    import wickjet

    assert all(hasattr(wickjet, name) for name in wickjet.__all__)
    for info in pkgutil.iter_modules(wickjet.__path__):
        module = importlib.import_module(f"wickjet.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (info.name, missing)


def test_zero_is_empty_and_equality_structural():
    z = WickSeries.zero(1, 5)
    assert not z
    assert z == WickSeries(1, 5, {(0, (1,), (0,)): 0})
    # a difference that passed through inverse powers of h is the same zero
    inverse = WickSeries.monomial(1, 5, 1, -2)
    assert z == inverse - inverse and hash(z) == hash(inverse - inverse)
    assert z != WickSeries.zero(1, 6)


def test_addition_merges_and_cancels():
    a = WickSeries(1, 4, {(0, (1,), (1,)): 1, (2, (0,), (0,)): Fraction(1, 2)})
    b = WickSeries(1, 4, {(0, (1,), (1,)): -1, (0, (2,), (0,)): 3})
    s = a + b
    assert s.coefficient(0, (1,), (1,)) == 0
    assert s.coefficient(2, (0,), (0,)) == Fraction(1, 2)
    assert s.coefficient(0, (2,), (0,)) == 3
    assert a - a == WickSeries.zero(1, 4)


def test_cancelling_sums_and_products_keep_no_zero_terms():
    y = WickSeries.monomial(1, 4, 1, 0, (1,), (0,))
    yb = WickSeries.monomial(1, 4, 1, 0, (0,), (1,))
    total = (y + yb) + (yb - y)
    assert total.terms == {(0, (0,), (1,)): 2}
    # the cross terms y yb cancel inside one product
    product = (y + yb) * (y - yb)
    assert product.terms == {(0, (2,), (0,)): 1, (0, (0,), (2,)): -1}
    a = hseries(6, {0: 1, 2: 1})
    b = hseries(6, {0: 1, 2: -1})
    assert (a + b) == hseries(6, {0: 2})
    assert (a * b) == hseries(6, {0: 1, 4: -1})
    for series in (total, product, a + b, a * b, y - y, a - a):
        assert all(series.terms.values())


def test_scalar_mixins():
    a = WickSeries.monomial(1, 4, 2, 0, (1,), (0,))
    assert (a + 1).coefficient(0, (0,), (0,)) == 1
    assert (1 + a) == (a + 1)
    assert (3 * a).coefficient(0, (1,), (0,)) == 6
    assert (a / 2).coefficient(0, (1,), (0,)) == 1
    assert (a * Fraction(1, 2)) == a / 2


def test_pointwise_product_truncates_by_degree():
    a = WickSeries(1, 4, {(0, (2,), (0,)): 1, (0, (0,), (1,)): 1})
    b = WickSeries(1, 4, {(0, (0,), (2,)): 1, (2, (1,), (0,)): 1})
    p = a * b
    assert p.coefficient(0, (2,), (2,)) == 1      # degree 4: kept
    assert p.coefficient(2, (3,), (0,)) == 0      # degree 5: cut
    assert p.coefficient(0, (0,), (3,)) == 1
    assert p.coefficient(2, (1,), (1,)) == 1


def test_mixed_truncation_and_dimension_rejected():
    a = WickSeries.unit(1, 4)
    with pytest.raises(TruncationMismatch):
        a * WickSeries.unit(1, 5)
    with pytest.raises(DimensionMismatch):
        a * WickSeries.unit(2, 4)
    with pytest.raises(TruncationMismatch):
        a + WickSeries.unit(1, 5)


def test_conjugate_example_and_involution():
    f = WickSeries.monomial(1, 5, ComplexRational(2, 3), 0, (2,), (1,))
    c = f.conjugate()
    assert c.coefficient(0, (1,), (2,)) == ComplexRational(2, -3)
    assert c.conjugate() == f
    rng = random.Random(7)
    for _ in range(20):
        s = random_series(rng, 2, 6)
        assert s.conjugate().conjugate() == s


def test_hbar_shift():
    f = WickSeries.monomial(1, 6, 1, 0, (2,), (1,))
    up = f.hbar_shift(2)
    assert up.coefficient(2, (2,), (1,)) == 1
    down = f.hbar_shift(-4)
    assert down.coefficient(-4, (2,), (1,)) == 1
    assert down.min_degree() == -1 and not down.is_plain()
    # shifting up can push terms beyond trunc: they are dropped
    g = WickSeries.monomial(1, 4, 1, 0, (2,), (2,))
    assert not g.hbar_shift(2)


def test_degree_slice_and_min_degree():
    f = WickSeries(1, 6, {(0, (1,), (1,)): 1, (2, (1,), (1,)): 2, (0, (3,), (0,)): 5})
    assert f.min_degree() == 2
    sl = f.degree_slice(3)
    assert sl.coefficient(0, (3,), (0,)) == 5
    assert len(sl) == 1
    assert WickSeries.zero(1, 3).min_degree() is None


def test_predicates():
    hol = WickSeries(2, 5, {(2, (1, 0), (0, 0)): 1, (0, (0, 2), (0, 0)): 1})
    assert hol.is_holomorphic()
    assert not hol.is_antiholomorphic()
    assert hol.is_plain()
    ext = WickSeries(1, 5, {(-2, (3,), (0,)): 1})
    assert not ext.is_plain()


def test_records_round_trip():
    rng = random.Random(13)
    for _ in range(10):
        s = random_series(rng, 2, 6, n_terms=5)
        back = WickSeries.from_records(2, 6, s.to_records())
        assert back == s


def test_str_formatting():
    s = WickSeries(1, 4, {(0, (1,), (1,)): 1, (2, (0,), (0,)): -1})
    assert str(s) == "y yb - h"
    t = WickSeries(2, 7, {(4, (1, 0), (0, 2)): Fraction(3, 2)})
    assert str(t) == "3/2 h^2 y1 yb2^2"
    assert str(WickSeries.zero(1, 2)) == "0"
    odd = WickSeries(1, 4, {(3, (1,), (0,)): 1})
    assert str(odd) == "h^(3/2) y"


def test_hbar_series_arithmetic():
    a = hseries(6, {0: 1, 2: -1})
    b = hseries(6, {2: 1, 4: Fraction(1, 2)})
    assert (a + b).coefficient(2) == 0
    assert (a * b).coefficient(2) == 1
    assert (a * b).coefficient(4) == Fraction(1, 2) - 1
    assert (a * b).coefficient(6) == -Fraction(1, 2)
    assert (a * b).coefficient(8) == 0  # beyond trunc
    assert a.hbar_shift(2).coefficient(4) == -1
    assert WickSeries.unit(0, 4) == hseries(4, {0: 1})
    with pytest.raises(TruncationMismatch):
        a + hseries(4)


@pytest.mark.parametrize("terms", [
    {-2: 3, 0: 1, 1: ComplexRational(0, 2), 4: Fraction(-1, 2)},
    {0: ComplexRational(2, -1), 2: 1, 6: Fraction(5, 3)},
    {2: Fraction(1, 3), 3: -1, 6: ComplexRational(1, 1)},
], ids=["negative-low", "zero-low", "positive-low"])
def test_reciprocal_of_a_series_in_h(terms):
    trunc = 8
    s = hseries(trunc, terms)
    low = s.min_degree()
    inverse = s.reciprocal()
    assert inverse.min_degree() == -low
    assert inverse.coefficient(-low) == 1 / ComplexRational.coerce(terms[low])
    # the documented window: any series that agrees with s through trunc
    # has an inverse that agrees with this one through trunc - 2 low
    longer = hseries(trunc + 6, {**terms, trunc + 1: 5, trunc + 2: -7})
    window = min(trunc, trunc - 2 * low)
    assert longer.reciprocal().retruncate(window) == inverse.retruncate(window)
    # the product also meets s's lowest power, so it is 1 through trunc - |low|
    reach = trunc - abs(low)
    assert (s * inverse).retruncate(reach) == WickSeries.unit(0, reach)
    with pytest.raises(ZeroDivisionError):
        hseries(trunc).reciprocal()


def test_power_terms_stop_at_the_first_zero_term():
    t = WickSeries.monomial(1, 6, 1, 0, (1,), (1,))
    products = []

    def product(a, b):
        products.append(a)
        return a * b

    terms = list(power_terms(t, t, product))
    assert terms == [WickSeries.monomial(1, 6, 1, 0, (k,), (k,)) for k in (1, 2, 3)]
    assert products == terms  # t^4 was formed once, found zero, and not yielded
    assert list(power_terms(WickSeries.zero(1, 6), t, product)) == []
    # a zero x ends the run after the first term, without a product
    assert list(power_terms(t, WickSeries.zero(1, 6), product)) == [t]
    assert len(products) == 3
    h = hseries(6, {2: 1})
    assert list(power_terms(h, h, mul)) == [hseries(6, {k: 1}) for k in (2, 4, 6)]


def test_power_terms_need_positive_degrees():
    unit = WickSeries.unit(1, 6)
    degree_zero = [unit,
                   WickSeries.monomial(1, 6, 1, -2, (1,), (1,)),
                   WickSeries.monomial(1, 6, 1, 0, (1,), (0,)) + 1]
    for x in degree_zero:
        with pytest.raises(PreconditionError, match="found 0"):
            next(power_terms(unit, x, mul))
    with pytest.raises(PreconditionError, match="found 0"):
        next(power_terms(WickSeries.unit(0, 6), hseries(6, {0: 1, 2: 1}), mul))


def test_hbar_series_records_and_str():
    a = hseries(6, {0: Fraction(1, 3), 3: -2})
    assert a.to_records()[0] == {"k2": 0, "re": "1/3", "im": "0"}
    back = WickSeries.from_records(0, 6, [dict(rec, I=[], J=[])
                                          for rec in a.to_records()])
    assert back == a
    assert str(a) == "1/3 - 2 h^(3/2)"


def test_constant_part_extraction():
    f = WickSeries(1, 6, {(0, (0,), (0,)): 2, (4, (0,), (0,)): -1, (2, (1,), (1,)): 9})
    c = f.constant_part()
    assert c == hseries(6, {0: 2, 4: -1})


def test_iter_multi_indices_and_factorial():
    found = list(iter_multi_indices(2, 2))
    assert len(found) == 6
    assert (1, 1) in found and (0, 2) in found
    assert mi_factorial((3, 2)) == 12
    assert mi_factorial((0,)) == 1
