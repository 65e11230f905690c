import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import support
import wickjet
from wickjet.coefficients import ComplexRational
from operator import mul

from wickjet.errors import (
    DegreeWindowError,
    DimensionMismatch,
    PreconditionError,
    TruncationMismatch,
)
from wickjet.series import (WickSeries, exponential, linear_combination, mi_factorial, pack,
                            power_terms, total_degree, unpack)

from support import hseries, iter_multi_indices, random_series, written_records


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


def test_every_slot_is_guarded_on_every_construction_path():
    """However a series is built, assigning a slot raises, and the cached
    rows and ``terms`` view are filled once and kept."""
    x = random_series(random.Random(32), 2, 6, n_terms=5, min_degree=1)
    assert x and x.min_degree() >= 1
    built = {
        "__init__": WickSeries(2, 6, {(0, (1, 0), (0, 1)): ComplexRational(1, 2)}),
        "_build": x._build({pack(2, 0, (1, 1), (0, 0)): (3, 1)}, 2),
        "linear_combination": linear_combination([(x, (1, 0)), (x.conjugate(), (2, 0))]),
        "conjugate": x.conjugate(),
        "exponential": exponential(x),
    }
    for path, s in built.items():
        assert s._rows is None and s._terms is None, path
        rows, terms = s._sorted_rows(), s.terms
        assert s._sorted_rows() is rows and s.terms is terms, path
        for name in WickSeries.__slots__:
            before = getattr(s, name)
            with pytest.raises(AttributeError, match="immutable"):
                setattr(s, name, None)
            assert getattr(s, name) is before, (path, name)
        with pytest.raises(AttributeError, match="immutable"):
            s.extra = 1


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


def test_conjugate_is_canonical_without_the_gcd_scan(monkeypatch):
    """``conjugate()`` stores its terms as they stand; the ``_build`` route,
    which scans for the gcd, gives the same canonical series."""
    rng = random.Random(29)
    series = [hseries(8, {rng.randint(-3, 8): support.random_coefficient(rng)
                          for _ in range(rng.randint(0, 5))}) for _ in range(30)]
    series += [random_series(rng, dim, rng.randint(0, 8), n_terms=rng.randint(0, 7),
                             min_degree=-3, even_k2_only=False, k2_min=-3)
               for dim in (1, 2, 3) for _ in range(30)]
    assert any(s.den > 1 for s in series) and any(not s for s in series)
    fills = support.count_calls(monkeypatch, WickSeries, "_fill")
    flipped = [s.conjugate() for s in series]
    assert not fills
    for s, conj in zip(series, flipped):
        dim = s.dim
        built = s._build({pack(dim, k2, J, I): (a, -b) for (k2, I, J), (a, b) in
                          ((unpack(dim, key), pair) for key, pair in s.num.items())},
                         s.den)
        assert (conj.dim, conj.trunc, conj.den, conj.num) == \
            (built.dim, built.trunc, built.den, built.num)
        assert conj == WickSeries(dim, s.trunc, support.reference_conjugate(s.terms))


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
    assert hol.is_plain()
    ext = WickSeries(1, 5, {(-2, (3,), (0,)): 1})
    assert not ext.is_plain()


def test_records_round_trip():
    rng = random.Random(13)
    for _ in range(10):
        s = random_series(rng, 2, 6, n_terms=5)
        back = WickSeries.from_records(2, 6, written_records(s))
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
    assert written_records(a)[0] == {"k2": 0, "re": "1/3", "im": "0"}
    back = WickSeries.from_records(0, 6, [dict(rec, I=[], J=[])
                                          for rec in written_records(a)])
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


# the view's own definition; the engine reads num and den, or coefficient()
TERMS_READERS = {"series.WickSeries.terms"}


def _terms_reads(tree: ast.AST, scope: str):
    """(scope, line) of every ``.terms`` attribute read."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}"
        elif isinstance(node, ast.Attribute) and node.attr == "terms":
            yield inner, node.lineno
        yield from _terms_reads(node, inner)


def test_no_engine_module_reads_terms():
    found = []
    for path in sorted(Path(wickjet.__file__).parent.glob("*.py")):
        found += _terms_reads(ast.parse(path.read_text()), path.stem)
    outside = [read for read in found if read[0] not in TERMS_READERS]
    assert not outside, outside
    # the scan sees the reads in the test helpers
    helpers = dict(_terms_reads(ast.parse(Path(support.__file__).read_text()), "support"))
    assert "support.permutation_volume_log" in helpers
