import random
import time
from fractions import Fraction

import pytest
import sympy as sp

from wickjet import jets as jets_module
from wickjet.coefficients import ComplexRational
from wickjet.errors import DegreeWindowError, DimensionMismatch, PreconditionError
from wickjet.jets import (
    _substitute,
    PotentialJets,
    apply_normalization,
    flat_potential,
    fubini_study_potential,
    k_normalize,
    random_real_analytic_potential,
    volume_log_jets,
    weight_series,
)
from wickjet.series import WickSeries, mi_zero

from support import (
    _sympy_symbols,
    count_calls,
    permutation_volume_log,
    random_coefficient,
    random_multi_index,
    reference_k_normalize,
    reference_substitute,
    sympy_to_series,
    written_records,
)


def e(dim, i):
    return tuple(1 if k == i else 0 for k in range(dim))


def jets(dim, order, mapping):
    """A classical series from ``{(I, J): coefficient}``."""
    return WickSeries(dim, order, {(0, I, J): c for (I, J), c in mapping.items()})


def potential(dim, order, mapping, normalized=False):
    return PotentialJets(jets(dim, order, mapping), normalized)


def holomorphic(dim, order, mapping):
    return WickSeries(dim, order, {(0, I, (0,) * dim): c for I, c in mapping.items()})


def identity_coords(dim, order):
    return tuple(holomorphic(dim, order, {e(dim, i): 1}) for i in range(dim))


# ---------------------------------------------------------------------------
# construction


def test_potential_reality_enforced():
    with pytest.raises(PreconditionError):
        potential(1, 4, {((2,), (0,)): 1})  # missing conjugate partner
    p = potential(1, 4, {((2,), (0,)): ComplexRational(0, 1),
                         ((0,), (2,)): ComplexRational(0, -1)})
    assert p.varphi.coefficient(0, (2,), (0,)) == ComplexRational(0, 1)
    with pytest.raises(PreconditionError):
        PotentialJets(WickSeries(1, 4, {(2, (1,), (1,)): 1}))  # an h-power


def test_potential_window_and_flag_validation():
    with pytest.raises(PreconditionError, match="order-3 window"):
        PotentialJets.from_records(1, 3, [{"I": [2], "J": [2], "re": "1"}])
    with pytest.raises(DimensionMismatch, match="multi-index length"):
        PotentialJets.from_records(1, 3, [{"I": [1, 0], "J": [1], "re": "1"}])
    with pytest.raises(PreconditionError, match="k2=2"):
        PotentialJets.from_records(1, 3, [{"k2": 2, "I": [1], "J": [1], "re": "1"}])
    with pytest.raises(PreconditionError):
        potential(1, 4, {((1,), (1,)): 2}, normalized=True)
    with pytest.raises(PreconditionError):
        potential(2, 4, {(e(2, 0), e(2, 0)): 1, (e(2, 1), e(2, 1)): 1,
                         (e(2, 0), e(2, 1)): Fraction(1, 2),
                         (e(2, 1), e(2, 0)): Fraction(1, 2)}, normalized=True)
    # the identity metric plus terms of bidegree (2, 1) and (1, 2), or (2, 0) and (0, 2)
    for extra in ({((2,), (1,)): 1, ((1,), (2,)): 1}, {((2,), (0,)): 1, ((0,), (2,)): 1}):
        with pytest.raises(PreconditionError, match="not in normal form"):
            potential(1, 4, {((1,), (1,)): 1, **extra}, normalized=True)


def test_psi_excluded_from_equality():
    assert flat_potential(1, 6) == potential(1, 6, {((1,), (1,)): 1},
                                             normalized=True)
    assert potential(1, 6, {((1,), (1,)): 1}).psi is None


def test_psi_is_computed_on_first_read_and_kept(monkeypatch):
    calls = count_calls(monkeypatch, jets_module, "volume_log_jets")
    raw = random_real_analytic_potential(3, 2, 6)
    normalized, coords, frame = k_normalize(raw)
    cases = [PotentialJets(fubini_study_potential(3, 6).varphi, normalized=True),
             apply_normalization(raw, coords, frame),
             PotentialJets(normalized.varphi, normalized=True),
             normalized]
    assert all(p.normalized for p in cases) and calls == []
    assert raw.psi is None and calls == []
    for count, p in enumerate(cases, start=1):
        psi = p.psi
        assert len(calls) == count and calls[-1][0] is p
        assert p.psi is psi and len(calls) == count
        assert psi == permutation_volume_log(p.varphi)


# ---------------------------------------------------------------------------
# built-in potentials


def test_fubini_study_frozen_jets():
    fs = fubini_study_potential(1, 6)
    assert fs.normalized
    assert fs.varphi == jets(1, 6, {((1,), (1,)): 1,
                                    ((2,), (2,)): Fraction(-1, 2),
                                    ((3,), (3,)): Fraction(1, 3)})
    assert fs.psi == jets(1, 4, {((1,), (1,)): -2, ((2,), (2,)): 1})


@pytest.mark.parametrize("dim, top", [(1, 12), (2, 12), (3, 8), (4, 8)])
def test_fubini_study_is_kahler_einstein(dim, top):
    """log det g = -(n+1) varphi on CP^n: the attached psi and the trace-log
    of the same jets both give it, at every order through ``top``."""
    for order in range(2, top + 1):
        fs = fubini_study_potential(dim, order)
        expected = fs.varphi.retruncate(order - 2).scale(-(dim + 1))
        assert fs.psi == expected
        assert volume_log_jets(PotentialJets(fs.varphi, normalized=True)) == expected


def test_fubini_study_jets_are_written_by_total_degree():
    """dim 8, order 16 has 12869 jets; the box of exponents up to order/2
    has 9^8 = 43M points."""
    start = time.perf_counter()
    fs = fubini_study_potential(8, 16)
    assert time.perf_counter() - start < 2
    assert len(fs.varphi) == 12869 and len(fs.psi) == 6434
    assert fs.varphi.coefficient(0, (2, 1, 0, 0, 0, 0, 0, 1), (2, 1, 0, 0, 0, 0, 0, 1)) \
        == -3  # (-1)^(4+1) 3!/(2! 1! 1!)


def test_flat_potential_volume_log_is_zero():
    assert volume_log_jets(flat_potential(2, 6)) == WickSeries.zero(2, 4)
    assert flat_potential(2, 6).psi == WickSeries.zero(2, 4)


def test_fubini_study_n2_volume_log():
    psi = volume_log_jets(fubini_study_potential(2, 6))
    assert psi == jets(2, 4, {(e(2, 0), e(2, 0)): -3,
                              (e(2, 1), e(2, 1)): -3,
                              ((2, 0), (2, 0)): Fraction(3, 2),
                              ((1, 1), (1, 1)): 3,
                              ((0, 2), (0, 2)): Fraction(3, 2)})


# ---------------------------------------------------------------------------
# normalization


def test_normalize_is_identity_on_normal_form():
    fs = fubini_study_potential(1, 6)
    normalized, coords, frame = k_normalize(fs)
    assert normalized == fs
    assert coords == identity_coords(1, 6)
    assert not frame


def test_normalize_removes_linear_by_frame():
    raw = potential(1, 4, {((1,), (1,)): 1, ((1,), (0,)): 1, ((0,), (1,)): 1})
    normalized, coords, frame = k_normalize(raw)
    assert normalized == flat_potential(1, 4)
    assert coords == identity_coords(1, 4)
    assert frame == holomorphic(1, 4, {(1,): 1})


def test_normalize_cubic_coordinate_change():
    raw = potential(1, 3, {((1,), (1,)): 1, ((2,), (1,)): 1, ((1,), (2,)): 1})
    normalized, coords, frame = k_normalize(raw)
    assert normalized.varphi == jets(1, 3, {((1,), (1,)): 1})
    assert coords == (holomorphic(1, 3, {(1,): 1, (2,): -1}),)
    assert not frame


def test_normalize_rescales_quadratic_part():
    raw = potential(1, 4, {((1,), (1,)): 4})
    normalized, coords, frame = k_normalize(raw)
    assert normalized == flat_potential(1, 4)
    assert coords == (holomorphic(1, 4, {(1,): Fraction(1, 2)}),)


def test_normalize_mixed_quadratic_n2():
    c = Fraction(3, 5)
    raw = potential(2, 4, {(e(2, 0), e(2, 0)): 1, (e(2, 1), e(2, 1)): 1,
                           (e(2, 0), e(2, 1)): c, (e(2, 1), e(2, 0)): c})
    normalized, coords, frame = k_normalize(raw)
    assert normalized == flat_potential(2, 4)
    assert not frame
    assert apply_normalization(raw, coords, frame) == normalized


def test_apply_normalization_checks_its_series():
    raw = potential(2, 4, {(e(2, 0), e(2, 0)): 1, (e(2, 1), e(2, 1)): 1})
    coords = identity_coords(2, 4)
    frame = WickSeries.zero(2, 4)
    assert apply_normalization(raw, coords, frame) == flat_potential(2, 4)
    y1_yb2 = jets(2, 4, {(e(2, 0), e(2, 1)): 1})
    h_y1 = WickSeries(2, 4, {(2, e(2, 0), (0, 0)): 1})
    for bad_coords, bad_frame in [
            (coords[:1], frame),                          # one series short
            ((coords[0] + y1_yb2, coords[1]), frame),     # not holomorphic
            (coords, y1_yb2),                             # frame not holomorphic
            ((coords[0] + h_y1, coords[1]), frame),       # an h-power
            (coords, h_y1),
            (identity_coords(1, 4) * 2, frame),           # dim mismatch
            (coords, WickSeries.zero(3, 4))]:
        with pytest.raises(PreconditionError):
            apply_normalization(raw, bad_coords, bad_frame)


def test_normalize_rejects_bad_quadratic_parts():
    with pytest.raises(PreconditionError):
        k_normalize(potential(1, 4, {((1,), (1,)): 3}))  # pivot not a square
    with pytest.raises(PreconditionError):
        k_normalize(potential(1, 4, {((1,), (1,)): -1}))
    with pytest.raises(PreconditionError):
        k_normalize(potential(2, 4, {(e(2, 0), e(2, 0)): 1,
                                     (e(2, 1), e(2, 1)): -1}))
    with pytest.raises(PreconditionError):
        k_normalize(potential(1, 4, {((2,), (2,)): 1}))  # degenerate


def test_diagonalizing_change_is_upper_triangular_with_positive_diagonal():
    # B^dagger M B = Id with B upper triangular and diag(B) > 0 pins B uniquely
    rng = random.Random(2)
    for dim in range(1, 7):
        identity = [[ComplexRational(int(i == j)) for j in range(dim)] for i in range(dim)]
        for _ in range(6):
            lower = [[ComplexRational(1 if i == j else 0) if j >= i else
                      ComplexRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                      Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                      for j in range(dim)] for i in range(dim)]
            squares = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) ** 2
                       for _ in range(dim)]
            m = [[sum((lower[i][k] * lower[j][k].conjugate() * squares[k]
                       for k in range(dim)), ComplexRational())
                  for j in range(dim)] for i in range(dim)]
            b = jets_module._diagonalizing_change(m, dim)
            product = [[sum((b[k][i].conjugate() * m[k][l] * b[l][j]
                             for k in range(dim) for l in range(dim)), ComplexRational())
                        for j in range(dim)] for i in range(dim)]
            assert product == identity
            assert all(not b[i][j] for i in range(dim) for j in range(i))
            assert all(not b[i][i].im and b[i][i].re > 0 for i in range(dim))


NOT_POSITIVE = "the (1,1) part is not positive definite"
NOT_SQUARE = ("quadratic pivot 2 is not a perfect rational square; "
              "the (1,1) part cannot be diagonalized exactly")


@pytest.mark.parametrize("pivots, message", [
    # every pivot is checked for positivity before any for a square root
    ((2, -1), NOT_POSITIVE),
    ((4, 2), NOT_SQUARE),
], ids=["not-positive", "not-square"])
def test_diagonalization_errors_and_their_order(pivots, message):
    raw = potential(2, 4, {(e(2, i), e(2, i)): c for i, c in enumerate(pivots)})
    with pytest.raises(PreconditionError) as error:
        k_normalize(raw)
    assert str(error.value) == message


def test_normalize_random_round_trips():
    for seed in range(20):
        dim = 1 + seed % 3
        order = 5 if dim == 3 else 6
        raw = random_real_analytic_potential(seed, dim, order)
        normalized, coords, frame = k_normalize(raw)
        assert normalized.normalized
        assert apply_normalization(raw, coords, frame) == normalized
        again, coords2, frame2 = k_normalize(normalized)
        assert again == normalized
        assert coords2 == identity_coords(dim, order)
        assert not frame2
        # the weight assembled from the result is admissible by construction
        w = weight_series(normalized, order)
        assert w.is_real and w.toeplitz_admissible and w.refined


def test_normalized_volume_log_never_purely_holomorphic():
    for seed in range(15):
        dim = 1 + seed % 2
        normalized, _, _ = k_normalize(
            random_real_analytic_potential(100 + seed, dim, 6))
        for (_, I, J) in normalized.psi.terms:
            assert any(I) and any(J), (seed, I, J)


# ---------------------------------------------------------------------------
# volume-log jets against an independent symbolic route


def sympy_volume_log(p: PotentialJets) -> WickSeries:
    dim, order = p.dim, p.order
    ys, bs, _ = _sympy_symbols(dim)
    phi = sp.Integer(0)
    for (_, I, J), c in p.varphi.terms.items():
        term = sp.Rational(c.re.numerator, c.re.denominator) \
            + sp.I * sp.Rational(c.im.numerator, c.im.denominator)
        for i in range(dim):
            term *= ys[i] ** I[i] * bs[i] ** J[i]
        phi += term
    metric = sp.Matrix(dim, dim, lambda i, j: sp.diff(phi, ys[i], bs[j]))
    eps = sp.Symbol("eps")
    scaled = sp.log(metric.det()).subs(
        {s: eps * s for s in list(ys) + list(bs)})
    expanded = sp.series(scaled, eps, 0, order - 1).removeO().subs(eps, 1)
    return sympy_to_series(sp.expand(expanded), dim, order - 2)


def test_volume_log_matches_sympy():
    cases = [fubini_study_potential(1, 6), fubini_study_potential(2, 5)]
    for seed in (7, 8, 9):
        cases.append(k_normalize(random_real_analytic_potential(seed, 1, 6))[0])
    cases.append(k_normalize(random_real_analytic_potential(11, 2, 5))[0])
    for p in cases:
        assert volume_log_jets(p) == sympy_volume_log(p)


def test_volume_log_requires_unit_determinant():
    with pytest.raises(PreconditionError):
        volume_log_jets(potential(1, 4, {((1,), (1,)): 2}))
    with pytest.raises(PreconditionError):
        volume_log_jets(potential(1, 4, {((2,), (2,)): 1}))


def exact_multi_index(rng, dim, degree):
    index = [0] * dim
    for _ in range(degree):
        index[rng.randrange(dim)] += 1
    return tuple(index)


def near_normal_potential(seed, dim, order, quadratic=None, n_terms=4):
    """A given (identity by default) quadratic part plus random real jets."""
    rng = random.Random(seed)
    varphi = {}
    for (i, j), c in (quadratic or {(i, i): 1 for i in range(dim)}).items():
        varphi[(e(dim, j), e(dim, i))] = ComplexRational.coerce(c)
    for _ in range(n_terms):
        degree = rng.randint(3, order)
        left = rng.randint(1, degree - 1)
        I = exact_multi_index(rng, dim, left)
        J = exact_multi_index(rng, dim, degree - left)
        c = random_coefficient(rng)
        for key, value in (((I, J), c), ((J, I), c.conjugate())):
            varphi[key] = varphi.get(key, ComplexRational()) + value
    return potential(dim, order, varphi)


IDENTITY_METRIC = ("volume-log jets need the identity metric at the point; "
                   "normalize the potential first")


def test_volume_log_matches_permutation_expansion():
    identity = [fubini_study_potential(dim, 6) for dim in range(1, 6)]
    identity += [near_normal_potential(seed, dim, 6 if dim < 5 else 5)
                 for dim in (3, 4, 5) for seed in (1, 2)]
    for p in identity:
        assert volume_log_jets(p) == permutation_volume_log(p.varphi)
    # non-identity metrics of unit determinant need normalizing first
    half = Fraction(1, 2)
    cases = [near_normal_potential(3, 2, 6, {(0, 0): 2, (1, 1): half}),
             near_normal_potential(4, 2, 6, {(0, 0): -1, (1, 1): -1}),
             near_normal_potential(5, 2, 5, {(0, 0): 2, (0, 1): 1,
                                             (1, 0): 1, (1, 1): 1}),
             near_normal_potential(9, 2, 6, {
                 (0, 0): 2, (0, 1): ComplexRational(0, 1),
                 (1, 0): ComplexRational(0, -1), (1, 1): 1}),
             near_normal_potential(6, 3, 5, {(0, 1): 1, (1, 0): 1,
                                             (2, 2): -1})]
    for p in cases:
        with pytest.raises(PreconditionError, match=IDENTITY_METRIC):
            volume_log_jets(p)


def test_volume_log_rejects_non_unit_constant_metrics():
    with pytest.raises(PreconditionError, match=IDENTITY_METRIC):
        volume_log_jets(near_normal_potential(7, 2, 5, {(0, 1): 1, (1, 0): 1}))
    with pytest.raises(PreconditionError, match=IDENTITY_METRIC):
        volume_log_jets(near_normal_potential(8, 2, 5, {
            (0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}))


@pytest.mark.parametrize("dim, order", [(d, o) for d in (1, 2, 3) for o in (6, 7, 8)])
def test_k_normalize_matches_the_per_series_reference(dim, order):
    for seed in range(4):
        raw = random_real_analytic_potential(seed, dim, order)
        assert k_normalize(raw) == reference_k_normalize(raw)


def test_k_normalize_shares_powers_across_its_series(monkeypatch):
    raw = random_real_analytic_potential(2, 4, 8)
    expected = reference_k_normalize(raw)
    calls = count_calls(monkeypatch, WickSeries, "__mul__")
    assert k_normalize(raw) == expected
    # 1716 measured; 4020 when each series builds its own powers, and
    # 31585 with one chain of powers per term
    assert 0 < len(calls) <= 1800


def test_volume_log_series_products_are_polynomial_in_dim(monkeypatch):
    dim, order = 6, 6
    fs = fubini_study_potential(dim, order)
    expected = fs.psi
    calls = []
    real_mul = WickSeries.__mul__

    def counted(self, other):
        calls.append(1)
        return real_mul(self, other)

    monkeypatch.setattr(WickSeries, "__mul__", counted)
    assert volume_log_jets(fs) == expected
    # a dim! determinant expansion makes dim! * dim = 4320 products here
    assert 0 < len(calls) <= (order - 2) * dim ** 3


# ---------------------------------------------------------------------------
# weight assembly


def test_weight_series_flat_is_zero():
    w = weight_series(flat_potential(2, 6), 6)
    assert not w.body


def test_weight_series_fubini_study_frozen():
    w = weight_series(fubini_study_potential(1, 6), 6)
    assert w.body == WickSeries(1, 6, {
        (0, (2,), (2,)): Fraction(1, 2),
        (0, (3,), (3,)): Fraction(-1, 3),
        (2, (1,), (1,)): -2,
        (2, (2,), (2,)): 1,
    })
    assert w.is_real and w.toeplitz_admissible and w.refined


def test_weight_series_preconditions():
    with pytest.raises(PreconditionError):
        weight_series(random_real_analytic_potential(0, 1, 6), 6)
    with pytest.raises(PreconditionError):
        weight_series(fubini_study_potential(1, 4), 6)


# ---------------------------------------------------------------------------
# function jets


def test_function_jets_extended_round_trip():
    # extended function jets carry inverse h-powers; records need a window
    f = WickSeries(1, 4, {(-2, (1,), (0,)): 3, (0, (1,), (1,)): 1})
    records = written_records(f)
    assert records[0] == {"k2": -2, "I": [1], "J": [0], "re": "3", "im": "0"}
    back = WickSeries.from_records(1, 4, records, lower_bound=-2)
    assert back == f and back.min_degree() == -1 and not back.is_plain()
    with pytest.raises(DegreeWindowError):
        WickSeries.from_records(1, 4, records)


def _random_coordinates(rng, dim, trunc, top):
    """Holomorphic series without constant terms, of degrees 1 to ``top``."""
    subs = []
    for _ in range(dim):
        terms = {(0, e(dim, j), mi_zero(dim)): random_coefficient(rng)
                 for j in range(dim) if rng.random() < 0.8}
        for _ in range(rng.randint(0, 3) if top > 1 else 0):
            I = random_multi_index(rng, dim, top)
            if sum(I) >= 2:
                terms[(0, I, mi_zero(dim))] = random_coefficient(rng)
        subs.append(WickSeries(dim, trunc, terms))
    return subs


def _grouped_series(rng, dim, trunc):
    """Several J for one I, and pure antiholomorphic terms."""
    zero = mi_zero(dim)
    terms = {}
    for _ in range(rng.randint(1, 2)):
        I = random_multi_index(rng, dim, trunc - 1)
        for _ in range(3):
            terms[(0, I, random_multi_index(rng, dim, trunc - sum(I)))] = \
                random_coefficient(rng)
    for _ in range(3):
        terms[(0, zero, random_multi_index(rng, dim, trunc))] = random_coefficient(rng)
    return WickSeries(dim, trunc, terms)


def test_substitute_matches_reference():
    rng = random.Random(41)
    linear = higher = several = antiholomorphic = 0
    for dim in (1, 2, 3):
        zero = mi_zero(dim)
        for _ in range(8):
            trunc = rng.randint(3, 7 - dim)
            only_j = random_multi_index(rng, dim, 2)
            if not any(only_j):
                only_j = e(dim, rng.randrange(dim))
            terms = {(0, zero, zero): random_coefficient(rng),
                     (0, zero, only_j): random_coefficient(rng)}
            for _ in range(rng.randint(1, 5)):
                I = random_multi_index(rng, dim, trunc)
                J = random_multi_index(rng, dim, trunc - sum(I))
                terms[(0, I, J)] = random_coefficient(rng)
            series = [WickSeries(dim, trunc, terms), _grouped_series(rng, dim, trunc)]
            top = rng.choice([1, trunc])
            subs = _random_coordinates(rng, dim, trunc, top)
            linear += top == 1
            higher += any(sum(I) >= 2 for s in subs for _, I, _ in s.terms)
            mixed = [I for _, I, J in series[1].terms if any(I) and any(J)]
            several += any(mixed.count(I) >= 2 for I in mixed)
            antiholomorphic += any(sum(J) >= 2 and not any(I)
                                   for _, I, J in series[1].terms)
            # one call substitutes every series through shared powers
            got = _substitute(series, subs)
            assert got == [reference_substitute(s, subs) for s in series]
            assert all(g.is_plain() and all(g.terms.values()) for g in got)
    assert linear and higher and several and antiholomorphic

    coords = [WickSeries.monomial(2, 4, 1, 0, e(2, i), mi_zero(2))
              for i in range(2)]
    plain = jets(2, 4, {((1, 0), (0, 1)): 1})
    moved = [coords[0] + 1, coords[1]]
    with pytest.raises(PreconditionError, match="marked point"):
        _substitute([plain], moved)
    quantum = plain + WickSeries.monomial(2, 4, 1, 2)
    with pytest.raises(PreconditionError, match="classical jets"):
        _substitute([plain, quantum], coords)
    # identity coordinates hand the series back, equal to the reference
    assert _substitute([plain], coords)[0] is plain
    assert reference_substitute(plain, coords) == plain


# ---------------------------------------------------------------------------
# records


def test_jet_records_round_trip():
    fs = fubini_study_potential(1, 6)
    records = [{k: v for k, v in rec.items() if k != "k2"}
               for rec in written_records(fs.varphi)]
    assert records[0] == {"I": [1], "J": [1], "re": "1", "im": "0"}
    assert PotentialJets.from_records(1, 6, records).varphi == fs.varphi
