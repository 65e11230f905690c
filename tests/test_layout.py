"""The packed key layout: one integer per term, against tuple-keyed references.

A term's key holds its degree above one byte per exponent, so slices,
shifts and conjugation are integer operations and products add keys.  The
references in ``support`` read plain ``{(k2, I, J): coefficient}`` dicts.
The inputs carry negative and odd k2 and exponents of 10 and more, where a
field that spills into its neighbour would show.
"""

import json
import random
from fractions import Fraction
from operator import mul

import pytest

from wickjet import jets
from wickjet.cli import COMPUTE_EXIT, PARSE_EXIT, TRUNC_CEILING, main
from wickjet.coefficients import ComplexRational
from wickjet.cp1 import FactorialRational, fs_ratio_symbol, mobius_pullback
from wickjet.errors import PreconditionError
from wickjet.integrals import _moments
from wickjet.jets import (PotentialJets, fubini_study_potential, k_normalize,
                          random_real_analytic_potential, volume_log_jets, weight_series)
from wickjet.series import EXPONENT_LIMIT, WickSeries, pack, unpack
from wickjet.wick import (classical_exp, fock_act, log_series, star_exp, star_inverse,
                          star_log, wick_star)

from support import (
    count_calls,
    hseries,
    random_coefficient,
    random_series,
    read_back,
    record_empty_series,
    reference_exp_series,
    reference_log_series,
    reference_substitute,
    reference_antiholomorphic_part,
    reference_coefficient,
    reference_conjugate,
    reference_constant_part,
    reference_degree,
    reference_degree_slice,
    reference_fock_act,
    reference_hbar_shift,
    reference_holomorphic_part,
    reference_is_plain,
    reference_min_degree,
    reference_moment,
    reference_product,
    reference_records,
    reference_retruncate,
    reference_star,
    reference_str,
    written_records,
)

TRUNC = 20


def _random_terms(rng, dim: int, n_terms: int) -> dict:
    """Terms with exponents up to 40 and k2 from well below zero, odd or even."""
    terms = {}
    for _ in range(n_terms):
        I = tuple(rng.choice((0, 1, 3, 10, 17, 40)) for _ in range(dim))
        J = tuple(rng.choice((0, 2, 11, 25)) for _ in range(dim))
        spent = sum(I) + sum(J)
        k2 = rng.randint(-spent - 5, TRUNC - spent)
        terms[(k2, I, J)] = random_coefficient(rng)
    return terms


def _cases():
    rng = random.Random(2024)
    cases = []
    for dim in (0, 1, 2, 3):
        for n_terms in (0, 1, 4, 9):
            cases.append((dim, _random_terms(rng, dim, n_terms)))
    return cases


CASES = _cases()


def _ordered(terms) -> bool:
    return list(terms) == sorted(terms)


@pytest.mark.parametrize("dim, terms", CASES)
def test_layout_matches_the_tuple_reference(dim, terms):
    s = WickSeries(dim, TRUNC, terms)
    assert s.terms == terms and _ordered(s.terms)
    derived = [
        (s.conjugate(), reference_conjugate(terms)),
        (s.hbar_shift(-3), reference_hbar_shift(terms, -3)),
        (s.retruncate(TRUNC + 5).hbar_shift(5), reference_hbar_shift(terms, 5)),
        (s.retruncate(7), reference_retruncate(terms, 7)),
        (s.constant_part(), reference_constant_part(terms)),
        (s.holomorphic_part(), reference_holomorphic_part(terms)),
        (s.antiholomorphic_part(), reference_antiholomorphic_part(terms)),
    ]
    derived += [(s.degree_slice(d), reference_degree_slice(terms, d))
                for d in {reference_degree(k) for k in terms} | {-1, 0}]
    for got, want in derived:
        assert got.terms == want and _ordered(got.terms)
    assert s.constant_part().dim == 0
    assert s.min_degree() == reference_min_degree(terms)
    assert s.is_plain() == reference_is_plain(terms)
    assert s.is_holomorphic() == (reference_holomorphic_part(terms) == terms)
    for k2, I, J in terms:
        assert s.coefficient(k2, I, J) == reference_coefficient(terms, k2, I, J)
        assert unpack(dim, pack(dim, k2, I, J)) == (k2, I, J)
        assert s.coefficient(k2 + 1, I, J) == reference_coefficient(terms, k2 + 1, I, J)


@pytest.mark.parametrize("dim, terms", CASES)
def test_writers_keep_the_tuple_order(dim, terms):
    """Keys sort by degree first, tuples by k2 first: the writers use tuple order."""
    s = WickSeries(dim, TRUNC, terms)
    assert str(s) == reference_str(s)
    records = written_records(s)
    assert records == reference_records(s)
    keys = [(r["k2"], tuple(r.get("I", ())), tuple(r.get("J", ()))) for r in records]
    assert keys == sorted(terms) == list(s.terms)
    back = read_back(dim, TRUNC, [dict(r, I=list(k[1]), J=list(k[2]))
                                  for r, k in zip(records, keys)])
    assert back == s


def test_the_cases_cover_the_listed_shapes():
    """Negative and odd k2 and exponents of 10 or more at every dim; degree
    order and (k2, I, J) order disagree, so the tests above bite."""
    for dim in (1, 2, 3):
        keys = [k for d, terms in CASES if d == dim for k in terms]
        assert any(k2 < 0 for k2, _, _ in keys) and any(k2 % 2 for k2, _, _ in keys)
        assert any(max(I) >= 10 for _, I, _ in keys) and any(max(J) >= 10 for _, _, J in keys)
    assert any(sorted(terms) != sorted(terms, key=lambda k: (reference_degree(k), k))
               for _, terms in CASES)


@pytest.mark.parametrize("dim", [1, 2])
def test_coefficient_of_an_impossible_term_is_zero(dim):
    s = WickSeries(dim, TRUNC, {(-5, (3,) * dim, (2,) * dim): 7})
    zero = (0,) * dim
    assert s.coefficient(-5, (3,) * dim, (2,) * dim) == 7
    for I, J in [((EXPONENT_LIMIT,) + zero[1:], zero), (zero, (200,) * dim),
                 ((-1,) + zero[1:], zero), ((3,) * (dim + 1), (2,) * dim)]:
        assert s.coefficient(0, I, J) == 0
        assert s.coefficient(-5, I, J) == 0


# ---------------------------------------------------------------------------
# the exponent limit


LIMIT_TERMS = [
    (1, (-EXPONENT_LIMIT, (EXPONENT_LIMIT,), (0,))),
    (1, (-EXPONENT_LIMIT, (0,), (EXPONENT_LIMIT,))),
    (2, (-300, (1, 200), (0, 0))),
]


@pytest.mark.parametrize("dim, key", LIMIT_TERMS)
def test_outside_input_at_the_limit_is_rejected(dim, key):
    k2, I, J = key
    with pytest.raises(ValueError, match=f"limit {EXPONENT_LIMIT}") as info:
        WickSeries(dim, 6, {key: 1})
    assert "\n" not in str(info.value)
    record = {"k2": k2, "I": list(I), "J": list(J), "re": "1"}
    with pytest.raises(ValueError, match=f"limit {EXPONENT_LIMIT}"):
        WickSeries.from_records(dim, 6, [record])
    # one below the limit is accepted
    below = tuple(min(e, EXPONENT_LIMIT - 1) for e in I)
    below_j = tuple(min(e, EXPONENT_LIMIT - 1) for e in J)
    kept = WickSeries(dim, 6, {(-sum(below) - sum(below_j), below, below_j): 1})
    assert kept.coefficient(-sum(below) - sum(below_j), below, below_j) == 1


def _job(tmp_path, lhs, rhs):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"mode": "wick-star", "dim": 1, "trunc": 4,
                                "lhs": lhs, "rhs": rhs}))
    return str(path)


def _record(k2, i, j=0):
    return {"k2": k2, "I": [i], "J": [j], "re": "1"}


def test_the_cli_rejects_an_exponent_at_the_limit(tmp_path, capsys):
    path = _job(tmp_path, [_record(-EXPONENT_LIMIT, EXPONENT_LIMIT)], [_record(0, 1)])
    assert main(["--job", path]) == PARSE_EXIT
    out, err = capsys.readouterr()
    assert not out and err.count("\n") == 1 and f"limit {EXPONENT_LIMIT}" in err
    # a product that would reach it is a computation error, also one line
    path = _job(tmp_path, [_record(-64, 64)], [_record(-64, 64)])
    assert main(["--job", path]) == COMPUTE_EXIT
    out, err = capsys.readouterr()
    assert not out and err.count("\n") == 1 and "exponent limit" in err


def _power(dim, k2, I, J, coeff=1):
    return WickSeries(dim, 4, {(k2, I, J): coeff})


def test_a_product_that_reaches_the_limit_raises():
    y64 = _power(1, -64, (64,), (0,))
    yb64 = _power(1, -64, (0,), (64,))
    for op, f, g in [(WickSeries.__mul__, y64, y64), (wick_star, y64, y64),
                     (WickSeries.__mul__, yb64, yb64), (wick_star, yb64, yb64)]:
        with pytest.raises(PreconditionError, match="exponent limit"):
            op(f, g)
    # the right field of a dim-2 key, next to a left field of 1
    f = _power(2, -100, (1, 100), (0, 0))
    with pytest.raises(PreconditionError, match="exponent limit"):
        f * f


def test_a_product_just_below_the_limit_is_exact():
    f = _power(2, -66, (1, 63), (0, 2), 3)
    g = _power(2, -69, (0, 64), (5, 0), -2)
    for op, reference in [(WickSeries.__mul__, reference_product),
                          (wick_star, reference_star)]:
        got = op(f, g)
        assert got == reference(f, g)
        assert got.terms == reference(f, g).terms
    assert (f * g).terms == {(-135, (1, 127), (5, 2)): -6}
    # the Fock and moment rules pass sums past the limit through their
    # tables, but their outputs stay below it
    lowering = _power(1, -200, (100,), (100,))
    state = _power(1, -100, (100,), (0,))
    got = fock_act(lowering, state)
    assert got == reference_fock_act(lowering, state) and got
    h, e = _power(1, -150, (100,), (50,)), _power(1, -150, (50,), (100,))
    got = _moments(h, e)
    assert got == reference_moment(h, e) and got


def _largest_exponent(series: WickSeries) -> int:
    return max(max(I + J) for _, I, J in (unpack(series.dim, k) for k in series.num))


@pytest.mark.parametrize("potential, trunc", [
    (lambda: fubini_study_potential(1, TRUNC_CEILING), TRUNC_CEILING),
    (lambda: fubini_study_potential(2, 10), 10),
    (lambda: k_normalize(random_real_analytic_potential(3, 2, 10))[0], 10),
], ids=["fubini-study-1", "fubini-study-2", "random-2"])
def test_the_largest_admitted_weights_stay_below_the_limit(potential, trunc):
    exponential = weight_series(potential(), trunc).exponential()
    largest = _largest_exponent(exponential)
    assert 0 < largest <= 3 * TRUNC_CEILING < EXPONENT_LIMIT


# ---------------------------------------------------------------------------
# power series summed once, identity coordinates tested on keys


def test_power_series_equal_repeated_addition():
    rng = random.Random(11)
    cases = [hseries(6, {1: Fraction(1, 3), 4: -2})]
    cases += [random_series(rng, dim, 6, min_degree=1) for dim in (1, 2) for _ in range(4)]
    for x in cases:
        assert classical_exp(x) == reference_exp_series(x, mul)
        u = star_exp(x)
        assert u == reference_exp_series(x, wick_star)
        assert star_log(u) == x == reference_log_series(u - WickSeries.unit(x.dim, 6),
                                                        wick_star)
    for dim, order in ((1, 8), (2, 6)):
        norm = WickSeries(dim, order, {(0, I, I): 1 for I in (
            tuple(int(k == i) for k in range(dim)) for i in range(dim))})
        assert fubini_study_potential(dim, order).varphi == \
            reference_log_series(norm, mul)


def _one_sum_cases() -> dict:
    """A function of no arguments by name, its inputs built beforehand."""
    rng = random.Random(12)
    fubini_study = fubini_study_potential(3, 8)
    u = star_exp(random_series(rng, 2, 6, min_degree=1))
    x = random_series(rng, 2, 6, min_degree=1)
    w = ComplexRational(Fraction(1, 3), Fraction(1, 2))
    return {"volume-log": lambda: volume_log_jets(fubini_study),
            "star-inverse": lambda: star_inverse(u),
            "reciprocal": hseries(8, {2: 3, 3: Fraction(-1, 2), 6: 5}).reciprocal,
            "mobius": lambda: mobius_pullback(fs_ratio_symbol(), w),
            "classical-exp": lambda: classical_exp(x),
            "log-series": lambda: log_series(x, mul)}


@pytest.mark.parametrize("name", ["volume-log", "star-inverse", "reciprocal", "mobius",
                                  "classical-exp", "log-series"])
def test_sums_of_several_series_are_built_once(monkeypatch, name):
    """Each sum is one ``linear_combination`` call, not a chain of ``+``."""
    run = _one_sum_cases()[name]
    added = count_calls(monkeypatch, WickSeries, "__add__")
    assert run() and not added


def test_constructors_build_no_throwaway_series(monkeypatch):
    """A series of a given dim, trunc and terms is built directly, not from
    an empty series made first to copy the dim and trunc from."""
    fs = fubini_study_potential(2, 6)
    records = written_records(fs.varphi, "k2")
    empty = record_empty_series(monkeypatch)
    built = [WickSeries.unit(2, 4), jets._norm_squared(2, 4), *jets._identity_coords(2, 4),
             fubini_study_potential(3, 6).varphi,
             PotentialJets.from_records(2, 6, records).varphi,
             volume_log_jets(PotentialJets(fs.varphi, normalized=True)),
             FactorialRational(1, (1,), (2, 3)).expand_at_infinity(3),
             fs.varphi.retruncate(3), (fs.varphi + 1).constant_part()]
    assert all(built) and not empty


def test_k_normalize_builds_the_identity_coordinates_once(monkeypatch):
    built = count_calls(monkeypatch, jets, "_identity_coords")
    normalized, coords, _ = k_normalize(random_real_analytic_potential(904426, 1, 8))
    assert len(built) == 1 and normalized.normalized
    # the second normalization finds identity coordinates on keys alone
    again, identity, frame = k_normalize(normalized)
    assert again == normalized and not frame and len(built) == 2
    assert identity == (WickSeries.monomial(1, 8, 1, 0, (1,), (0,)),)


@pytest.mark.parametrize("dim", [1, 2])
def test_only_identity_coordinates_count_as_identity(dim):
    trunc = 5
    y = [WickSeries.monomial(dim, trunc, 1, 0, tuple(int(k == i) for k in range(dim)),
                             (0,) * dim) for i in range(dim)]
    series = WickSeries(dim, trunc, {(0, (1,) * dim, (2,) + (0,) * (dim - 1)): 3,
                                     (0, (2,) + (0,) * (dim - 1), (0,) * dim): 1})
    assert jets._substitute([series], y)[0] is series
    # another coefficient, another denominator, an extra term, another order
    near = [[y[0].scale(2)] + y[1:],
            [y[0].scale(Fraction(4, 3))] + y[1:],
            [y[0] + y[0] * y[0]] + y[1:]]
    if dim == 2:
        near.append(y[::-1])
    for subs in near:
        got, = jets._substitute([series], subs)
        assert got is not series and got == reference_substitute(series, subs)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_identity_metric_is_read_on_the_keys(dim):
    rng = random.Random(dim)
    units = [tuple(int(k == i) for k in range(dim)) for i in range(dim)]
    identity = [[int(i == j) for j in range(dim)] for i in range(dim)]
    norm = WickSeries(dim, 6, {(0, y, y): 1 for y in units})
    cases = [norm, fubini_study_potential(dim, 6).varphi,
             norm + WickSeries.monomial(dim, 6, Fraction(1, 3), 0, (3,) * dim, (2,) * dim),
             norm.scale(2), norm.scale(Fraction(1, 2)), norm + norm.scale(ComplexRational(0, 1))]
    cases += [norm + WickSeries.monomial(dim, 6, c, 0, units[i], units[j])
              for i in range(dim) for j in range(dim)
              for c in (random_coefficient(rng), -1)]
    for seed in range(4):
        raw = random_real_analytic_potential(seed, dim, 6)
        cases += [raw.varphi, k_normalize(raw)[0].varphi]
    found = [jets._has_identity_metric(s) for s in cases]
    assert found == [jets._one_one_matrix(s, dim) == identity for s in cases]
    assert True in found and False in found
