"""Series text and term records, written and read on the integer layout.

``str`` and ``to_records`` must match the ComplexRational-based reference
in ``support`` byte for byte, and ``from_records`` must read back what they
write; neither direction may build a ComplexRational or the ``terms`` view.
"""

import json
import random
from fractions import Fraction

import pytest

from wickjet.coefficients import ComplexRational
from wickjet.jets import PotentialJets, fubini_study_potential, k_normalize, \
    random_real_analytic_potential
from wickjet.series import WickSeries

from support import count_calls, random_coefficient, random_multi_index, \
    reference_records, reference_str

SPECIAL = [ComplexRational(1), ComplexRational(-1), ComplexRational(0, 1),
           ComplexRational(0, -1), ComplexRational(Fraction(-7, 3)),
           ComplexRational(0, Fraction(-5, 2)), ComplexRational(2, -1)]


def _big(rng) -> Fraction:
    """A 95-digit numerator over at most four digits: a literal the reader takes."""
    return Fraction(rng.choice((1, -1)) * rng.randrange(10 ** 94, 10 ** 95),
                    rng.randrange(1, 10 ** 4))


def _coefficient(rng) -> ComplexRational:
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice(SPECIAL)
    if kind == 1:
        return ComplexRational(_big(rng), _big(rng) if rng.random() < 0.5 else 0)
    if kind == 2:  # purely imaginary
        return ComplexRational(0, Fraction(rng.choice((1, -1)) * rng.randint(1, 9),
                                           rng.randint(1, 6)))
    return random_coefficient(rng)


def _random_series(rng, dim: int) -> WickSeries:
    """Terms with negative and odd k2, of every coefficient kind above."""
    terms = {}
    for _ in range(rng.randint(1, 7)):
        I, J = (random_multi_index(rng, dim, 3) if dim else () for _ in "IJ")
        key = (rng.randint(-4, 6), I, J)
        terms[key] = _coefficient(rng)
    return WickSeries(dim, rng.randint(2, 9), terms)


def _parity_cases() -> list:
    rng = random.Random(20261019)
    cases = [_random_series(rng, dim) for dim in range(4) for _ in range(30)]
    cases += [WickSeries.zero(dim, 4) for dim in range(4)]
    # a series in h alone with a negative constant, which str() brackets
    cases.append(WickSeries(0, 6, {(0, (), ()): Fraction(-3, 2), (3, (), ()): 1}))
    for dim in (1, 2, 3):
        cases.append(fubini_study_potential(dim, 6).varphi)
    for dim, seed in ((1, 0), (2, 3)):
        normalized, coords, frame = k_normalize(
            random_real_analytic_potential(seed, dim, 6))
        cases += [normalized.varphi, normalized.psi, frame, *coords]
    return cases


PARITY_CASES = _parity_cases()


def _ordered(records: list) -> list:
    """Records with their key order, which the JSON report lines keep."""
    return [list(rec.items()) for rec in records]


def test_parity_cases_cover_the_listed_shapes():
    keys = [key for s in PARITY_CASES for key in s.terms]
    coefficients = [s.coefficient(*key) for s in PARITY_CASES for key in s.terms]
    assert {s.dim for s in PARITY_CASES} == {0, 1, 2, 3}
    assert any(k2 < 0 for k2, _, _ in keys) and any(k2 % 2 for k2, _, _ in keys)
    assert all(c in coefficients for c in SPECIAL)
    assert any(len(str(abs(c.re.numerator))) >= 94 for c in coefficients)
    assert any(not c.re and c.im for c in coefficients)
    assert any(not s for s in PARITY_CASES)


@pytest.mark.parametrize("series", PARITY_CASES)
def test_writer_matches_the_complex_rational_reference(series):
    assert str(series) == reference_str(series)
    assert _ordered(series.to_records()) == _ordered(reference_records(series))


@pytest.mark.parametrize("series", PARITY_CASES)
def test_reader_reads_back_what_the_writer_wrote(series):
    records = json.loads(json.dumps(series.to_records()))
    if not series.dim:
        records = [dict(rec, I=[], J=[]) for rec in records]
    low = min(0, series.min_degree() or 0)
    assert WickSeries.from_records(series.dim, series.trunc, records,
                                   lower_bound=low) == series


def test_duplicate_records_that_cancel_leave_no_term():
    rec = {"k2": 1, "I": [1, 0], "J": [0, 2], "re": "2/3", "im": "-5"}
    kept = {"k2": 0, "I": [0, 1], "J": [0, 0], "re": "1/7"}
    s = WickSeries.from_records(2, 6, [rec, kept, dict(rec, re="-4/6", im="5")])
    assert s == WickSeries.from_records(2, 6, [kept]) and len(s) == 1
    assert not WickSeries.from_records(2, 6, [rec, dict(rec, re="-2/3", im="5")])
    jet = {"I": [1], "J": [1], "re": "3/2"}
    jets = PotentialJets.from_records(1, 4, [jet, dict(jet, re="-3/2")])
    assert not jets.varphi


def test_writer_and_reader_build_no_complex_rationals(monkeypatch):
    records = [{"k2": 2, "I": [1, 0], "J": [0, 1], "re": "-2/3", "im": "1/5"},
               {"k2": 0, "I": [0, 0], "J": [0, 0], "re": "1"},
               {"k2": -1, "I": [2, 1], "J": [0, 0], "im": "-1"}]
    calls = count_calls(monkeypatch, ComplexRational, "__init__")
    series = WickSeries.from_records(2, 6, records, lower_bound=-1)
    text, written = str(series), series.to_records()
    assert calls == [] and series._terms is None
    assert text == "(-1i) h^(-1/2) y1^2 y2 + 1 + (-2/3+1/5i) h y1 yb2"
    assert written[0] == {"k2": -1, "I": [2, 1], "J": [0, 0], "re": "0", "im": "-1"}
    # the guard is live: the reference writer reads the terms view, which builds them
    assert text == reference_str(series) and calls
