"""Series text and term records, written and read on the integer layout.

``str`` and ``record_lines`` must match the ComplexRational-based reference
in ``support`` byte for byte, and ``from_records`` must read back what they
write; neither direction may build a ComplexRational or the ``terms`` view.
"""

import json
import math
import random
from fractions import Fraction

import pytest

from wickjet.coefficients import LITERAL_DIGITS, ComplexRational
from wickjet.jets import PotentialJets, fubini_study_potential, k_normalize, \
    random_real_analytic_potential
from wickjet.series import WickSeries, pack

from support import count_calls, random_coefficient, random_multi_index, \
    reference_records, reference_str, written_records

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


def test_parity_cases_cover_the_listed_shapes():
    keys = [key for s in PARITY_CASES for key in s.terms]
    coefficients = [s.coefficient(*key) for s in PARITY_CASES for key in s.terms]
    assert {s.dim for s in PARITY_CASES} == {0, 1, 2, 3}
    assert any(k2 < 0 for k2, _, _ in keys) and any(k2 % 2 for k2, _, _ in keys)
    assert all(c in coefficients for c in SPECIAL)
    assert any(len(str(abs(c.re.numerator))) >= 94 for c in coefficients)
    assert any(not c.re and c.im for c in coefficients)
    assert any(c.re and c.im for c in coefficients)
    assert any(c.re.denominator > 1 for c in coefficients)
    assert any(c.re < 0 and c.re.denominator == 1 for c in coefficients)
    # h-only terms: a power of h and no generator, in every dim
    assert {s.dim for s in PARITY_CASES for k2, I, J in s.terms
            if k2 and not any(I + J)} == {0, 1, 2, 3}
    assert {s.dim for s in PARITY_CASES if not s} == {0, 1, 2, 3}


@pytest.mark.parametrize("series", PARITY_CASES)
def test_writer_matches_the_complex_rational_reference(series):
    text, lines, unreadable = series.text_and_record_lines()
    assert text == str(series) == reference_str(series)
    # each record line is json.dumps of the reference record, byte for byte,
    # also with the fields that k-normalize reports leave out of jet records
    for dropped in ((), ("k2",), ("k2", "J")):
        expected = [json.dumps({key: value for key, value in rec.items()
                                if key not in dropped})
                    for rec in reference_records(series)]
        assert series.record_lines(*dropped) == (expected, [])
    assert lines == series.record_lines()[0] and unreadable == []


@pytest.mark.parametrize("series", PARITY_CASES)
def test_reader_reads_back_what_the_writer_wrote(series):
    records = json.loads(json.dumps(written_records(series)))
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
    text, written = str(series), written_records(series)
    assert calls == [] and series._terms is None
    assert text == "(-1i) h^(-1/2) y1^2 y2 + 1 + (-2/3+1/5i) h y1 yb2"
    assert written[0] == {"k2": -1, "I": [2, 1], "J": [0, 0], "re": "0", "im": "-1"}
    # the guard is live: the reference writer reads the terms view, which builds them
    assert text == reference_str(series) and calls


def test_record_lines_name_the_literals_past_the_digit_limit():
    edge = 10 ** LITERAL_DIGITS - 1  # 100 digits: the most a literal may carry
    series = WickSeries(1, 6, {
        (0, (1,), (0,)): -edge,  # the sign does not count
        (0, (0,), (1,)): ComplexRational(1, Fraction(edge, 2)),  # 101 digits
        (2, (0,), (0,)): 10 * edge + 9,  # 101 digits
        (0, (1,), (1,)): Fraction(10 ** 49 + 1, 10 ** 50 + 3)})  # 50 + 51 digits
    lines, unreadable = series.record_lines()
    refused = []
    for number, line in enumerate(lines, 1):
        try:
            WickSeries.from_records(1, 6, [json.loads(line)])
        except ValueError as exc:
            assert "rational literal too large" in str(exc)
            refused.append(number)
    assert unreadable == refused == [1, 3, 4]
    assert series.text_and_record_lines()[1:] == (lines, unreadable)


# literals the reader takes but no writer prints: unreduced, signed zeros,
# leading zeros, and their reduced forms
LITERALS = ["6/4", "3/3", "-0", "-0/7", "007/014", "-12/18", "2/2", "0", "5",
            "-5/10", "1/3", "-2/6", "22/7", "-44/14", "0/5", "100/25"]


def _fraction_reference(dim: int, trunc: int, records: list) -> tuple:
    """``(den, num)`` of the records, summed as Fractions and scaled to the
    least common denominator of the kept terms."""
    sums = {}
    for rec in records:
        key = pack(dim, rec["k2"], tuple(rec["I"]), tuple(rec["J"]))
        re, im = sums.get(key, (Fraction(0), Fraction(0)))
        sums[key] = (re + Fraction(rec.get("re", "0")),
                     im + Fraction(rec.get("im", "0")))
    kept = {key: value for key, value in sums.items()
            if any(value) and key >> 16 * dim <= trunc}
    den = math.lcm(*(x.denominator for value in kept.values() for x in value))
    return den, {key: (int(re * den), int(im * den))
                 for key, (re, im) in kept.items()}


def test_integer_pair_reader_matches_the_fraction_path():
    rng = random.Random(2027)
    cancelled = 0
    for case in range(120):
        dim = case % 4
        records = []
        for _ in range(rng.randint(1, 8)):
            I, J = (random_multi_index(rng, dim, 2) if dim else () for _ in "IJ")
            rec = {"k2": rng.randint(-2, 4), "I": list(I), "J": list(J)}
            rec.update((name, rng.choice(LITERALS)) for name in ("re", "im")
                       if rng.random() < 0.8)
            records.append(rec)
            if rng.random() < 0.3:  # a duplicate that cancels the record
                negated = {name: str(-Fraction(rec[name])) for name in ("re", "im")
                           if name in rec}
                records.append(dict(rec, **negated))
                cancelled += 1
        series = WickSeries.from_records(dim, 6, records, lower_bound=-2)
        assert (series.den, series.num) == _fraction_reference(dim, 6, records)
    assert cancelled > 20
