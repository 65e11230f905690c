from fractions import Fraction

import pytest

from wickjet.coefficients import (
    LITERAL_DIGITS,
    ComplexRational,
    format_rational,
    parse_rational,
)


def test_construction_and_equality():
    a = ComplexRational(Fraction(1, 2), Fraction(-3, 4))
    assert a.re == Fraction(1, 2)
    assert a.im == Fraction(-3, 4)
    assert ComplexRational(3) == 3
    assert ComplexRational(Fraction(6, 4)) == Fraction(3, 2)
    assert ComplexRational(1, 1) != 1


def test_ring_operations():
    a = ComplexRational(1, 2)
    b = ComplexRational(Fraction(1, 3), -1)
    assert a + b == ComplexRational(Fraction(4, 3), 1)
    assert a - b == ComplexRational(Fraction(2, 3), 3)
    assert a * b == ComplexRational(Fraction(1, 3) + 2, Fraction(2, 3) - 1)
    assert -a == ComplexRational(-1, -2)
    assert 2 * a == ComplexRational(2, 4)
    assert a * Fraction(1, 2) == ComplexRational(Fraction(1, 2), 1)


def test_exact_division():
    a = ComplexRational(1, 2)
    b = ComplexRational(3, -4)
    q = a / b
    assert q * b == a
    assert (1 / b) * b == 1
    with pytest.raises(ZeroDivisionError):
        a / ComplexRational(0)


def test_conjugate_and_predicates():
    a = ComplexRational(Fraction(2, 5), Fraction(7, 3))
    assert a.conjugate() == ComplexRational(Fraction(2, 5), Fraction(-7, 3))
    assert (a * a.conjugate()).is_real
    assert not ComplexRational(0)
    assert ComplexRational(0, 1)


def test_immutability():
    a = ComplexRational(1)
    with pytest.raises(AttributeError):
        a.re = Fraction(2)


def test_rational_string_round_trip():
    for text in ["3", "-4/6", "0", "22/7"]:
        value = parse_rational(text)
        assert parse_rational(format_rational(value)) == value
    assert format_rational(Fraction(-4, 6)) == "-2/3"


def test_rational_literal_size_is_bounded():
    assert parse_rational("1" * LITERAL_DIGITS) == int("1" * LITERAL_DIGITS)
    assert parse_rational("-1.5e-99") == Fraction(-15, 10 ** 100)
    for text in ("1" * (LITERAL_DIGITS + 1), "1e100", "1e999999", "2/1e1_000",
                 "1/" + "3" * LITERAL_DIGITS):
        with pytest.raises(ValueError):
            parse_rational(text)


def test_complex_helpers():
    a = ComplexRational.from_strings("1/2", "-3")
    assert a == ComplexRational(Fraction(1, 2), -3)
    assert complex(ComplexRational(1, -2)) == 1 - 2j
    assert str(ComplexRational(Fraction(1, 2))) == "1/2"
    assert str(ComplexRational(0, Fraction(-2, 3))) == "-2/3i"
    assert str(ComplexRational(1, 1)) == "1+1i"
