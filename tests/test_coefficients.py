import ast
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wickjet

from wickjet.coefficients import (
    LITERAL_DIGITS,
    ComplexRational,
    format_complex,
    format_rational,
    literal_digits,
    parse_rational,
)
from wickjet.errors import WickjetError


def test_construction_and_equality():
    a = ComplexRational(Fraction(1, 2), Fraction(-3, 4))
    assert a.re == Fraction(1, 2)
    assert a.im == Fraction(-3, 4)
    assert ComplexRational(3) == 3
    assert ComplexRational(Fraction(6, 4)) == Fraction(3, 2)
    assert ComplexRational(1, 1) != 1


def test_exact_fraction_parts_are_kept_and_others_converted():
    third = Fraction(1, 3)
    a = ComplexRational(third, third)
    assert a.re is third and a.im is third

    class Tagged(Fraction):
        pass

    b = ComplexRational(Tagged(2, 4), True)
    assert type(b.re) is Fraction and b.re == Fraction(1, 2)
    assert type(b.im) is Fraction and b.im == 1
    assert ComplexRational("-3/6", 2).re == Fraction(-1, 2)
    with pytest.raises(TypeError):
        ComplexRational(1j)


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
    assert not (a * a.conjugate()).im
    assert not ComplexRational(0)
    assert ComplexRational(0, 1)


def test_immutability():
    a = ComplexRational(1)
    with pytest.raises(AttributeError):
        a.re = Fraction(2)


def test_rational_string_round_trip():
    for text in ["3", "-4/6", "0", "22/7"]:
        value = Fraction(*parse_rational(text))
        assert Fraction(*parse_rational(format_rational(value))) == value
    assert format_rational(Fraction(-4, 6)) == "-2/3"


def test_formatting_past_the_digit_limit_is_a_wickjet_error():
    limit = sys.get_int_max_str_digits()
    assert format_rational(10 ** limit - 1) == "9" * limit
    assert format_complex("0", format_rational(-1, 10 ** limit - 1)) == \
        f"-1/{'9' * limit}i"
    for value, den in ((10 ** limit, 1), (1, 10 ** limit + 1),
                       (Fraction(1, 10 ** limit), 1)):
        with pytest.raises(WickjetError, match=f"more than {limit} digits"):
            format_rational(value, den)


def test_rational_literal_size_is_bounded():
    part = "7" * LITERAL_DIGITS
    assert parse_rational(part) == (int(part), 1)
    assert parse_rational("-" + part) == (-int(part), 1)
    half = "9" * (LITERAL_DIGITS // 2)
    assert Fraction(*parse_rational(f"-{half}/{half}")) == -1
    for text in ("1" * (LITERAL_DIGITS + 1), "-" + "1" * (LITERAL_DIGITS + 1),
                 "1/" + "3" * LITERAL_DIGITS, f"{half}/{half}1"):
        with pytest.raises(ValueError, match="too large"):
            parse_rational(text)


def test_literal_digits_leave_out_the_sign_and_the_slash():
    half = "9" * (LITERAL_DIGITS // 2)
    for text, count in (("0", 1), ("-0", 1), ("-12/18", 4), ("007/014", 6),
                        (f"-{half}/{half}", LITERAL_DIGITS),
                        (f"{half}/{half}1", LITERAL_DIGITS + 1)):
        assert literal_digits(text) == count, text


def test_only_the_written_forms_are_literals():
    # what format_rational writes; decimals, exponents, "+", underscores,
    # other bases and non-ASCII digits are refused
    for text in ("1.5", "1e3", "-1.5e-99", "+2", "1_0", "0x10", "nan", "inf",
                 "\u0663", "\uff11", "\u00b2", "1/+2", " - 1"):
        with pytest.raises(ValueError, match="expected a rational literal"):
            parse_rational(text)


def _reference_parse(text: str) -> Fraction:
    """The literal grammar ``-?[0-9]+(/[0-9]+)?`` as a full match, digits bounded."""
    text = text.strip()
    if not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text):
        raise ValueError("not a literal")
    num, _, den = text.partition("/")
    if len(num.removeprefix("-")) + len(den) > LITERAL_DIGITS:
        raise ValueError("too large")
    if den and not int(den):
        raise ValueError("zero denominator")
    return Fraction(int(num), int(den or 1))


def test_plain_literals_parse_as_fraction_does():
    digits = "9" * (LITERAL_DIGITS // 2)
    texts = ["0", "-0", "7", "-12/18", "2/2", " 3/4 ", "1/0", "-5/00", "+5",
             "--1", "-", "", "/", "1/", "/2", "1/-2", "1 /2", "1_0", "1/2_0",
             "1.5", "1e3", "1.5e-3", "\u0663/\u0664", "\uff11", "\u00b2", "0x10",
             "nan", "9" * LITERAL_DIGITS, "9" * (LITERAL_DIGITS + 1),
             "-" + "9" * LITERAL_DIGITS, f"{digits}/{digits}",
             f"-{digits}/{digits}", f"{digits}/{digits}1", "\t-3/4\n"]
    for text in texts:
        try:
            expected = _reference_parse(text)
        except ValueError:
            with pytest.raises(ValueError):
                parse_rational(text)
        else:
            assert Fraction(*parse_rational(text)) == expected, text
    with pytest.raises(ValueError, match="zero denominator in '-5/00'"):
        parse_rational("-5/00")


def test_integer_parts_format_as_their_fractions():
    rng = random.Random(7)
    for _ in range(300):
        den = rng.choice([1, 2, 6, 35, 10 ** 30 + 7])
        a, b = (rng.choice([0, 1, -1, den, -den, rng.randint(-10 ** 40, 10 ** 40)])
                for _ in "ab")
        value = ComplexRational(Fraction(a, den), Fraction(b, den))
        assert format_rational(a, den) == str(Fraction(a, den))
        assert format_complex(format_rational(a, den), format_rational(b, den)) \
            == str(value) == format_complex(str(value.re), str(value.im))


def test_complex_helpers():
    assert complex(ComplexRational(1, -2)) == 1 - 2j
    assert str(ComplexRational(Fraction(1, 2))) == "1/2"
    assert str(ComplexRational(0, Fraction(-2, 3))) == "-2/3i"
    assert str(ComplexRational(1, 1)) == "1+1i"


# the decay fits and the float view of a coefficient; nothing else converts
FLOAT_FUNCTIONS = {"cp1.composition_residual", "cp1._fit", "suites.slope_bound",
                   "coefficients.ComplexRational.__complex__"}


def _float_uses(tree: ast.AST, scope: str):
    """(scope, line) of float()/complex() calls and float operands of arithmetic."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("float", "complex"):
            yield inner, node.lineno
        elif isinstance(node, (ast.BinOp, ast.AugAssign)):
            for operand in (node.left, node.right) if isinstance(node, ast.BinOp) \
                    else (node.value,):
                while isinstance(operand, ast.UnaryOp):
                    operand = operand.operand
                if isinstance(operand, ast.Constant) \
                        and isinstance(operand.value, (float, complex)):
                    yield inner, node.lineno
        yield from _float_uses(node, inner)


def test_floats_stay_in_the_decay_fits():
    found = []
    for path in sorted(Path(wickjet.__file__).parent.glob("*.py")):
        found += _float_uses(ast.parse(path.read_text()), path.stem)
    outside = [use for use in found if use[0] not in FLOAT_FUNCTIONS]
    assert not outside, outside
    assert "suites.slope_bound" in dict(found)  # the scan sees float arithmetic
