"""Every immutable value type refuses assignment and compares by value.

The cases are the subclasses of ``Value`` that ``import wickjet`` defines,
so a new value type is collected here; it fails until ``SAMPLES`` can build it.
A value is its public slots: they make its key and its repr, and a private
slot, such as a cache, takes part in neither.
"""

from fractions import Fraction

import pytest

from wickjet import (BTContext, ComplexRational, FactorialRational, PotentialJets,
                     RationalSymbol, ToeplitzMatrix, WeightSeries, WickSeries)
from wickjet.errors import Value
from wickjet.integrals import toeplitz_symbol


def _quartic(c) -> WickSeries:
    """c |y|^4 at dim 1: a real, admissible and refined weight body."""
    return WickSeries(1, 6, {(0, (2,), (2,)): c})


def _norm() -> WickSeries:
    """|y|^2 at dim 1."""
    return WickSeries(1, 6, {(0, (1,), (1,)): 1})


# per value type, through its public constructor: a value and a different one
SAMPLES = {
    ComplexRational: (lambda: ComplexRational(Fraction(1, 2), -3),
                      lambda: ComplexRational(Fraction(1, 2), 3)),
    WickSeries: (lambda: _quartic(Fraction(1, 3)), lambda: _quartic(Fraction(1, 5))),
    WeightSeries: (lambda: WeightSeries(_quartic(1)), lambda: WeightSeries(_quartic(2))),
    PotentialJets: (lambda: PotentialJets(_quartic(-1) + _norm(), normalized=True),
                    lambda: PotentialJets(_quartic(-1) + _norm())),
    BTContext: (lambda: BTContext(WeightSeries(_quartic(1))),
                lambda: BTContext(WeightSeries(_quartic(2)))),
    FactorialRational: (lambda: FactorialRational(2, (1, 5), (3,)),
                        lambda: FactorialRational(2, (1,), (3,))),
    RationalSymbol: (lambda: RationalSymbol({(1, 1): 1, (0, 1): 2}, 1),
                     lambda: RationalSymbol({(1, 1): 1, (0, 1): 2}, 2)),
    ToeplitzMatrix: (lambda: ToeplitzMatrix(4, RationalSymbol({(1, 1): 1}, 1)),
                     lambda: ToeplitzMatrix(5, RationalSymbol({(1, 1): 1}, 1))),
}


@pytest.mark.parametrize("cls", Value.__subclasses__(), ids=lambda cls: cls.__name__)
def test_every_value_is_immutable_and_compares_by_value(cls):
    assert cls in SAMPLES, f"no sample builds {cls.__name__}"
    build, build_other = SAMPLES[cls]
    value, same, other = build(), build(), build_other()
    assert type(value) is cls and value is not same
    immutable = f"^{cls.__name__} is immutable$"
    for name in cls.__slots__:
        before = getattr(value, name)
        with pytest.raises(AttributeError, match=immutable):
            setattr(value, name, before)
        assert getattr(value, name) is before, name
    with pytest.raises(AttributeError, match=immutable):
        value.extra = 1
    assert value == same and hash(value) == hash(same)
    assert value != other and not value == other
    for kind, (build_kind, _) in SAMPLES.items():
        if kind is not cls:
            assert value != build_kind() and not value == build_kind(), kind.__name__
    text = repr(value)
    assert text.startswith(f"{cls.__name__}(") and text == repr(same)
    public = [name for name in cls.__slots__ if not name.startswith("_")]
    assert not any(f"{name}=" in text for name in cls.__slots__ if name not in public)
    if cls.__repr__ is Value.__repr__:
        assert text == f"{cls.__name__}(" + ", ".join(
            f"{name}={getattr(value, name)!r}" for name in public) + ")"


def test_derived_caches_stay_out_of_equality_hash_and_repr():
    """A read ``psi``, a built ``e^(w/h)`` and a solved symbol change nothing
    that equality, hash or repr see."""
    used, fresh = (PotentialJets(_quartic(-1) + _norm(), normalized=True) for _ in range(2))
    assert used.psi and fresh._psi is None
    weight, fresh_weight = WeightSeries(_quartic(1)), WeightSeries(_quartic(1))
    assert weight.exponential() and toeplitz_symbol(_norm(), weight)
    assert weight._exponentials and weight._symbols and not fresh_weight._exponentials
    for value, other in ((used, fresh), (weight, fresh_weight)):
        assert value == other and hash(value) == hash(other) and repr(value) == repr(other)
