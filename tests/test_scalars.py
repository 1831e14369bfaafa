"""Field arithmetic of the exact complex-rational scalar."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from harmorph.scalars import ComplexRational

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
cq = st.builds(ComplexRational, rationals, rationals)


def test_basic_arithmetic():
    a = ComplexRational(Fraction(1, 2), Fraction(1, 3))
    b = ComplexRational(Fraction(2), Fraction(-1))
    assert a + b == ComplexRational(Fraction(5, 2), Fraction(-2, 3))
    assert a * b == ComplexRational(Fraction(4, 3), Fraction(1, 6))
    assert complex(a) == 0.5 + (1 / 3) * 1j


def test_division_and_conjugation():
    a = ComplexRational(3, 4)
    assert a * a.conjugate() == ComplexRational(a.norm_sq())
    assert (a / a) == ComplexRational(1)
    with pytest.raises(ZeroDivisionError):
        a / ComplexRational(0)


def test_coercion_with_ints_and_fractions():
    a = ComplexRational(1, 1)
    assert a + 1 == ComplexRational(2, 1)
    assert 2 * a == ComplexRational(2, 2)
    assert a - Fraction(1, 2) == ComplexRational(Fraction(1, 2), 1)


@given(cq, cq, cq)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(cq)
def test_multiplicative_inverse(a):
    if a:
        assert a * (ComplexRational(1) / a) == ComplexRational(1)


@given(cq, cq)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()

