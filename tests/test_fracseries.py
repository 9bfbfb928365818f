"""Tests for truncated fractional-exponent series."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcflop.algebra import CycField, FracSeries

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def make(r=1, trunc=8):
    field = CycField((r + 1) * (r + 2))
    return field, r + 1, r + 2, trunc


def test_monomial_products_add_exponents():
    field, d1, d2, T = make()
    a = FracSeries.monomial(field, d1, d2, T, 1, 0)
    b = FracSeries.monomial(field, d1, d2, T, 0, 1)
    ab = a * b
    assert ab.coefficient(1, 1) == field.one
    assert (a * a).coefficient(2, 0) == field.one


def test_truncation_drops_high_q1():
    field, d1, d2, T = make(trunc=2)
    a = FracSeries.monomial(field, d1, d2, T, 2, 0)
    b = FracSeries.monomial(field, d1, d2, T, 1, 0)
    assert (a * b).is_zero()


def test_binomial_power_geometric():
    field, d1, d2, T = make(trunc=3)
    u = FracSeries.monomial(field, d1, d2, T, 1, 0)
    s = (FracSeries.one(field, d1, d2, T) + u).binomial_power(Fraction(-1))
    for k in range(4):
        assert s.coefficient(k, 0) == field.from_rational((-1) ** k)


def test_binomial_power_sqrt():
    field, d1, d2, T = make(trunc=2)
    u = FracSeries.monomial(field, d1, d2, T, 1, 0)
    s = (FracSeries.one(field, d1, d2, T) + u).binomial_power(Fraction(1, 2))
    assert s.coefficient(0, 0) == field.one
    assert s.coefficient(1, 0) == field.from_rational(Fraction(1, 2))
    assert s.coefficient(2, 0) == field.from_rational(Fraction(-1, 8))


def test_binomial_power_zero_exponent():
    field, d1, d2, T = make(trunc=5)
    u = FracSeries.monomial(field, d1, d2, T, 3, 0, field.zeta())
    s = (FracSeries.one(field, d1, d2, T) + u).binomial_power(Fraction(0))
    assert s == FracSeries.one(field, d1, d2, T)


def test_binomial_power_consistency_with_integer_power():
    field, d1, d2, T = make(trunc=6)
    u = FracSeries.monomial(field, d1, d2, T, 1, 0, field.zeta(2))
    base = FracSeries.one(field, d1, d2, T) + u
    assert base.binomial_power(Fraction(3)) == base ** 3
    # (x^(1/2))^2 == x
    half = base.binomial_power(Fraction(1, 2))
    assert half * half == base


def test_binomial_power_requires_unit_constant():
    field, d1, d2, T = make()
    u = FracSeries.monomial(field, d1, d2, T, 1, 0)
    with pytest.raises(ValueError):
        (u + 2).binomial_power(Fraction(1, 2))


def test_negative_exponents_rejected():
    field, d1, d2, T = make()
    with pytest.raises(ValueError):
        FracSeries(field, d1, d2, T, {(-1, 0): field.one})


@given(c=rationals)
def test_constant_series_hash_like_their_value(c):
    field, d1, d2, T = make(trunc=3)
    s = FracSeries.one(field, d1, d2, T) * c
    value = field.from_rational(c)
    assert s == c and s == value
    assert hash(s) == hash(c) == hash(value)
    assert len({s, c, value}) == 1


def test_one_times_three_dedups_with_three():
    s = FracSeries.one(CycField(4), 2, 2, 5) * 3
    assert s == 3 and len({s, 3}) == 1


@given(terms=st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), rationals,
                             max_size=4))
def test_equal_series_hash_alike(terms):
    field, d1, d2, T = make(trunc=3)
    a = FracSeries.zero(field, d1, d2, T)
    for (n1, n2), c in terms.items():
        a = a + FracSeries.monomial(field, d1, d2, T, n1, n2, c)
    b = FracSeries.monomial(field, d1, d2, T, 1, 1, 5)
    for (n1, n2), c in reversed(list(terms.items())):
        b = FracSeries.monomial(field, d1, d2, T, n1, n2, c) + b
    b = b - FracSeries.monomial(field, d1, d2, T, 1, 1, 5)
    assert a == b and hash(a) == hash(b)
