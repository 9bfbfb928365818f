"""Tests for truncated fractional-exponent series."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcflop.algebra import CycField, CycNumber, FracSeries

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def make(r=1, trunc=8):
    field = CycField((r + 1) * (r + 2))
    return field, r + 1, r + 2, trunc


def test_monomial_products_add_exponents():
    field, d1, d2, T = make()
    a = FracSeries.monomial(field, d1, d2, T, 1, 0)
    b = FracSeries.monomial(field, d1, d2, T, 0, 1)
    ab = a * b
    assert ab.terms.get((1, 1)) == field.one
    assert (a * a).terms.get((2, 0)) == field.one


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
        assert s.terms.get((k, 0)) == field.from_rational((-1) ** k)


def test_binomial_power_sqrt():
    field, d1, d2, T = make(trunc=2)
    u = FracSeries.monomial(field, d1, d2, T, 1, 0)
    s = (FracSeries.one(field, d1, d2, T) + u).binomial_power(Fraction(1, 2))
    assert s.terms.get((0, 0)) == field.one
    assert s.terms.get((1, 0)) == field.from_rational(Fraction(1, 2))
    assert s.terms.get((2, 0)) == field.from_rational(Fraction(-1, 8))


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


def test_binomial_power_needs_a_single_term():
    field, d1, d2, T = make()
    one = FracSeries.one(field, d1, d2, T)
    x = FracSeries.monomial(field, d1, d2, T, 1, 0)
    with pytest.raises(ValueError):
        (one + x + x * x).binomial_power(Fraction(1, 2))
    with pytest.raises(ValueError):  # the q1-direction carries the expansion
        (one + FracSeries.monomial(field, d1, d2, T, 0, 1)).binomial_power(Fraction(1, 2))


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


def series_binomial(base, alpha):
    """(1 + x)^alpha by the binomial recurrence on series products of x."""
    field, T = base.field, base.trunc
    x = base - 1
    result = FracSeries.one(field, base.den1, base.den2, T)
    term = FracSeries.one(field, base.den1, base.den2, T)
    coeff = Fraction(1)
    for k in range(T + 1):
        coeff = coeff * Fraction(alpha - k, k + 1)
        term = term * x
        if term.is_zero() or coeff == 0:
            break
        result = result + term * field.from_rational(coeff)
    return result


@pytest.mark.parametrize("r", [1, 2, 4])
@pytest.mark.parametrize("mono", [(1, 0, 1), (2, 1, Fraction(3, 2)), (1, 3, Fraction(-2, 5))])
def test_binomial_power_of_a_monomial_matches_series_loop(r, mono):
    field, d1, d2, T = make(r, trunc=9)
    n1, n2, scale = mono
    c = field.zeta(r + 2) * scale  # omega * scale, as in the eigenvalue base
    base = FracSeries.one(field, d1, d2, T) + FracSeries.monomial(field, d1, d2, T, n1, n2, c)
    for alpha in (Fraction(-1, r + 2), Fraction(r + 1, r + 2), Fraction(3)):
        got = base.binomial_power(alpha)
        assert got.terms == series_binomial(base, alpha).terms
    # an integer exponent ends the expansion where C(3, k) reaches zero
    cube = base.binomial_power(Fraction(3))
    assert cube == base ** 3
    assert max(k[0] for k in cube.terms) == min(3 * n1, T)


def test_binomial_power_of_a_monomial_stops_at_the_truncation():
    field, d1, d2, T = make(trunc=7)
    base = FracSeries.one(field, d1, d2, T) + FracSeries.monomial(field, d1, d2, T, 3, 1, 2)
    got = base.binomial_power(Fraction(-1))
    assert got.terms == {(0, 0): field.one, (3, 1): field.from_rational(-2),
                         (6, 2): field.from_rational(4)}


def test_constant_series_equals_its_value_from_another_field():
    # zeta_3 = zeta_6^2: the same number in Q(zeta_6) and in Q(zeta_3)
    field, d1, d2, T = make(r=1, trunc=3)  # Q(zeta_6)
    value = CycField(3).zeta()
    s = FracSeries.one(field, d1, d2, T) * field.zeta(2)
    assert s == value and hash(s) == hash(value)
    assert not (s + FracSeries.monomial(field, d1, d2, T, 1, 0) == value)
    assert not (s == CycField(3).zeta(2))


def test_scalar_product_matches_the_series_product():
    # a scalar multiplies each term; it equals the product with the constant
    # series, keeps terms at the truncation order and owns its term dict
    field, d1, d2, T = make(r=2, trunc=3)
    s = (FracSeries.one(field, d1, d2, T) + FracSeries.monomial(field, d1, d2, T, 1, 2)
         ).binomial_power(Fraction(1, 3))
    assert (3, 6) in s.terms
    sub = CycField(3)  # a subfield of Q(zeta_12)
    for c in (field.zeta(5) * Fraction(-2, 7), 3, Fraction(5, 4), sub.zeta(), 0, field.zero):
        value = field.embed(c) if isinstance(c, CycNumber) else field.from_rational(c)
        lifted = FracSeries(field, d1, d2, T, {(0, 0): value})
        for got in (s * c, c * s):
            assert got.terms == (s * lifted).terms
            assert got.terms is not s.terms
            assert all(v.field is field for v in got.terms.values())
    assert (s * 0).is_zero()
    copy = s.copy()
    assert copy == s and copy.terms is not s.terms


def test_series_of_different_settings_compare_unequal_without_raising():
    field, d1, d2, _ = make(r=1)
    short = FracSeries.one(field, d1, d2, 3) + FracSeries.monomial(field, d1, d2, 3, 1, 0)
    long = FracSeries.one(field, d1, d2, 5) + FracSeries.monomial(field, d1, d2, 5, 1, 0)
    assert short.terms == long.terms
    assert short != long and not short == long
    assert len({short, long}) == 2
    assert short != FracSeries.one(field, d1 + 1, d2, 3) + FracSeries.monomial(
        field, d1 + 1, d2, 3, 1, 0)
    with pytest.raises(ValueError):
        short + long
    # the same series over Q(zeta_6) and over Q(zeta_12) is one value
    big = CycField(12)
    other = FracSeries.one(big, d1, d2, 3) + FracSeries.monomial(big, d1, d2, 3, 1, 0, big.zeta(2))
    mine = FracSeries.one(field, d1, d2, 3) + FracSeries.monomial(field, d1, d2, 3, 1, 0, field.zeta())
    assert mine == other and hash(mine) == hash(other) and len({mine, other}) == 1
