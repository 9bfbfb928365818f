"""Tests for homogeneous values in the equivariant weight."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcflop.algebra import CycField, EquivScalar, InhomogeneousError, LimitError, RatFunc

Q = CycField(1)


def lam(exp, coeff=1):
    return EquivScalar.lam_power(Q, 1, exp, coeff)


def test_basic_arithmetic_and_sparsity():
    q = RatFunc.monomial(Q, 1, 1)
    a = lam(2, 3) + lam(2, Fraction(1, 2)) * q
    b = lam(1)
    prod = a * b
    assert prod.weight == 3
    assert prod.value == RatFunc.constant(Q, 1, 3) + q * Fraction(1, 2)
    assert (a - a).is_zero()
    assert (a + lam(2)).weight == 2


def test_no_zero_entries_stored():
    a = lam(1) + lam(1, -1)
    assert a.is_zero()
    assert a.weight == 0 and a.value.is_zero()
    assert EquivScalar(Q, 1, 5, RatFunc.zero(Q, 1)).weight == 0
    assert (lam(3) * 0).weight == 0


def test_mixed_weights_do_not_add():
    with pytest.raises(InhomogeneousError):
        lam(0) + lam(1)
    with pytest.raises(InhomogeneousError):
        lam(2, 3) - lam(-1, Fraction(1, 2))
    with pytest.raises(InhomogeneousError):
        lam(1) + 1
    with pytest.raises(ValueError):
        lam(1) + RatFunc.one(Q, 1)


@pytest.mark.parametrize("weight", [-3, 0, 2])
def test_zero_of_any_weight_adds_as_the_identity(weight):
    a = lam(weight, 7) * RatFunc.monomial(Q, 1, 2)
    for zero in (EquivScalar.zero(Q, 1), lam(4) - lam(4), lam(-2) * 0, 0):
        assert a + zero == a and zero + a == a and a - zero == a
        assert (a + zero).weight == weight


def test_simple_inverse():
    a = lam(3, 2) * RatFunc.monomial(Q, 1, 1)
    inv = a.inverse()
    assert inv.weight == -3
    assert (a * inv) == EquivScalar.one(Q, 1)
    with pytest.raises(ZeroDivisionError):
        EquivScalar.zero(Q, 1).inverse()
    with pytest.raises(ZeroDivisionError):
        (lam(2) - lam(2)).inverse()


def test_division_shifts_lam_degree():
    q = RatFunc.monomial(Q, 1, 1)
    a = EquivScalar.from_ratfunc(q, 1) + EquivScalar.from_ratfunc(q * q, 1)
    b = EquivScalar.from_ratfunc(q, 2)
    quot = a / b
    assert quot.weight == -1
    assert quot.value == 1 + q
    assert quot * b == a


def test_nonequivariant_limit():
    q = RatFunc.monomial(Q, 1, 1)
    assert (lam(0, 7) + lam(0) * q).nonequivariant_limit() == RatFunc.constant(Q, 1, 7) + q
    assert (lam(2, 1) * q).nonequivariant_limit().is_zero()
    assert EquivScalar.zero(Q, 1).nonequivariant_limit().is_zero()
    with pytest.raises(LimitError):
        (lam(-1) * q).nonequivariant_limit()


def test_delta_acts_on_coefficients():
    q = RatFunc.monomial(Q, 1, 1)
    a = EquivScalar.from_ratfunc(q ** 3, 2)
    assert a.delta() == EquivScalar.from_ratfunc(q ** 3 * 3, 2)


def test_power_and_negative_power():
    a = lam(1, 2)
    assert a ** 3 == lam(3, 8)
    assert a ** (-2) == lam(-2, Fraction(1, 4))
    assert a ** 0 == EquivScalar.one(Q, 1)
    with pytest.raises(ZeroDivisionError):
        EquivScalar.zero(Q, 1) ** (-1)


# --- equality and hashing ---------------------------------------------------------

small_rationals = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=5),
)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 4, 6, 10]), small_rationals, st.data())
def test_weight_free_scalars_hash_like_their_values(order, c, data):
    field = CycField(order)
    x = field.element(data.draw(st.lists(small_rationals, min_size=1, max_size=field.degree)))
    for value in (c, x, int(c.numerator)):
        a = EquivScalar.lam_power(field, 2, 0, value)
        f = RatFunc.constant(field, 2, value)
        assert a == value and a == f and f == a
        assert hash(a) == hash(value) == hash(f)
        assert len({a, value, f}) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-2, max_value=2),
       st.lists(st.tuples(st.integers(min_value=-2, max_value=2), small_rationals), max_size=4),
       st.integers(min_value=-2, max_value=2), small_rationals)
def test_equal_scalars_compare_by_terms_and_hash_alike(weight, items, e, c):
    # a homogeneous sum of weight `weight`, built term by term
    a = EquivScalar.zero(Q, 1)
    for exp, coeff in items:
        a = a + lam(weight, coeff) * RatFunc.monomial(Q, 1, exp)
    b = a + lam(weight, c) - lam(weight, c)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    if c:
        shifted = a * lam(e, c) / lam(e, c)
        assert shifted == a and hash(shifted) == hash(a)
        assert a + lam(weight, c) != a
    if not a.is_zero() and e:
        # the same value at another weight is another scalar
        moved = a * lam(e)
        assert moved != a and moved.value == a.value and moved.weight == a.weight + e


def test_zero_scalar_equals_zero():
    z = lam(3) - lam(3)
    assert z == 0 and hash(z) == hash(0) == hash(EquivScalar.zero(Q, 1))


def test_equality_across_settings_never_raises():
    one4, one6 = EquivScalar.one(CycField(4), 1), EquivScalar.one(CycField(6), 1)
    assert one4 == one6 and hash(one4) == hash(one6) and len({one4, one6}) == 1
    assert one4 == CycField(6).one and one4 != CycField(6).zeta()
    assert lam(1) != 1 and lam(-1) != Q.one and lam(2, 3) != RatFunc.constant(Q, 1, 3)
    assert EquivScalar.lam_power(CycField(4), 1, 1) == EquivScalar.lam_power(CycField(6), 1, 1)
    # another root order is another ring
    assert EquivScalar.one(Q, 2) != EquivScalar.one(Q, 3)
    assert EquivScalar.one(Q, 2) != RatFunc.one(Q, 3)
    with pytest.raises(ValueError):
        EquivScalar.one(Q, 2) * EquivScalar.lam_power(Q, 3, 1, 2)
