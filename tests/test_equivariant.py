"""Tests for homogeneous values in the equivariant weight."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcflop.algebra import CycField, EquivScalar, InhomogeneousError, LimitError, Poly, RatFunc

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


def test_nonequivariant_limit():
    q = RatFunc.monomial(Q, 1, 1)
    assert (lam(0, 7) + lam(0) * q).nonequivariant_limit() == RatFunc.constant(Q, 1, 7) + q
    assert (lam(2, 1) * q).nonequivariant_limit().is_zero()
    assert EquivScalar.zero(Q, 1).nonequivariant_limit().is_zero()
    with pytest.raises(LimitError):
        (lam(-1) * q).nonequivariant_limit()


def test_delta_acts_on_coefficients():
    q = RatFunc.monomial(Q, 1, 1)
    a = EquivScalar(Q, 1, 2, q ** 3)
    assert a.delta() == EquivScalar(Q, 1, 2, q ** 3 * 3)


def test_power():
    a = lam(1, 2)
    assert a ** 3 == lam(3, 8)
    assert a ** 0 == EquivScalar.one(Q, 1)


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
        shifted = a * lam(e, c) * lam(-e, 1 / c)
        assert shifted == a and hash(shifted) == hash(a)
        assert a + lam(weight, c) != a
    if not a.is_zero() and e:
        # the same value at another weight is another scalar
        moved = a * lam(e)
        assert moved != a and moved.value == a.value and moved.weight == a.weight + e


def known_factor(u, kind, i, k):
    """The k-th power of w, of L_i = w + (-1)^r xi^i or of D = prod_i L_i =
    w^u + (-1)^r over Q(zeta_(2u)), with r = u - 1: the factors that every
    denominator of the canonical frame splits into."""
    fld, sign = CycField(2 * u), (-1) ** (u - 1)
    base = {"w": Poly.monomial(fld, 1),
            "L": Poly(fld, [fld.zeta(2 * i) * sign, 1]),
            "D": Poly(fld, [sign] + [0] * (u - 1) + [1])}[kind]
    return base ** k


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.sampled_from(["w", "L", "D"]),
       st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=3),
       st.integers(min_value=-2, max_value=2), st.integers(min_value=0, max_value=2), st.data())
def test_a_common_known_factor_changes_neither_the_value_nor_its_hash(u, kind, i, k, weight, low,
                                                                     data):
    # (num f) / (w^low den f) against num / (w^low den), for f a power of w,
    # of one L_i or of D; neither fraction is reduced
    fld = CycField(2 * u)
    coeffs = st.lists(st.tuples(small_rationals, st.integers(min_value=0, max_value=2 * u - 1)),
                      max_size=4)

    def poly(terms):
        return Poly(fld, [c * fld.zeta(m) for c, m in terms])

    num, den = poly(data.draw(coeffs)), poly(data.draw(coeffs))
    assume(not den.is_zero())
    f = known_factor(u, kind, i % u, k)
    plain = EquivScalar.fraction(fld, u, weight, num, low, den)
    padded = EquivScalar.fraction(fld, u, weight, num * f, low, den * f)
    assert padded == plain and plain == padded
    assert hash(padded) == hash(plain) and len({padded, plain}) == 1
    assert padded + plain == plain * 2 and (padded - plain).is_zero()
    # a sum with another low, over the same den and over another den
    other = EquivScalar.fraction(fld, u, weight, poly(data.draw(coeffs)), 2 - low, den)
    assert (plain + other).value == (padded + other).value == plain.value + other.value
    # a product with a value over yet another den
    factor_den = poly(data.draw(coeffs))
    assume(not factor_den.is_zero())
    factor = EquivScalar.fraction(fld, u, 1 - weight, poly(data.draw(coeffs)), 1, factor_den)
    assert (padded * factor).value == (plain * factor).value == plain.value * factor.value
    assert padded * factor == plain * factor
    value = padded.value
    assert value == plain.value == RatFunc(fld, u, num, den.shift(low))
    # the reduced value: a monic denominator prime to the numerator
    assert value.den.lead() == 1 and value.num.gcd(value.den).degree == 0
    if kind == "w" and den.is_constant():
        # a power of w in the numerator of a Laurent value cancels on reduction
        laurent = EquivScalar.fraction(fld, u, weight, (num * f).scale(den.lead().inverse()), low + k)
        assert laurent == plain and laurent.value == value and hash(laurent) == hash(plain)


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
