"""Tests for rational functions in the root Novikov variable."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcflop.algebra import CycField, ExpansionError, Poly, RatFunc

from helpers import (
    NonIntegrableError,
    from_laurent_items,
    integrate_in_t,
    is_laurent,
    mixed_numerators,
    scaled_variable,
)

Q = CycField(1)


def w(u=1):
    return RatFunc.monomial(Q, u, 1)


def const(c, u=1):
    return RatFunc.constant(Q, u, c)


def g_series_oracle(r, order):
    """Direct geometric expansion of q/(1 - (-1)^(r+1) q)."""
    sign = (-1) ** (r + 1)
    return [Fraction(0)] + [Fraction(sign**(d - 1)) for d in range(1, order + 1)]


def test_delta_monomial_eigenvalue():
    # q^d has logarithmic derivative d * q^d, any root order
    for u in (1, 2, 3):
        f = RatFunc.q_power(Q, u, 3)
        assert f.delta() == f * 3


def test_delta_root_scaling():
    # w itself is q^(1/u)
    u = 3
    f = RatFunc.monomial(Q, u, 1)
    assert f.delta() == f * Fraction(1, u)


def test_delta_g_r1_quotient_rule_oracle():
    # q/(1-q) -> q/(1-q)^2, checked against an explicit num/den construction
    q = w()
    g = q / (const(1) - q)
    want = q / ((const(1) - q) * (const(1) - q))
    assert g.delta() == want


def test_delta_is_derivation():
    q = w()
    f = (q * q + 1) / (const(2) - q)
    g = (q - 3) / (q * q + q + 1)
    lhs = (f * g).delta()
    rhs = f.delta() * g + f * g.delta()
    assert lhs == rhs


def test_integrate_inverts_delta_on_laurent():
    u = 3
    items = {2: Q.from_rational(5), -1: Q.from_rational(Fraction(1, 2)), 4: Q.from_rational(-3)}
    f = from_laurent_items(Q, u, items)
    assert integrate_in_t(f.delta()) == f


def test_integrate_examples():
    # r = 2: integral of w is 3w
    u = 3
    f = RatFunc.monomial(Q, u, 1)
    assert integrate_in_t(f) == f * 3
    # a nonzero constant term has no preimage under delta
    with pytest.raises(NonIntegrableError):
        integrate_in_t(const(5, u))
    with pytest.raises(NonIntegrableError):
        integrate_in_t(f + const(5, u))


def test_integrate_symmetric_pair():
    # a w + b w^-1 integrates to u (a w - b w^-1)
    u = 4
    f = RatFunc.monomial(Q, u, 1, 7) + RatFunc.monomial(Q, u, -1, 2)
    want = RatFunc.monomial(Q, u, 1, 7 * u) - RatFunc.monomial(Q, u, -1, 2 * u)
    assert integrate_in_t(f) == want


def test_series_expand_geometric():
    q = w()
    g = q / (const(1) - q)
    coeffs = g.series_expand(3)
    assert [c.as_rational() for c in coeffs] == g_series_oracle(1, 3)


def test_series_expand_alternating():
    f = const(1) / (const(1) + w())
    coeffs = f.series_expand(2)
    assert [c.as_rational() for c in coeffs] == [1, -1, 1]


def test_series_expand_delta_g_r2_oracle():
    # delta of q/(1+q) is q/(1+q)^2 = q - 2q^2 + 3q^3 - ... by long division
    q = w()
    g = q / (const(1) + q)
    coeffs = g.delta().series_expand(3)
    assert [c.as_rational() for c in coeffs] == [0, 1, -2, 3]


def test_series_expand_pole_errors():
    f = const(1) / w()
    with pytest.raises(ExpansionError):
        f.series_expand(2)


def test_series_of_zero_identity_is_zero():
    q = w()
    g = q / (const(1) - q)
    # reflection identity: G(q) + G(1/q) - (-1)^r = 0 exactly for r = 1
    zero = g + g.subs_reciprocal() + const(1)
    assert zero.is_zero()
    assert all(c.is_zero() for c in zero.series_expand(10))


def test_subs_reciprocal_involution():
    f = (w() ** 2 + 3) / (w() - 2)
    assert f.subs_reciprocal().subs_reciprocal() == f


def test_as_q_function():
    u = 2
    f = RatFunc.q_power(Q, u, 2) + RatFunc.q_power(Q, u, 1) * 3
    qf = f.as_q_function()
    assert qf.root_order == 1
    assert qf == RatFunc.monomial(Q, 1, 2) + RatFunc.monomial(Q, 1, 1) * 3
    with pytest.raises(ValueError):
        (RatFunc.monomial(Q, u, 1)).as_q_function()


def test_reduction_cancels_common_factors():
    # (w^2 + w)/(w + 1) reduces to w
    num = Poly(Q, [0, 1, 1])
    den = Poly(Q, [1, 1])
    f = RatFunc(Q, 1, num, den)
    assert f == w()
    assert is_laurent(f)


small_rationals = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=5),
)
polys = st.lists(small_rationals, min_size=0, max_size=4).map(lambda cs: Poly(Q, cs))


@settings(max_examples=50, deadline=None)
@given(polys, polys, polys, polys)
def test_field_axioms_random(n1, d1, n2, d2):
    if d1.is_zero() or d2.is_zero():
        return
    f = RatFunc(Q, 1, n1, d1)
    g = RatFunc(Q, 1, n2, d2)
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * f == f * f + g * f
    if not f.is_zero():
        assert f * f.inverse() == RatFunc.one(Q, 1)


@settings(max_examples=40, deadline=None)
@given(polys, polys)
def test_delta_matches_series_shift(n, d):
    """delta multiplies the d-th series coefficient by d (independent oracle)."""
    if d.is_zero() or (d.coeffs and d.coeffs[0].is_zero()):
        return
    f = RatFunc(Q, 1, n, d)
    base = f.series_expand(6)
    shifted = f.delta().series_expand(6)
    for k in range(7):
        assert shifted[k] == base[k] * k


# --- structural reduction against a multiply-out-and-Euclid reference ------------

REF_ORDERS = [1, 4, 6, 10, 14]


def euclid_gcd(a, b):
    """Monic gcd by plain Euclid on the whole polynomials (reference)."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    if a.is_zero():
        return a
    return a.scale(a.lead().inverse())


def ref_reduce(field, u, num, den):
    """num/den reduced by one Euclidean gcd of the full fraction, den monic."""
    g = euclid_gcd(num, den)
    if g.degree >= 1:
        num, den = num.divmod(g)[0], den.divmod(g)[0]
    inv = den.lead().inverse()
    return RatFunc(field, u, num.scale(inv), den.scale(inv), reduce=False)


def ref_mul(f, g):
    return ref_reduce(f.field, f.root_order, f.num * g.num, f.den * g.den)


def ref_add(f, g, sign=1):
    num = f.num * g.den + g.num * f.den * sign
    return ref_reduce(f.field, f.root_order, num, f.den * g.den)


def ref_inverse(f):
    return ref_reduce(f.field, f.root_order, f.den, f.num)


def ref_pow(f, n):
    base = ref_inverse(f) if n < 0 else f
    out = RatFunc.one(f.field, f.root_order)
    for _ in range(abs(n)):
        out = ref_mul(out, base)
    return out


def ref_delta(f):
    w_ = Poly.monomial(f.field, 1)
    n, d = f.num, f.den
    return ref_reduce(f.field, f.root_order, w_ * (n.derivative() * d - n * d.derivative()),
                      d * d * f.root_order)


def assert_canonical(f):
    one = Poly.one(f.field)
    if f.num.is_zero():
        assert f.den == one
    else:
        assert euclid_gcd(f.num, f.den) == one
    assert f.den.lead() == 1


def assert_same(f, g):
    assert_canonical(f)
    assert (f.num, f.den) == (g.num, g.den)


def factor_pool(field):
    """Linear factors w +- xi^i that split over the field, and w^2 + w + 3,
    which splits over none of REF_ORDERS (it needs sqrt(-11))."""
    xi = field.zeta()
    split = [Poly(field, [s * xi**i, 1]) for i in (0, 1, 2) for s in (1, -1)]
    return split + [Poly(field, [3, 1, 1])]


@st.composite
def ref_polys(draw, field, nonzero=False):
    """c * w^k * (a few pool factors) * (a small random factor)."""
    pool = factor_pool(field)
    c = field.element(draw(st.lists(small_rationals, min_size=1, max_size=field.degree)))
    if c.is_zero():
        if not nonzero:
            return Poly.zero(field)
        c = field.one
    p = Poly.monomial(field, draw(st.integers(min_value=0, max_value=3)), c)
    for i in draw(st.lists(st.integers(min_value=0, max_value=len(pool) - 1), max_size=2)):
        p = p * pool[i]
    extra = Poly(field, draw(st.lists(small_rationals, min_size=1, max_size=2)))
    return p if extra.is_zero() else p * extra


@st.composite
def ref_ratfuncs(draw, field, u):
    num = draw(ref_polys(field))
    den = draw(ref_polys(field, nonzero=True))
    return ref_reduce(field, u, num, den)


@st.composite
def ref_setting(draw, count):
    field = CycField(draw(st.sampled_from(REF_ORDERS)))
    u = draw(st.sampled_from([1, 2, 3]))
    return [draw(ref_ratfuncs(field, u)) for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(ref_setting(2))
def test_arithmetic_matches_reference(fs):
    f, g = fs
    assert_same(f + g, ref_add(f, g))
    assert_same(f - g, ref_add(f, g, -1))
    assert_same(f * g, ref_mul(f, g))
    if not g.is_zero():
        assert_same(f / g, ref_mul(f, ref_inverse(g)))
        assert_same(g.inverse(), ref_inverse(g))


@settings(max_examples=40, deadline=None)
@given(ref_setting(1), st.integers(min_value=-2, max_value=3))
def test_power_and_delta_match_reference(fs, n):
    (f,) = fs
    if n >= 0 or not f.is_zero():
        assert_same(f**n, ref_pow(f, n))
    assert_same(f.delta(), ref_delta(f))


@settings(max_examples=40, deadline=None)
@given(ref_setting(1), small_rationals, st.data())
def test_scalar_operands_match_reference(fs, c, data):
    (f,) = fs
    x = f.field.element(data.draw(st.lists(small_rationals, min_size=1, max_size=f.field.degree)))
    for s in (c, x, int(c.numerator)):
        const = RatFunc.constant(f.field, f.root_order, s)
        assert_same(f * s, ref_mul(f, const))
        assert_same(s * f, ref_mul(f, const))
        assert_same(f + s, ref_add(f, const))
        assert_same(f - s, ref_add(f, const, -1))
        if not const.is_zero():
            assert_same(f / s, ref_mul(f, ref_inverse(const)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_poly_gcd_matches_euclid(data):
    field = CycField(data.draw(st.sampled_from(REF_ORDERS)))
    shared = data.draw(ref_polys(field, nonzero=True))
    a, b = (data.draw(ref_polys(field)) for _ in range(2))
    shape = data.draw(st.sampled_from(["plain", "shared", "constant", "zero"]))
    if shape == "shared":
        a, b = a * shared, b * shared
    elif shape == "constant":
        b = Poly(field, [data.draw(small_rationals)])
    elif shape == "zero":
        b = Poly.zero(field)
    # powers of w on one side or both
    a = a * Poly.monomial(field, data.draw(st.integers(min_value=0, max_value=4)))
    b = b * Poly.monomial(field, data.draw(st.integers(min_value=0, max_value=4)))
    for x, y in ((a, b), (b, a)):
        g = x.gcd(y)
        assert g == euclid_gcd(x, y)
        if not g.is_zero():
            assert g.lead() == 1


def test_poly_gcd_examples():
    w_ = Poly.monomial(Q, 1)
    one = Poly.one(Q)
    assert (w_**3).gcd(w_**5) == w_**3
    assert (w_**3 * (w_ + one)).gcd(w_ * (w_ - one)) == w_
    assert (w_**2 * (w_ + one)).gcd(w_ * (w_ + one) * 2) == w_**2 + w_
    assert (w_**4).gcd(Poly(Q, [7])) == one
    assert (w_**2 * 3).gcd(Poly.zero(Q)) == w_**2
    assert Poly.zero(Q).gcd(Poly.zero(Q)).is_zero()


# --- the kernels that skip a reduction, against the reducing constructor -------------


def ref_series_expand(f, order):
    """Taylor coefficients by the recurrence on CycNumbers, dividing by den(0)
    at every step (reference)."""
    if f.is_zero():
        return [f.field.zero] * (order + 1)
    num, den = f.num.coeffs, f.den.coeffs
    inv0 = den[0].inverse()
    out = []
    for k in range(order + 1):
        acc = num[k] if k < len(num) else f.field.zero
        for j in range(1, min(k, len(den) - 1) + 1):
            if not den[j].is_zero():
                acc = acc - den[j] * out[k - j]
        out.append(acc * inv0)
    return out


def without_pole(f):
    """f times the power of w that clears w from its denominator."""
    v = next(k for k, c in enumerate(f.den.coeffs) if not c.is_zero())
    return f * RatFunc.monomial(f.field, f.root_order, v) if v else f


SERIES_ORDERS = [1, 4, 10, 14]


@pytest.mark.parametrize("order", SERIES_ORDERS)
@pytest.mark.parametrize("u", [1, 3])
def test_series_expand_matches_the_cyclotomic_recurrence(order, u):
    # den(0) = zeta + 2 is not rational past Q, and den is not monic in w^0
    field = CycField(order)
    zeta = field.zeta()
    num = Poly(field, [Fraction(1, 3), zeta, 0, -2])
    den = Poly(field, [zeta + 2, 1]) * Poly(field, [3, 0, 1]) * Poly(field, [-1, 1]) ** 2
    f = RatFunc(field, u, num, den)
    assert not f.den.constant().is_rational() or order == 1
    for k in (0, 1, 9, 20):
        assert f.series_expand(k) == ref_series_expand(f, k)
    assert RatFunc.zero(field, u).series_expand(3) == ref_series_expand(RatFunc.zero(field, u), 3)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SERIES_ORDERS), st.sampled_from([1, 2, 3]), st.data())
def test_series_expand_matches_the_cyclotomic_recurrence_random(order, u, data):
    f = without_pole(data.draw(ref_ratfuncs(CycField(order), u)))
    assert f.series_expand(12) == ref_series_expand(f, 12)


def reduced_delta(f):
    """delta through the reducing constructor, over u d^2 (reference)."""
    w_ = Poly.monomial(f.field, 1)
    n, d = f.num, f.den
    return RatFunc(f.field, f.root_order, w_ * (n.derivative() * d - n * d.derivative()),
                   d * d * f.root_order)


def reduced_reciprocal(f):
    """f(1/w) through the reducing constructor (reference)."""
    top = max(f.num.degree, f.den.degree)
    return RatFunc(f.field, f.root_order, f.num.reversed_coeffs(top), f.den.reversed_coeffs(top))


def kernel_cases(field, u):
    """Reduced inputs with w | den, with w | num, and with den not squarefree."""
    w_, one = Poly.monomial(field, 1), Poly.one(field)
    zeta = one * field.zeta()
    nums = [one, w_ + one * 3, w_ * (w_ - zeta), (w_ + zeta) ** 3 - one, w_ ** 5 + w_ * 2 + one]
    dens = [one, w_ ** 3, (w_ - one) ** 3 * w_ ** 2, (w_ + zeta) ** 2 * (w_ ** 2 + one * 3),
            (w_ - zeta * 2) * w_]
    return [RatFunc(field, u, n, d) for n in nums for d in dens]


@pytest.mark.parametrize("order", SERIES_ORDERS)
@pytest.mark.parametrize("u", [1, 2])
def test_delta_and_reciprocal_equal_the_reduced_fraction(order, u):
    for f in kernel_cases(CycField(order), u):
        assert_same(f.delta(), reduced_delta(f))
        assert_same(f.subs_reciprocal(), reduced_reciprocal(f))


@settings(max_examples=60, deadline=None)
@given(ref_setting(1))
def test_delta_and_reciprocal_equal_the_reduced_fraction_random(fs):
    (f,) = fs
    assert_same(f.delta(), reduced_delta(f))
    assert_same(f.subs_reciprocal(), reduced_reciprocal(f))


# --- equality and hashing ---------------------------------------------------------


def test_zero_monomial_is_the_canonical_zero():
    zero = RatFunc.zero(Q, 1)
    for exp in (-3, -1, 0, 2):
        for c in (0, Fraction(0), Q.zero):
            f = RatFunc.monomial(Q, 1, exp, c)
            assert (f.num, f.den) == (zero.num, zero.den)
            assert f == zero and hash(f) == hash(zero) == hash(0)
            assert len({f, zero}) == 1


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(REF_ORDERS), small_rationals, st.sampled_from([1, 2, 3]), st.data())
def test_constants_hash_like_their_values(order, c, u, data):
    field = CycField(order)
    x = field.element(data.draw(st.lists(small_rationals, min_size=1, max_size=field.degree)))
    for value in (c, x, int(c.numerator)):
        f = RatFunc.constant(field, u, value)
        assert f == value
        assert hash(f) == hash(value)
        assert len({f, value}) == 1


@settings(max_examples=40, deadline=None)
@given(ref_setting(2))
def test_equal_functions_hash_alike(fs):
    f, g = fs
    for h in (f + g - g, (f * g) / g if not g.is_zero() else f, (f**2) / f if not f.is_zero() else f):
        assert h == f and hash(h) == hash(f)
        assert len({h, f}) == 1
    # the truth value is that of a Fraction: false exactly at zero
    for h in (f, f - f):
        assert bool(h) == (h != 0)


def test_equality_across_settings_never_raises():
    # both equal 1 and hash like it, so a set keeps one of them
    one4, one6 = RatFunc.one(CycField(4), 1), RatFunc.one(CycField(6), 1)
    assert one4 == one6 and hash(one4) == hash(one6) == hash(1)
    assert len({one4, one6}) == 1
    # w/(w - i) over Q(i) and over Q(zeta_8), which contains i
    f4, f8 = CycField(4), CycField(8)
    over4 = RatFunc.monomial(f4, 1, 1) / (RatFunc.monomial(f4, 1, 1) - f4.zeta())
    over8 = RatFunc.monomial(f8, 1, 1) / (RatFunc.monomial(f8, 1, 1) - f8.zeta(2))
    assert over4 == over8 and hash(over4) == hash(over8)
    assert over4 != RatFunc.monomial(f8, 1, 1) / (RatFunc.monomial(f8, 1, 1) - f8.zeta())
    # scalars from a field that does not hold the function's coefficients
    assert one4 == CycField(6).one and one4 != CycField(6).zeta()
    assert over4 != CycField(6).one and w() + 1 != 1 and w() + 1 != Q.one
    # another root order is another ring: unequal, without raising
    assert not RatFunc.one(Q, 3) == RatFunc.one(Q, 4)
    assert RatFunc.monomial(Q, 2, 2) != RatFunc.monomial(Q, 1, 1)
    # arithmetic across settings still raises
    with pytest.raises(ValueError):
        one4 + one6
    with pytest.raises(ValueError):
        RatFunc.one(Q, 3) * RatFunc.monomial(Q, 4, 1)


@pytest.mark.parametrize("r", range(1, 7))
def test_rotate_is_the_substitution_w_to_xi_inverse_w(r):
    # sigma^i(f) = f(xi^(-i) w) against the substitution in numerator and
    # denominator, reduced afresh; the source denominator is not monic
    u = r + 1
    fld = CycField(2 * u)
    den = Poly(fld, [fld.zeta() + 1, 0, 3])
    for num in mixed_numerators(fld):
        f = RatFunc(fld, u, num, den)
        assert f.rotate(0) == f
        for i in range(u):
            c = fld.zeta(-2 * i)
            want = RatFunc(fld, u, scaled_variable(num, c), scaled_variable(den, c))
            got = f.rotate(i)
            assert got == want
            assert (got.num.rows, got.den.rows) == (want.num.rows, want.den.rows)
