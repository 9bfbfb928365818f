"""Tests for exact cyclotomic arithmetic."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcflop.algebra import (
    CycField,
    cyclotomic_polynomial,
    elementary_symmetric,
    elementary_symmetric_omitting,
)


def cyc_power_sum(order, k):
    """Sum of zeta_N^(k*i) over i = 0..N-1, reduced by the field arithmetic."""
    field = CycField(order)
    total = field.zero
    for i in range(order):
        total = total + field.zeta(k * i)
    return total


def test_cyclotomic_polynomials_small_orders():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_zeta_has_exact_order():
    for n in (2, 3, 4, 5, 6, 8, 9, 12):
        field = CycField(n)
        z = field.zeta()
        assert z**n == field.one
        for k in range(1, n):
            assert z**k != field.one


def test_power_sum_examples():
    # order 4, exponent 2: sum of i^(2k) = 1 - 1 + 1 - 1 = 0
    assert cyc_power_sum(4, 2).is_zero()
    assert cyc_power_sum(4, 0).as_rational() == 4
    # order 5, exponent 3: oracle by direct reduction
    field = CycField(5)
    direct = field.zero
    for i in range(5):
        direct = direct + field.zeta(3 * i)
    assert direct.is_zero()
    assert cyc_power_sum(5, 3).is_zero()


def test_power_sum_vanishes_unless_divisible():
    for n in (2, 3, 4, 5, 6, 7):
        for k in range(0, 2 * n + 1):
            s = cyc_power_sum(n, k)
            if k % n == 0:
                assert s.as_rational() == n
            else:
                assert s.is_zero()


def test_elementary_symmetric_omitting_roots_of_unity():
    # with all (r+1)-st roots of unity, omitting index i leaves
    # e_k = (-1)^k zeta^(k i)
    for n in (3, 4, 5):
        field = CycField(n)
        roots = [field.zeta(i) for i in range(n)]
        for omit in range(n):
            for k in range(n):
                got = elementary_symmetric_omitting(roots, omit, field.one)[k]
                want = field.zeta(k * omit) * Fraction((-1) ** k)
                assert got == want


def test_elementary_symmetric_omitting_small_case_by_hand():
    field = CycField(3)
    roots = [field.zeta(i) for i in range(3)]
    # omit index 0: remaining product zeta * zeta^2 = 1
    assert elementary_symmetric_omitting(roots, 0, field.one)[2] == field.one
    assert elementary_symmetric_omitting(roots, 0, field.one)[0] == field.one


def test_elementary_symmetric_omitting_divides_the_full_functions():
    # dividing the e_m of all values by 1 + v t gives the e_m of the others,
    # whether the e_m of all values are given or formed
    field = CycField(5)
    values = [field.zeta(i) + Fraction(i, 3) for i in range(5)]
    es = elementary_symmetric(values, field.one)
    for omit in range(5):
        want = elementary_symmetric(values[:omit] + values[omit + 1:], field.one)
        assert elementary_symmetric_omitting(values, omit, field.one, es) == want
        assert elementary_symmetric_omitting(values, omit, field.one) == want


def test_elementary_symmetric_omitting_index_errors():
    field = CycField(3)
    roots = [field.zeta(i) for i in range(3)]
    with pytest.raises(IndexError):
        elementary_symmetric_omitting(roots, 5, field.one)
    with pytest.raises(IndexError):
        elementary_symmetric_omitting(roots, 0, field.one)[3]


def test_embedding_compatible_orders():
    small = CycField(3)
    big = CycField(6)
    z3 = small.zeta()
    embedded = big.embed(z3)
    assert embedded == big.zeta(2)
    assert embedded**3 == big.one


small_rationals = st.builds(
    Fraction,
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=1, max_value=7),
)


def element_strategy(field):
    return st.builds(
        lambda cs: field.element(cs),
        st.lists(small_rationals, min_size=field.degree, max_size=field.degree),
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_field_axioms_random(data):
    field = CycField(data.draw(st.sampled_from([3, 4, 5, 8, 12])))
    a = data.draw(element_strategy(field))
    b = data.draw(element_strategy(field))
    c = data.draw(element_strategy(field))
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + (b + c) == (a + b) + c
    assert a * b == b * a
    if not a.is_zero():
        assert a * a.inverse() == field.one
        assert (a.inverse()).inverse() == a


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_numeric_embedding_consistency(data):
    field = CycField(data.draw(st.sampled_from([4, 5, 6])))
    a = data.draw(element_strategy(field))
    b = data.draw(element_strategy(field))
    lhs = (a * b).to_complex()
    rhs = a.to_complex() * b.to_complex()
    assert abs(lhs - rhs) < 1e-9


# --- reference arithmetic on Fraction tuples ------------------------------------
#
# The power-basis coefficients as plain Fractions, reduced by long division
# modulo Phi_N and inverted by the extended Euclidean algorithm in Q[x].  The
# kernel under test works on integer vectors over one denominator; these are
# the straightforward definitions it must agree with.

ORDERS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18]


def ref_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def ref_divmod(num, den):
    num, den = ref_trim(num), ref_trim(den)
    quo = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    while len(num) >= len(den):
        factor = num[-1] / den[-1]
        shift = len(num) - len(den)
        quo[shift] = factor
        for i, d in enumerate(den):
            num[shift + i] -= factor * d
        num = ref_trim(num)
    return quo, num


def ref_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def ref_reduce(poly, order):
    degree = len(cyclotomic_polynomial(order)) - 1
    _, rem = ref_divmod([Fraction(c) for c in poly], [Fraction(c) for c in cyclotomic_polynomial(order)])
    return tuple(rem) + (Fraction(0),) * (degree - len(rem))


def ref_mul(a, b, order):
    return ref_reduce(ref_poly_mul(a, b), order)


def ref_inverse(a, order):
    # extended Euclid: s * a = g (mod Phi_N) with g a nonzero constant
    r0, r1 = [Fraction(c) for c in cyclotomic_polynomial(order)], ref_trim(a)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while len(r1) > 1:
        q, rem = ref_divmod(r0, r1)
        qs = ref_poly_mul(q, s1)
        n = max(len(s0), len(qs))
        s_next = [(s0[i] if i < len(s0) else 0) - (qs[i] if i < len(qs) else 0) for i in range(n)]
        r0, r1, s0, s1 = r1, rem, s1, s_next
    return ref_reduce([c / r1[0] for c in s1], order)


def ref_pow(a, n, order):
    if n < 0:
        a, n = ref_inverse(a, order), -n
    out = ref_reduce([1], order)
    for _ in range(n):
        out = ref_mul(out, a, order)
    return out


def ref_embed(a, src, dst):
    step = dst // src
    poly = [Fraction(0)] * (step * (len(a) - 1) + 1)
    for k, c in enumerate(a):
        poly[k * step] += c
    return ref_reduce(poly, dst)


def assert_canonical(x):
    assert len(x.nums) == x.field.degree
    assert all(type(n) is int for n in x.nums) and type(x.den) is int
    assert x.den > 0
    assert gcd(x.den, *x.nums) == 1
    if not any(x.nums):
        assert x.den == 1


coeff_rationals = st.builds(
    Fraction,
    st.integers(min_value=-40, max_value=40),
    st.sampled_from([1, 1, 1, 2, 3, 4, 6, 9, 35]),
)


def ref_vectors(degree):
    # dense vectors, and sparse ones, so zero coefficients and rationals occur
    dense = st.lists(coeff_rationals, min_size=degree, max_size=degree)
    sparse = st.lists(st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)]),
                      min_size=degree, max_size=degree)
    return st.one_of(dense, sparse).map(tuple)


@st.composite
def field_and_vectors(draw, count):
    field = CycField(draw(st.sampled_from(ORDERS)))
    return field, [draw(ref_vectors(field.degree)) for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(field_and_vectors(2))
def test_kernel_matches_fraction_reference(case):
    field, (va, vb) = case
    n = field.order
    a, b = field.element(va), field.element(vb)
    assert a.coeffs == va and b.coeffs == vb
    for got, want in ((a + b, tuple(x + y for x, y in zip(va, vb))),
                      (a - b, tuple(x - y for x, y in zip(va, vb))),
                      (-a, tuple(-x for x in va)),
                      (a * b, ref_mul(va, vb, n))):
        assert_canonical(got)
        assert got.coeffs == want
    if any(vb):
        assert_canonical(b.inverse())
        assert b.inverse().coeffs == ref_inverse(vb, n)
        assert (a / b).coeffs == ref_mul(va, ref_inverse(vb, n), n)


@settings(max_examples=120, deadline=None)
@given(field_and_vectors(1), st.integers(min_value=-4, max_value=6))
def test_power_matches_fraction_reference(case, exponent):
    field, (va,) = case
    a = field.element(va)
    if exponent < 0 and not any(va):
        with pytest.raises(ZeroDivisionError):
            a**exponent
        return
    got = a**exponent
    assert_canonical(got)
    assert got.coeffs == ref_pow(va, exponent, field.order)


@settings(max_examples=120, deadline=None)
@given(field_and_vectors(1), coeff_rationals, st.integers(min_value=-7, max_value=7))
def test_rational_operands_match_fraction_reference(case, c, m):
    field, (va,) = case
    a = field.element(va)
    cvec = ref_reduce([c], field.order)
    for got, want in ((a + c, tuple(x + y for x, y in zip(va, cvec))),
                      (c + a, tuple(x + y for x, y in zip(va, cvec))),
                      (a - c, tuple(x - y for x, y in zip(va, cvec))),
                      (c - a, tuple(y - x for x, y in zip(va, cvec))),
                      (a * c, tuple(x * c for x in va)),
                      (m * a, tuple(x * m for x in va))):
        assert_canonical(got)
        assert got.coeffs == want
    if c:
        assert (a / c).coeffs == tuple(x / c for x in va)
    else:
        with pytest.raises(ZeroDivisionError):
            a / c


@settings(max_examples=120, deadline=None)
@given(field_and_vectors(1))
def test_predicates_match_fraction_reference(case):
    field, (va,) = case
    a = field.element(va)
    assert_canonical(a)
    assert a.coeffs == va
    assert a.is_zero() == (not any(va))
    assert a.is_rational() == (not any(va[1:]))
    if a.is_rational():
        assert a.as_rational() == va[0]
        assert type(a.as_rational()) is Fraction
    else:
        with pytest.raises(ValueError):
            a.as_rational()


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_embed_matches_fraction_reference(data):
    dst = data.draw(st.sampled_from(ORDERS))
    src = data.draw(st.sampled_from([m for m in ORDERS if dst % m == 0]))
    va = data.draw(ref_vectors(CycField(src).degree))
    got = CycField(dst).embed(CycField(src).element(va))
    assert_canonical(got)
    assert got.coeffs == ref_embed(va, src, dst)


def test_element_reduces_long_coefficient_lists():
    for n in ORDERS:
        field = CycField(n)
        poly = [Fraction(k * k - 7, k + 1) for k in range(3 * n + 2)]
        got = field.element(poly)
        assert_canonical(got)
        assert got.coeffs == ref_reduce(poly, n)


def test_inverse_of_zero_raises():
    for n in ORDERS:
        with pytest.raises(ZeroDivisionError):
            CycField(n).zero.inverse()
        with pytest.raises(ZeroDivisionError):
            CycField(n).one / CycField(n).zero


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    for n in range(1, 41):
        prod = [Fraction(1)]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = ref_poly_mul(prod, [Fraction(c) for c in cyclotomic_polynomial(d)])
        assert prod == [-1] + [0] * (n - 1) + [1]


# --- equality and hashing across fields ------------------------------------------


def test_eq_hash_examples_across_fields():
    assert CycField(1).one == CycField(8).one
    assert hash(CycField(1).one) == hash(CycField(8).one)
    assert len({CycField(1).one, CycField(8).one}) == 1
    assert hash(CycField(5).from_rational(3)) == hash(3)
    assert hash(CycField(12).from_rational(Fraction(-2, 7))) == hash(Fraction(-2, 7))
    # zeta_6^2 and zeta_9^3 are both zeta_3, though neither order divides the other
    assert CycField(6).zeta(2) == CycField(9).zeta(3)
    assert hash(CycField(6).zeta(2)) == hash(CycField(9).zeta(3))
    assert CycField(6).zeta(1) != CycField(9).zeta(1)
    assert CycField(4).zeta() != CycField(3).zeta()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_equal_values_in_different_fields_are_equal_and_hash_alike(data):
    base = data.draw(st.sampled_from(ORDERS))
    m, n = (base * data.draw(st.sampled_from([1, 2, 3, 4])) for _ in range(2))
    x = CycField(base).element(data.draw(ref_vectors(CycField(base).degree)))
    xm, xn = CycField(m).embed(x), CycField(n).embed(x)
    assert xm == xn and xn == xm
    assert hash(xm) == hash(xn) == hash(x)
    assert len({xm, xn, x}) == 1
    if x.is_rational():
        assert xm == x.as_rational()
        assert hash(xm) == hash(x.as_rational())
    # the truth value is that of a Fraction: false exactly at zero
    for y in (xm, xm - xm):
        assert bool(y) == (y != 0)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cross_field_equality_agrees_with_complex_values(data):
    fa = CycField(data.draw(st.sampled_from(ORDERS)))
    fb = CycField(data.draw(st.sampled_from(ORDERS)))
    a = fa.element(data.draw(ref_vectors(fa.degree)))
    b = fb.element(data.draw(ref_vectors(fb.degree)))
    close = abs(a.to_complex() - b.to_complex()) < 1e-9
    assert (a == b) == close == (b == a)
    if a == b:
        assert hash(a) == hash(b)
