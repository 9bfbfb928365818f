"""Tests of Poly, the integer-matrix polynomial, against a schoolbook reference.

The reference works on plain lists of CycNumber coefficients, ascending in w,
one CycNumber operation at a time; it shares no code with Poly beyond the
scalar field arithmetic.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcflop.algebra import CycField, Poly

ORDERS = [1, 4, 10, 14]

# entries with mixed denominators, so coefficients over different dens meet
entries = st.builds(Fraction, st.integers(min_value=-12, max_value=12),
                    st.sampled_from([1, 1, 2, 3, 5, 7, 12]))


# --- the schoolbook reference over CycNumber lists -------------------------------


def trim(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def ref_add(field, a, b):
    n = max(len(a), len(b))
    pad = lambda cs: list(cs) + [field.zero] * (n - len(cs))  # noqa: E731
    return trim(x + y for x, y in zip(pad(a), pad(b)))


def ref_mul(field, a, b):
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return trim(out)


def ref_divmod(field, a, b):
    rem = list(a)
    quo = [field.zero] * max(len(a) - len(b) + 1, 0)
    inv = b[-1].inverse()
    while len(rem) >= len(b):
        c = rem[-1] * inv
        shift = len(rem) - len(b)
        quo[shift] = c
        for k, y in enumerate(b):
            rem[shift + k] = rem[shift + k] - c * y
        rem = trim(rem[:-1])
    return trim(quo), trim(rem)


def ref_gcd(field, a, b):
    while b:
        a, b = b, ref_divmod(field, a, b)[1]
    if not a:
        return []
    inv = a[-1].inverse()
    return [c * inv for c in a]


@st.composite
def coeff_lists(draw, field, max_size=5, nonzero=False):
    cs = [field.element(draw(st.lists(entries, min_size=1, max_size=field.degree)))
          if draw(st.integers(min_value=0, max_value=3)) else field.zero
          for _ in range(draw(st.integers(min_value=1 if nonzero else 0, max_value=max_size)))]
    cs = trim(cs)
    if nonzero and not cs:
        cs = [field.element(draw(st.lists(entries.filter(bool), min_size=1, max_size=1)))]
    return cs


def assert_canonical(p):
    if not p.rows:
        assert p.den == 1
        return
    assert p.den > 0
    assert any(p.rows[-1])
    assert all(isinstance(row, tuple) and len(row) == p.field.degree for row in p.rows)
    assert gcd(p.den, *(x for row in p.rows for x in row)) == 1


def same(p, cs):
    assert_canonical(p)
    assert list(p.coeffs) == cs


# --- arithmetic against the reference ----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORDERS), st.data())
def test_sum_product_and_scale_match_schoolbook(order, data):
    field = CycField(order)
    a, b = (data.draw(coeff_lists(field)) for _ in range(2))
    pa, pb = Poly(field, a), Poly(field, b)
    same(pa, a)
    same(pa + pb, ref_add(field, a, b))
    same(pa - pb, ref_add(field, a, [-c for c in b]))
    same(-pa, [-c for c in a])
    same(pa * pb, ref_mul(field, a, b))
    c = field.element(data.draw(st.lists(entries, min_size=1, max_size=field.degree)))
    x = data.draw(entries)
    same(pa.scale(c), trim(y * c for y in a))
    same(pa * x, trim(y * x for y in a))
    same(pa * c, ref_mul(field, a, [c] if not c.is_zero() else []))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORDERS), st.data())
def test_mul_upto_is_the_product_cut_at_top(order, data):
    field = CycField(order)
    a, b = (data.draw(coeff_lists(field)) for _ in range(2))
    top = data.draw(st.integers(min_value=-1, max_value=9))
    pa, pb = Poly(field, a), Poly(field, b)
    same(pa.mul_upto(pb, top), trim(ref_mul(field, a, b)[:top + 1]))
    assert pa.mul_upto(pb, top) == (pa * pb).truncate(top)
    # one buffer for a sum of products, over a common denominator
    den = pa.den * pb.den
    same(Poly.sum_of_products(field, [(pa.rows, pb.rows), (pb.rows, pa.rows)], den),
         trim(c * 2 for c in ref_mul(field, a, b)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORDERS), st.data())
def test_scale_by_a_root_of_unity_matches_schoolbook(order, data):
    # a rational multiple of zeta^k permutes the powers of zeta in each row
    field = CycField(order)
    a = data.draw(coeff_lists(field))
    c = field.zeta(data.draw(st.integers(0, order - 1))) * data.draw(entries)
    same(Poly(field, a).scale(c), trim(y * c for y in a))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORDERS), st.data())
def test_twist_is_the_root_substitution(order, data):
    # twist(m, ref) is zeta^(-m ref) p(zeta^m w), read by eval at field points
    field = CycField(order)
    p = Poly(field, data.draw(coeff_lists(field)))
    m = data.draw(st.integers(-2 * order, 2 * order))
    ref = data.draw(st.integers(0, 6))
    got = p.twist(m, ref)
    assert_canonical(got)
    for x in (field.zero, field.one, field.zeta(), field.element([Fraction(1, 3), 2])):
        assert got.eval(x) == field.zeta(-m * ref) * p.eval(field.zeta(m) * x)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORDERS), st.data())
def test_divmod_matches_schoolbook(order, data):
    field = CycField(order)
    a = data.draw(coeff_lists(field, max_size=7))
    b = data.draw(coeff_lists(field, max_size=4, nonzero=True))
    if data.draw(st.booleans()):
        # an exact division, the shape of a reduction's quotient
        a = ref_mul(field, a, b)
    pa, pb = Poly(field, a), Poly(field, b)
    q, r = pa.divmod(pb)
    want_q, want_r = ref_divmod(field, a, b)
    same(q, want_q)
    same(r, want_r)
    assert q * pb + r == pa
    assert r.degree < pb.degree
    assert divmod(pa, pb) == (q, r)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORDERS), st.data())
def test_gcd_is_monic_and_divides_both(order, data):
    field = CycField(order)
    shared = data.draw(coeff_lists(field, max_size=3, nonzero=True))
    a, b = (ref_mul(field, data.draw(coeff_lists(field, max_size=4)), shared) for _ in range(2))
    pa, pb = Poly(field, a), Poly(field, b)
    g = pa.gcd(pb)
    same(g, ref_gcd(field, a, b))
    if a or b:
        assert g.lead() == 1
        for p in (pa, pb):
            assert p.divmod(g)[1].is_zero()
        # the shared factor divides the gcd
        assert g.divmod(Poly(field, shared))[1].is_zero()
    else:
        assert g.is_zero()


def test_division_by_zero_raises():
    field = CycField(4)
    with pytest.raises(ZeroDivisionError):
        Poly.one(field).divmod(Poly.zero(field))


# --- the canonical form ----------------------------------------------------------------


def test_canonical_form_examples():
    field = CycField(4)
    half = Fraction(1, 2)
    # (1/2) w^0 + (i/3) w, trailing zeros dropped: rows over the lcm 6
    p = Poly(field, [half, field.element([0, Fraction(1, 3)]), 0, field.zero])
    assert (p.rows, p.den) == (((3, 0), (0, 2)), 6)
    # a common factor of den and every entry is divided out once
    q = p * 6
    assert (q.rows, q.den) == (((3, 0), (0, 2)), 1)
    assert ((p + p).rows, (p + p).den) == (((3, 0), (0, 2)), 3)
    # zero in every shape is rows () over 1
    for z in (Poly(field, []), Poly(field, [0, field.zero]), p - p, p * 0, p.scale(field.zero),
              Poly.zero(field) * p):
        assert (z.rows, z.den) == ((), 1)
        assert z.is_zero() and z.degree == -1
    # equal rows over different denominators are different polynomials
    assert Poly(field, [1, 1]) != Poly(field, [half, half])
    # the leading row of a monic polynomial is den times the unit vector
    m = p.gcd(p)
    assert m.rows[-1] == (m.den, 0)


def test_coeffs_is_read_only():
    field = CycField(10)
    p = Poly(field, [1, field.zeta()])
    assert p.coeffs == (field.one, field.zeta())
    with pytest.raises(AttributeError):
        p.coeffs = (field.one,)
    with pytest.raises(AttributeError):
        p.extra = 1


# --- equality and hashing across nested fields ----------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_eq_and_hash_across_nested_fields(data):
    small, big = CycField(4), CycField(8)
    a = data.draw(coeff_lists(small))
    p = Poly(small, a)
    embedded = Poly(big, [big.embed(c) for c in a])
    assert embedded.field is big
    assert p == embedded and embedded == p
    assert hash(p) == hash(embedded)
    assert len({p, embedded}) == 1
    # one changed coefficient, in the larger field only, breaks the equality
    other = embedded + Poly.monomial(big, data.draw(st.integers(min_value=0, max_value=4)), big.zeta())
    assert p != other and other != p


def test_eq_across_fields_neither_nested():
    three, four = CycField(3), CycField(4)
    assert Poly(three, [1, Fraction(1, 2)]) == Poly(four, [1, Fraction(1, 2)])
    assert Poly(three, [1, three.zeta()]) != Poly(four, [1, four.zeta()])
