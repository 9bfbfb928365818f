"""Tests for truncated fractional-exponent series, and of FracSeries, one Poly
per power of q2, against a schoolbook reference.

The reference works on plain dicts {(n1, n2): CycNumber}, one CycNumber
operation per pair of terms; it shares no code with FracSeries beyond the
scalar field arithmetic.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcflop.algebra import CycField, CycNumber, FracSeries, Poly

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


# --- the schoolbook reference over CycNumber dicts ---------------------------------


def ref_clean(terms, trunc):
    return {k: c for k, c in terms.items() if k[0] <= trunc and not c.is_zero()}


def ref_add(a, b, trunc):
    out = dict(a)
    for key, c in b.items():
        out[key] = out[key] + c if key in out else c
    return ref_clean(out, trunc)


def ref_mul(a, b, trunc):
    out = {}
    for (a1, a2), c in a.items():
        for (b1, b2), d in b.items():
            key = (a1 + b1, a2 + b2)
            out[key] = out[key] + c * d if key in out else c * d
    return ref_clean(out, trunc)


def ref_scale(a, c, trunc):
    return ref_clean({k: v * c for k, v in a.items()}, trunc)


def ref_pow(a, n, field, trunc):
    out = {(0, 0): field.one}
    for _ in range(n):
        out = ref_mul(out, a, trunc)
    return out


def ref_binomial(a, alpha, field, trunc):
    """(1 + x)^alpha for a = 1 + x by the binomial series in products of x."""
    x = ref_add(a, {(0, 0): -field.one}, trunc)
    out, term, coeff = {(0, 0): field.one}, {(0, 0): field.one}, Fraction(1)
    for k in range(1, trunc + 1):
        coeff = coeff * Fraction(alpha - k + 1, k)
        term = ref_mul(term, x, trunc)
        if not term or coeff == 0:
            break
        out = ref_add(out, ref_scale(term, coeff, trunc), trunc)
    return out


REF_ORDERS = [12, 20, 42]
REF_TRUNC = 5

# entries with mixed denominators, so terms over different dens meet
entries = st.builds(Fraction, st.integers(min_value=-12, max_value=12),
                    st.sampled_from([1, 1, 2, 3, 5, 7, 12]))


def elements(field):
    return st.lists(entries, min_size=1, max_size=field.degree).map(field.element)


def term_dicts(field, max_size=4):
    return st.dictionaries(st.tuples(st.integers(0, REF_TRUNC), st.integers(0, 3)),
                           elements(field), max_size=max_size)


@st.composite
def scalars(draw, field):
    """A rational, a rational multiple of a root of unity, or a general element."""
    kind = draw(st.sampled_from(["rational", "root", "general"]))
    if kind == "rational":
        return draw(entries)
    if kind == "root":
        return field.zeta(draw(st.integers(0, field.order - 1))) * draw(entries)
    return draw(elements(field))


def assert_canonical(s):
    """Every part is a nonzero canonical Poly of degree <= trunc over the
    series' field."""
    for n2, p in s.parts.items():
        assert n2 >= 0 and isinstance(p, Poly) and p.field is s.field
        assert not p.is_zero() and p.degree <= s.trunc
        assert p.den > 0 and any(p.rows[-1])
        assert all(isinstance(row, tuple) and len(row) == s.field.degree for row in p.rows)
        assert gcd(p.den, *(x for row in p.rows for x in row)) == 1
    assert all(c.field is s.field for c in s.terms.values())


def same(s, terms):
    assert_canonical(s)
    assert s.terms == terms


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(REF_ORDERS), st.data())
def test_arithmetic_matches_schoolbook(order, data):
    field, T = CycField(order), REF_TRUNC
    a, b = (data.draw(term_dicts(field)) for _ in range(2))
    sa, sb = (FracSeries(field, 3, 4, T, t) for t in (a, b))
    a, b = ref_clean(a, T), ref_clean(b, T)
    same(sa, a)
    same(sa + sb, ref_add(a, b, T))
    same(sa - sb, ref_add(a, ref_scale(b, -1, T), T))
    same(-sa, ref_scale(a, -1, T))
    same(sa * sb, ref_mul(a, b, T))
    c = data.draw(scalars(field))
    same(sa * c, ref_scale(a, c, T))
    same(c * sa, ref_scale(a, c, T))
    n = data.draw(st.integers(0, 3))
    same(sa ** n, ref_pow(a, n, field, T))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(REF_ORDERS), st.data())
def test_binomial_power_matches_schoolbook(order, data):
    field, T = CycField(order), REF_TRUNC
    c = data.draw(scalars(field).filter(lambda c: c != 0))
    key = (data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3)))
    base = {(0, 0): field.one, key: field.one * c}
    alpha = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=7))
    got = FracSeries(field, 3, 4, T, base).binomial_power(alpha)
    same(got, ref_binomial(ref_clean(base, T), alpha, field, T))


@pytest.mark.parametrize("order", REF_ORDERS)
def test_product_reduces_the_top_power_of_zeta(order):
    # zeta^(d-1) squared puts the one nonzero entry of the convolution at
    # index 2d - 2, the last one the reduction through the powers of zeta reads
    field, T = CycField(order), REF_TRUNC
    top = field.zeta(field.degree - 1)
    x = FracSeries.monomial(field, 3, 4, T, 1, 0, top)
    same(x * x, {(2, 0): field.zeta(2 * field.degree - 2)})
    same(x * x, ref_mul(x.terms, x.terms, T))


def test_terms_from_a_subfield_are_embedded():
    big, small = CycField(20), CycField(4)
    x = FracSeries.monomial(big, 4, 5, 6, 1, 0)
    for s in (x + small.zeta(), small.zeta() + x, x - small.zeta(), x * small.zeta(),
              FracSeries(big, 4, 5, 6, {(0, 0): small.zeta(), (2, 1): 3}),
              FracSeries.monomial(big, 4, 5, 6, 2, 0, small.zeta())):
        assert_canonical(s)
    assert (x + small.zeta()).constant_term() == big.zeta(5)


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
    # series and keeps terms at the truncation order
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
            assert got == s * lifted and got.trunc == s.trunc
            assert all(v.field is field for v in got.terms.values())
    assert (s * 0).is_zero()


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


def test_divide_monomial_shifts_the_keys_and_the_truncation():
    field, d1, d2, T = make(r=2, trunc=6)
    s = (FracSeries.monomial(field, d1, d2, T, 1, 1, field.zeta(5) * Fraction(2, 3))
         + FracSeries.monomial(field, d1, d2, T, 4, 2, Fraction(-1, 6)))
    unit = s.divide_monomial(1, 1)
    assert unit.trunc == T - 1
    assert unit.terms == {(0, 0): field.zeta(5) * Fraction(2, 3),
                          (3, 1): field.from_rational(Fraction(-1, 6))}
    assert_canonical(unit)
    assert s.divide_monomial(1, 2) is None
    assert (s + 1).divide_monomial(1, 1) is None
