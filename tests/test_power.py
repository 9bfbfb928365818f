"""Square-and-multiply powers of the exact value types against repeated
multiplication."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcflop.algebra import CycField, EquivScalar, FracSeries, Poly, RatFunc
from qcflop.algebra.linalg import mul_terms
from qcflop.algebra.power import binary_power

FIELD = CycField(6)
exponents = st.integers(min_value=0, max_value=9)
small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def cyc_numbers():
    return st.lists(small, min_size=FIELD.degree, max_size=FIELD.degree).map(FIELD.element)


def repeated(x, n, one):
    out = one
    for _ in range(n):
        out = out * x
    return out


class Counted:
    """An integer that records in ``log`` every product it takes part in."""

    def __init__(self, value, log):
        self.value = value
        self.log = log

    def __mul__(self, other):
        self.log.append((self.value, other.value))
        return Counted(self.value * other.value, self.log)


@pytest.mark.parametrize("n", range(10))
def test_binary_power_skips_one_and_the_last_square(n):
    log = []
    got = binary_power(Counted(3, log), n, Counted(1, log))
    assert got.value == 3 ** n
    assert all(1 not in pair for pair in log)
    want = 0 if n == 0 else (n.bit_length() - 1) + (bin(n).count("1") - 1)
    assert len(log) == want


def test_binary_power_rejects_negative_exponents():
    with pytest.raises(ValueError):
        binary_power(2, -1, 1)


@settings(max_examples=15, deadline=None)
@given(cyc_numbers(), exponents)
def test_cyc_number_power(x, n):
    assert x ** n == repeated(x, n, FIELD.one)


@settings(max_examples=15, deadline=None)
@given(st.lists(cyc_numbers(), max_size=3), exponents)
def test_poly_power(coeffs, n):
    p = Poly(FIELD, coeffs)
    assert p ** n == repeated(p, n, Poly.one(FIELD))


@settings(max_examples=15, deadline=None)
@given(st.lists(cyc_numbers(), min_size=1, max_size=2), st.integers(min_value=-2, max_value=2),
       exponents)
def test_equiv_scalar_power(coeffs, lam_exp, n):
    num = Poly(FIELD, coeffs)
    den = Poly(FIELD, [FIELD.one, FIELD.zeta()])
    x = EquivScalar(FIELD, 2, lam_exp, RatFunc(FIELD, 2, num, den) + RatFunc.one(FIELD, 2))
    assert x ** n == repeated(x, n, EquivScalar.one(FIELD, 2))


@settings(max_examples=15, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 2)), cyc_numbers(),
                       max_size=4), exponents)
def test_frac_series_power(terms, n):
    x = FracSeries(FIELD, 2, 3, 6, terms)
    assert x ** n == repeated(x, n, FracSeries.one(FIELD, 2, 3, 6))


def repeated_terms(p, n, one):
    out = one
    for _ in range(n):
        out = mul_terms(out, p)
    return out


@settings(max_examples=15, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), small.filter(bool),
                       max_size=3), exponents)
def test_binary_power_under_a_given_product(terms, n):
    # a term map has no *, so its product is passed: mul_terms, wrapped to count the calls
    one = {(0, 0): Fraction(1)}
    log = []

    def counted(a, b):
        log.append((a, b))
        return mul_terms(a, b)

    assert binary_power(terms, n, one, counted) == repeated_terms(terms, n, one)
    assert len(log) == (0 if n == 0 else (n.bit_length() - 1) + (bin(n).count("1") - 1))
