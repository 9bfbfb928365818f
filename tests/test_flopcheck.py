"""Tests for the analytic-continuation and flop-invariance identities."""

from fractions import Fraction

import pytest

from qcflop import flopcheck as fc
from qcflop.algebra import Poly, RatFunc


def g_poly(*coeffs):
    """The polynomial in G with these ascending coefficients."""
    return Poly(fc.Q, coeffs)


def g_series(r, order):
    """The q-series coefficients of G through q^order, as rationals."""
    return [c.as_rational() for c in fc.g_function(r).series_expand(order)]


def test_g_function_values():
    q = fc.q_var()
    assert fc.g_function(1) == q / (1 - q)
    assert fc.g_function(2) == q / (1 + q)
    assert g_series(2, 3) == [0, 1, -1, 1]


def test_g_function_series_oracle_sign_pattern():
    for r in (1, 2, 3, 4):
        series = g_series(r, 12)
        assert series[0] == 0
        for d in range(1, 13):
            assert series[d] == Fraction((-1) ** ((r + 1) * (d - 1)))


def test_reflection():
    q = fc.q_var()
    g1 = fc.g_function(1)
    assert g1 + g1.subs_reciprocal() == RatFunc.constant(fc.Q, 1, -1)
    g2 = fc.g_function(2)
    assert g2 + g2.subs_reciprocal() == RatFunc.constant(fc.Q, 1, 1)
    for r in range(1, 9):
        assert fc.verify_reflection(r)


def test_delta_g_polynomial_base_cases():
    assert fc.delta_g_polynomial(1, 0) == g_poly(0, 1)
    assert fc.delta_g_polynomial(1, 1) == g_poly(0, 1, 1)
    assert fc.delta_g_polynomial(2, 1) == g_poly(0, 1, -1)
    assert fc.delta_g_polynomial(1, 2) == g_poly(0, 1, 3, 2)


def reference_evaluate_g_polynomial(p, r):
    """p(G) as a sum of RatFunc terms c_k G^k, each reduced on its own."""
    g = fc.g_function(r)
    out = RatFunc.zero(fc.Q, 1)
    power = RatFunc.one(fc.Q, 1)
    for c in p.coeffs:
        if not c.is_zero():
            out = out + power * c.as_rational()
        power = power * g
    return out


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_evaluate_g_polynomial_matches_the_termwise_reference(r):
    polys = [fc.delta_g_polynomial(r, m) for m in range(10)]
    polys += [g_poly(), g_poly(0), g_poly(Fraction(-5, 3)), g_poly(0, 0, 1),
              g_poly(Fraction(1, 2), 0, -2, 0)]
    for p in polys:
        got = fc.evaluate_g_polynomial(p, r)
        want = reference_evaluate_g_polynomial(p, r)
        assert got == want
        assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs)


def test_delta_g_polynomial_matches_direct_differentiation():
    for r in (1, 2, 3, 4, 5):
        for m in range(8):
            p = fc.delta_g_polynomial(r, m)
            assert all(c.as_rational().denominator == 1 for c in p.coeffs), \
                "coefficients must be integers"
            assert fc.evaluate_g_polynomial(p, r) == fc.delta_g_direct(r, m)


def test_delta_g_rejects_negative_order():
    with pytest.raises(ValueError):
        fc.delta_g_direct(1, -1)
    with pytest.raises(ValueError):
        fc.delta_g_polynomial(1, -1)


def test_delta_g_ladder_matches_repeated_delta():
    # the ladders are kept per sign, so r = 1..3 may have filled them already
    assert fc.delta_g_direct(6, 5) == fc.g_function(6).delta().delta().delta().delta().delta()
    for r in (1, 2, 3, 6):
        f = fc.g_function(r)
        for m in range(8):
            assert fc.delta_g_direct(r, m) == f
            f = f.delta()


def test_one_ladder_per_sign(monkeypatch):
    # G and its deltas depend on r only through (-1)^(r+1)
    kept = {r: [fc.delta_g_direct(r, m) for m in range(8)] for r in (1, 2)}
    for r in (3, 4, 5):
        assert fc.g_function(r) is kept[2 - r % 2][0]
        assert all(fc.delta_g_direct(r, m) is kept[2 - r % 2][m] for m in range(8))
    # a freshly built ladder, and the deltas through the reducing constructor
    monkeypatch.setattr(fc, "_DELTA_LADDERS", {})
    w = Poly.monomial(fc.Q, 1)
    for r in (1, 2):
        f = fc.q_var() / (1 - fc.q_var() * (-1) ** (r + 1))
        for m in range(8):
            fresh = fc.delta_g_direct(r, m)
            assert fresh is not kept[r][m] and fresh == kept[r][m] == f
            n, d = f.num, f.den
            f = RatFunc(fc.Q, 1, w * (n.derivative() * d - n * d.derivative()), d * d)


@pytest.mark.parametrize("r", [1, 2])
def test_evaluate_g_polynomial_equals_the_reduced_fraction(r):
    # sum_k c_k a^k b^(n-k) over b^n for G = a/b, reduced by the constructor
    a, b = fc.g_function(r).num, fc.g_function(r).den
    for m in range(11):
        p = fc.delta_g_polynomial(r, m)
        n = p.degree
        num = Poly.zero(fc.Q)
        for k, c in enumerate(p.coeffs):
            num = num + (a ** k * b ** (n - k)).scale(c)
        want = RatFunc(fc.Q, 1, num, b ** n)
        got = fc.evaluate_g_polynomial(p, r)
        assert (got.num, got.den) == (want.num, want.den)


def test_delta_g_polynomial_series_oracle():
    # series of p_m(G) agrees with term-by-term differentiation of the series
    for r in (1, 2):
        base = g_series(r, 30)
        for m in range(1, 8):
            got = fc.evaluate_g_polynomial(fc.delta_g_polynomial(r, m), r).series_expand(30)
            for d in range(31):
                assert got[d].as_rational() == base[d] * Fraction(d) ** m


def test_reciprocal_antisymmetry_small_cases():
    # r=1, m=1: q/(1-q)^2 invariant under q -> 1/q
    h1 = fc.delta_g_direct(1, 1)
    assert h1.subs_reciprocal() == h1
    # r=1, m=2: q(1+q)/(1-q)^3 flips sign
    h2 = fc.delta_g_direct(1, 2)
    assert h2.subs_reciprocal() == h2 * Fraction(-1)
    q = fc.q_var()
    assert h2 == q * (1 + q) / ((1 - q) ** 3)


def test_reciprocal_antisymmetry_sweep():
    for r in range(1, 6):
        for m in range(1, 8):
            assert fc.reciprocal_antisymmetry(r, m)


def monomial(r, el, eg=0, k=0):
    """The continuation-ring element q^(el l) q^(eg g) G^k."""
    return fc.RingRElement(r, {(el, eg, k): Fraction(1)})


def test_flop_transform_generators():
    r = 2
    g = monomial(r, 0, 0, 1)
    image = fc.flop_transform(g)
    assert image == fc.RingRElement(r, {(0, 0, 0): Fraction(1), (0, 0, 1): Fraction(-1)})
    # involution on generators
    assert fc.flop_transform(image) == g
    qg = monomial(r, 0, 1)
    once = fc.flop_transform(qg)
    assert once == monomial(r, 1, 1)
    assert fc.flop_transform(once) == qg
    ql = monomial(r, 1, 0)
    assert fc.flop_transform(ql) == monomial(r, -1, 0)
    assert fc.flop_transform(fc.flop_transform(ql)) == ql


def test_flop_transform_involution_random():
    r = 1
    x = fc.RingRElement(r, {(2, 1, 3): Fraction(5), (-1, 2, 0): Fraction(1, 2),
                            (0, 0, 2): Fraction(-7)})
    assert fc.flop_transform(fc.flop_transform(x)) == x


def test_an_element_minus_itself_is_the_empty_element():
    x = fc.RingRElement(1, {(2, 1, 3): Fraction(5), (0, 0, 2): Fraction(-7)})
    zero = fc.RingRElement(1, {key: c - c for key, c in x.terms.items()})
    assert zero == fc.RingRElement(1, {}) and zero.terms == {}
    assert hash(zero) == hash(fc.RingRElement(1, {}))
    # a zero coefficient drops its term beside a nonzero one
    kept = fc.RingRElement(1, {(2, 1, 3): Fraction(5), (0, 0, 2): Fraction(0)})
    assert kept.terms == {(2, 1, 3): Fraction(5)}


def test_genus1_npoint_invariance():
    # r=1, n=2: both sides q/(12 (1-q)^2)
    lhs = fc.delta_g_direct(1, 1) * Fraction(1, 12)
    assert lhs == fc.q_var() / ((1 - fc.q_var()) ** 2) * Fraction(1, 12)
    assert fc.genus1_npoint_invariance(1, 2, kappa=Fraction(1, 12))
    assert fc.genus1_npoint_invariance(2, 3, kappa=Fraction(-1, 8))
    for r in (1, 2, 3, 4):
        kappa = Fraction((-1) ** (r + 1) * (r + 1), 24)
        for n in range(2, 7):
            assert fc.genus1_npoint_invariance(r, n, kappa=kappa)


def test_genus1_kappa_from_pipeline():
    assert fc.genus1_kappa(1) == Fraction(1, 12)
    assert fc.genus1_kappa(2) == Fraction(-1, 8)


def test_genus1_onepoint_defect():
    for r in (1, 2):
        assert fc.genus1_onepoint_defect(r) == 0
    # negative control: shifting the Chern pairing by -1 leaves +1/24
    assert fc.genus1_onepoint_defect(1, chern_shift=-1) == Fraction(1, 24)
    assert fc.genus1_onepoint_defect(1, chern_shift=1) == Fraction(-1, 24)


def test_fp_generating_invariance():
    assert fc.fp_generating_invariance(1)
    assert fc.fp_generating_invariance(3)
    assert fc.fp_generating_invariance(5)
    with pytest.raises(ValueError):
        fc.fp_generating_invariance(2)
