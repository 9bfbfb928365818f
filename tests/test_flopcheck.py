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


def test_flop_transform_generators():
    r = 2
    g = fc.RingRElement.g_symbol(r)
    image = fc.flop_transform(g)
    assert image == fc.RingRElement(r, {(0, 0, 0): Fraction(1), (0, 0, 1): Fraction(-1)})
    # involution on generators
    assert fc.flop_transform(image) == g
    qg = fc.RingRElement.q_monomial(r, 0, 1)
    once = fc.flop_transform(qg)
    assert once == fc.RingRElement.q_monomial(r, 1, 1)
    assert fc.flop_transform(once) == qg
    ql = fc.RingRElement.q_monomial(r, 1, 0)
    assert fc.flop_transform(ql) == fc.RingRElement.q_monomial(r, -1, 0)
    assert fc.flop_transform(fc.flop_transform(ql)) == ql


def test_flop_transform_involution_random():
    r = 1
    x = fc.RingRElement(r, {(2, 1, 3): Fraction(5), (-1, 2, 0): Fraction(1, 2),
                            (0, 0, 2): Fraction(-7)})
    assert fc.flop_transform(fc.flop_transform(x)) == x


def test_ring_closed_under_delta():
    # delta of a ring element stays in polynomial-in-G form and matches the
    # scalar recursion on pure G-powers
    r = 2
    g = fc.RingRElement.g_symbol(r)
    dg = g.delta()
    assert dg == fc.RingRElement(r, {(0, 0, 1): Fraction(1), (0, 0, 2): Fraction(-1)})
    # round-trip through the polynomial recursion
    p2 = fc.delta_g_polynomial(r, 2)
    elt = fc.RingRElement(r, {(0, 0, k): c.as_rational() for k, c in enumerate(p2.coeffs)})
    assert g.delta().delta() == elt


def test_delta_obeys_the_product_rule():
    r = 2
    x = fc.RingRElement(r, {(2, 1, 3): Fraction(5), (-1, 2, 0): Fraction(1, 2),
                            (-1, 0, 1): Fraction(3)})
    y = fc.RingRElement(r, {(1, 0, 2): Fraction(-2), (0, 1, 0): Fraction(7)})
    assert (x * y).delta() == x.delta() * y + x * y.delta()
    # q^-1 G: the q-power and the G-power cancel at G, and leave -q^-1 G^2
    assert fc.RingRElement(r, {(-1, 0, 1): Fraction(1)}).delta() == \
        fc.RingRElement(r, {(-1, 0, 2): Fraction(-1)})


def test_an_element_minus_itself_is_the_empty_element():
    x = fc.RingRElement(1, {(2, 1, 3): Fraction(5), (0, 0, 2): Fraction(-7)})
    zero = x + x.scale(-1)
    assert zero == fc.RingRElement(1, {}) and zero.terms == {}
    assert hash(zero) == hash(fc.RingRElement(1, {}))


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


def test_g_polynomial_fit_identity():
    r = 1
    series = g_series(r, 12)
    polys = fc.g_polynomial_fit([Fraction(c) for c in series], 0, 3, r)
    assert polys == [g_poly(0, 1)]


def test_g_polynomial_fit_two_block():
    # 2 + 3q with d2 = 1 and constant blocks: p_0 = 2, p_1 = 3, the only fit
    for r in (1, 2):
        target = fc.q_var() * 3 + 2
        series = [c.as_rational() for c in target.series_expand(8)]
        assert fc.g_polynomial_fit(series, 1, 0, r) == [g_poly(2), g_poly(3)]
    # q + G^2 with d2 = 1 and degree 2: p_0 = G^2, p_1 = 1 is one fit of many,
    # since q G, q and G are dependent; the unknowns q G and q G^2 are free
    r = 1
    g2 = fc.evaluate_g_polynomial(g_poly(0, 0, 1), r)
    target = fc.q_var() + g2
    series = [c.as_rational() for c in target.series_expand(14)]
    with pytest.raises(fc.NonUniqueFitError, match=r"rank 4 of 6, free unknowns \(j, k\) = \(1, 1\), \(1, 2\)"):
        fc.g_polynomial_fit(series, 1, 2, r)


def test_g_polynomial_fit_free_unknowns_raise_whatever_the_solver_returns(monkeypatch):
    # a solver reporting one pivot short makes the otherwise unique fit raise
    r = 1
    series = [Fraction(c) for c in g_series(r, 12)]
    solve = fc.linalg.solve

    def short_solve(matrix, ncols, rhs, one):
        x, pivots = solve(matrix, ncols, rhs, one)
        return x, pivots[:-1]

    monkeypatch.setattr(fc.linalg, "solve", short_solve)
    with pytest.raises(fc.NonUniqueFitError, match=r"rank 3 of 4, free unknowns \(j, k\) = \(0, 3\)"):
        fc.g_polynomial_fit(series, 0, 3, r)


def test_g_polynomial_fit_rejects_outside_span():
    r = 1
    bad = RatFunc.one(fc.Q, 1) / ((1 - fc.q_var()) ** 3)
    series = [c.as_rational() for c in bad.series_expand(14)]
    with pytest.raises(fc.NotOfFiniteFormError):
        fc.g_polynomial_fit(series, 0, 2, r)
    with pytest.raises(fc.NotOfFiniteFormError):
        fc.g_polynomial_fit(series, 1, 2, r)


def test_g_polynomial_fit_roundtrip_ring_element():
    # build a finite-form element, expand and fit: with one block the fit is
    # unique and gives the element's polynomial back; with three blocks of
    # degree 2 the blocks q^j G^k are linearly dependent (q G differs from
    # G - q by a sign), so the fit is not unique and raises
    r = 2
    for d2, polys in ((0, [g_poly(1, 2, -3)]),
                      (2, [g_poly(1, 2), g_poly(0, 0, 3), g_poly(5)])):
        elt = fc.RingRElement.finite_form(r, d2, polys)
        assert elt.contact_weight() == d2
        series_by_weight = fc.ring_element_series(elt, 16)
        series = series_by_weight[d2]
        if d2 == 0:
            assert fc.g_polynomial_fit(series, d2, 2, r) == polys
        else:
            with pytest.raises(fc.NonUniqueFitError, match="rank 5 of 9"):
                fc.g_polynomial_fit(series, d2, 2, r)
