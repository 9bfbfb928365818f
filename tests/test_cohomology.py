"""Tests for the cohomology ring of the local model."""

from fractions import Fraction

import pytest

from qcflop import cohomology as coh
from qcflop.algebra import linalg

from helpers import chern_class_reference, poly_division_reduce_oracle


def test_ring_relations_vanish():
    for r in (1, 2, 3):
        assert coh.CohClass.reduce(r, {(r + 1, 0): Fraction(1)}).is_zero()
        # x (x-h)^(r+1)
        xh = {(1, 0): Fraction(-1), (0, 1): Fraction(1)}
        rel = linalg.mul_terms({(0, 1): Fraction(1)}, coh.raw_pow(xh, r + 1))
        assert coh.CohClass.reduce(r, rel).is_zero()


def test_substitution_matches_the_powers_of_x_minus_h():
    # the reference expands (x - h)^a by repeated products and multiplies in x^b
    raw = {(0, 2): Fraction(3), (2, 1): Fraction(-1, 2), (3, 0): Fraction(5), (1, 4): Fraction(2)}
    want = {}
    for (a, b), c in raw.items():
        term = linalg.mul_terms(coh.raw_pow({(1, 0): Fraction(-1), (0, 1): Fraction(1)}, a),
                                {(0, b): c})
        want = linalg.add_terms(want, term)
    assert coh.substitute_h_by_x_minus_h(raw) == want


def test_a_class_minus_itself_is_the_empty_class():
    r = 2
    a = coh.chern_class(r, 2) + coh.monomial(r, 1, 1, 3)
    assert (a - a) == coh.CohClass(r, {}) and (a - a).coeffs == {}
    assert hash(a - a) == hash(coh.CohClass(r, {}))
    assert a - a.scale(2) == a.scale(-1)


def test_reduce_already_reduced_r1():
    got = coh.CohClass.reduce(1, {(0, 0): Fraction(1), (1, 0): Fraction(1),
                                  (0, 1): Fraction(1), (1, 1): Fraction(1)})
    assert got.coeffs == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}


def test_reduce_matches_independent_oracle():
    for r in (1, 2):
        for (a, b) in [(0, r + 2), (1, r + 2), (r, r + 2), (r - 1, r + 3) if r > 1 else (0, r + 3)]:
            raw = {(a, b): Fraction(1)}
            got = coh.CohClass.reduce(r, raw).coeffs
            want = poly_division_reduce_oracle(r, raw)
            assert got == want


def test_integrate_normalization():
    for r in (1, 2, 3):
        assert coh.integrate(coh.monomial(r, r, r + 1)) == 1
        # low-degree monomials integrate to zero
        for (a, b) in coh.basis(r):
            if a + b < 2 * r + 1:
                assert coh.integrate(coh.monomial(r, a, b)) == 0


def test_integrate_reduce_then_read_r1():
    # x^3 reduces to 2 h x^2 for r = 1, so h^0 x^3 integrates to 2
    got = coh.integrate_raw(1, {(0, 3): Fraction(1)})
    want = poly_division_reduce_oracle(1, {(0, 3): Fraction(1)}).get((1, 2), Fraction(0))
    assert got == want == 2


def test_total_chern_degree_pieces():
    for r in (1, 2, 3, 4):
        assert coh.chern_class(r, 0).coeffs == {(0, 0): 1}
        # expand (r+1)h + x + (r+1)(x-h) = (r+2) x by hand
        assert coh.chern_class(r, 1) == coh.monomial(r, 0, 1, r + 2)


def test_degree1_chern_pairs_to_zero_with_line_class():
    # the line class of the exceptional locus pairs with h only; c1 = (r+2)x
    # has no h-component, which is the crepancy statement
    for r in (1, 2, 3):
        c1 = coh.chern_class(r, 1)
        assert all(a == 0 for (a, b) in c1.coeffs)


def test_ring_rank():
    for r in (1, 2, 3, 4):
        assert len(coh.basis(r)) == (r + 1) * (r + 2)


def test_poincare_duality_unimodular():
    for r in (1, 2, 3):
        gram = coh.pairing_matrix(r)
        d = linalg.det(gram, Fraction(1))
        assert abs(d) == 1


def test_pairing_matrix_rows_hold_no_zero_entry():
    for r in (1, 2, 3):
        gram = coh.pairing_matrix(r)
        mons = [coh.monomial(r, a, b) for (a, b) in coh.basis(r)]
        assert len(gram) == len(mons)
        for i, row in enumerate(gram):
            assert all(row.values())
            # every entry off the row is a zero of the pairing
            assert all(coh.integrate(mons[i] * mons[j]) == row.get(j, 0)
                       for j in range(len(mons)))


def test_poincare_unimodular_negative_control(monkeypatch, capsys):
    from qcflop import cli, suites

    real = coh.pairing_matrix

    def doubled(r):
        gram = real(r)
        top = len(gram) - 1
        assert list(gram[0]) == [top]
        gram[0][top] *= 2  # <1, h^r x^(r+1)>, the only nonzero entry of its row
        return gram

    monkeypatch.setattr(coh, "pairing_matrix", doubled)
    entry = next(e for e in suites.cohomology_suite(1).entries
                 if e.anchor == "cohomology/poincare-unimodular")
    assert entry.status == "fail" and abs(Fraction(entry.residual)) == 2
    assert cli.main(["verify", "cohomology", "--r", "1"]) == 1
    capsys.readouterr()


def test_chern_flop_identity():
    for r in range(1, 7):
        assert coh.chern_flop_identity(r) == -(r + 1)


def test_chern_flop_identity_r1_by_hand():
    # c2 = 3x^2 + 2hx for r = 1 (hand expansion); (c2.2h-x) = 6 - 8 = -2
    c2 = coh.chern_class(1, 2)
    assert c2 == coh.monomial(1, 0, 2, 3) + coh.monomial(1, 1, 1, 2)
    assert coh.chern_flop_identity(1) == -2


def test_genus1_degree0():
    # alpha = 0 gives 0
    assert coh.genus1_degree0(1, coh.CohClass(1, {})) == 0
    # alpha = h at r = 1: -(1/24)(c2.h) with (c2.h) = 3
    assert coh.genus1_degree0(1, coh.monomial(1, 1, 0)) == Fraction(-3, 24)
    # consistency with the flop pairing: value on 2h - x is (r+1)/24
    for r in (1, 2, 3):
        probe = coh.monomial(r, 1, 0, 2) + coh.monomial(r, 0, 1, -1)
        assert coh.genus1_degree0(r, probe) == Fraction(r + 1, 24)


def test_c3_minus_c2c1_value_and_flop_side():
    v = coh.c3_minus_c2c1(1)
    # oracle: integral of c3 is the fixed-point count (r+1)(r+2) = 6, and
    # c2.c1 = (3x^2 + 2hx).3x integrates to 24
    assert coh.integrate(coh.chern_class(1, 3)) == 6
    assert v == 6 - 24 == -18
    assert coh.c3_minus_c2c1_swapped(1) == v
    with pytest.raises(ValueError):
        coh.c3_minus_c2c1(2)


@pytest.mark.parametrize("r", range(1, 9))
def test_chern_classes_are_integral_and_match_the_fraction_reference(r):
    for k in range(2 * r + 4):
        got = coh.chern_class(r, k)
        assert got.coeffs == chern_class_reference(r, k)
        assert all(type(c) is int for c in got.coeffs.values())


def test_no_cohomology_value_is_a_float():
    def exact(c):
        return type(c) in (int, Fraction)

    for r in (1, 2, 3, 4):
        classes = [coh.chern_class(r, k) for k in range(2 * r + 4)]
        classes += [classes[1] * classes[2], classes[2] - classes[1].scale(Fraction(1, 3)),
                    coh.monomial(r, 0, r + 3, 5)]
        assert all(exact(c) for cls in classes for c in cls.coeffs.values())
        assert all(exact(coh.integrate(cls)) for cls in classes)
        assert all(exact(c) for c in coh.total_chern_raw(r).values())
        assert all(exact(v) for row in coh.pairing_matrix(r) for v in row.values())
        probe = coh.monomial(r, 1, 0, 2) + coh.monomial(r, 0, 1, -1)
        assert exact(coh.chern_flop_identity(r)) and exact(coh.genus1_degree0(r, probe))
    assert exact(coh.c3_minus_c2c1(1)) and exact(coh.c3_minus_c2c1_swapped(1))


def test_an_int_class_equals_and_hashes_like_its_fraction_twin():
    for r in (1, 2, 3):
        for k in range(2 * r + 2):
            c = coh.chern_class(r, k)
            twin = coh.CohClass(r, {key: Fraction(v) for key, v in c.coeffs.items()})
            assert c == twin and hash(c) == hash(twin)
            assert {c: k}[twin] == k
